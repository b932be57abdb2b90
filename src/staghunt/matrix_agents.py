"""One-shot (matrix-form) Stag Hunt agents.

Three families live here:

    * value learners (guilt-averse with or without first-order belief
      updates, or purely individual when guilt is off) that pick actions
      from their action values and learn with a TD(1)-style update whose
      bootstrap term is the belief-weighted best material payoff;
    * the Pavlov baseline (generalised Win-Stay-Lose-Shift) that cooperates
      with probability i/n and nudges i on behaviour matches/mismatches;
    * the engine: each frozen state becomes a mutable learner on plain
      floats for the length of a match (`learner_for`), `play_learners`
      plays one round between two learners and routes every update in the
      right order, and `state()` turns a learner back into a frozen state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Union

from .beliefs import Belief, ToMState, belief_step
from .game import C, U, PayoffMatrix, PolicyLabel
from .shaping import GuiltParams, guilt_reward, phi_from_beliefs, shape_reward


@dataclass(frozen=True, slots=True)
class Exploration:
    """Action-selection settings.

    kind="softmax": P(C) is a logistic over the value gap at the current
    temperature, which decays geometrically each iteration.
    kind="epsilon": greedy on values with probability 1-epsilon, uniform
    otherwise (ties break toward C).
    """

    kind: str = "softmax"
    temperature: float = 1.0
    temperature_decay: float = 0.995
    epsilon: float = 0.1

    def __post_init__(self):
        if self.kind not in ("softmax", "epsilon"):
            raise ValueError(f"unknown exploration kind: {self.kind}")
        if self.kind == "softmax" and not self.temperature > 0:
            raise ValueError("softmax temperature must be > 0")
        if not 0.0 <= self.epsilon <= 1.0:
            raise ValueError("epsilon must lie in [0, 1]")


@dataclass(frozen=True, slots=True)
class MatrixAgentState:
    """A value learner for the one-shot game.

    guilt=None disables reward shaping entirely (the individual learner and
    the ToM-without-guilt variant); beliefs keep updating either way.
    """

    values: dict[PolicyLabel, float]
    tom: ToMState
    guilt: GuiltParams | None
    alpha: float
    gamma: float
    explore: Exploration

    def __post_init__(self):
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError(f"alpha must lie in (0, 1], got {self.alpha}")
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError(f"gamma must lie in [0, 1], got {self.gamma}")


@dataclass(frozen=True, slots=True)
class PavlovState:
    """Cooperates with probability i/n; i moves by one on match/mismatch."""

    i_count: int
    n: int

    def __post_init__(self):
        if self.n <= 0:
            raise ValueError("Pavlov resolution n must be positive")
        if not 0 <= self.i_count <= self.n:
            raise ValueError(f"i_count must lie in [0, {self.n}], got {self.i_count}")


MatrixPlayer = Union[MatrixAgentState, PavlovState]


def values_for_cooperation_probability(
    p: float, temperature: float = 1.0, clamp: float = 1e-3
) -> dict[PolicyLabel, float]:
    """Initial action values whose softmax P(C) equals p at the given temperature.

    p is clamped away from {0, 1} so the log-odds stay finite; the clamp is
    what "never cooperates" means operationally for a softmax policy.
    """
    p = min(max(p, clamp), 1.0 - clamp)
    gap = temperature * math.log(p / (1.0 - p))
    return {C: gap / 2.0, U: -gap / 2.0}


def _logistic(x: float) -> float:
    if x >= 0.0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


_NO_RECORD = (None, None, None)


class MatrixLearner:
    """A value learner on plain floats, updated in place.

    Built once per match from a frozen MatrixAgentState and turned back into
    one by `state()`, so the frozen dataclasses stay the API boundary while
    every iteration runs without allocating agent objects. Its methods hold
    the action-selection, TD(1) and temperature-decay rules;
    `cooperation_probability` and `td1_update` below apply them to a
    MatrixAgentState.
    """

    __slots__ = (
        "v_c", "v_u", "b0", "b1", "conf", "temp",
        "learning_rate", "tom_enabled", "guilt", "alpha", "gamma",
        "softmax", "epsilon", "decay", "_agent",
    )

    def __init__(self, agent: MatrixAgentState):
        tom, explore = agent.tom, agent.explore
        self.v_c = agent.values[C]
        self.v_u = agent.values[U]
        self.b0 = tom.zero_order.p_cooperative
        self.b1 = tom.first_order.p_cooperative
        self.conf = tom.confidence
        self.temp = explore.temperature
        self.learning_rate = tom.learning_rate
        self.tom_enabled = tom.tom_enabled
        self.guilt = agent.guilt
        self.alpha = agent.alpha
        self.gamma = agent.gamma
        self.softmax = explore.kind == "softmax"
        self.epsilon = explore.epsilon
        # only the softmax temperature decays; x * 1.0 == x exactly
        self.decay = explore.temperature_decay if self.softmax else 1.0
        self._agent = agent

    def p_cooperate(self) -> float:
        """P(C) under the exploration rule (see Exploration)."""
        gap = self.v_c - self.v_u
        if self.softmax:
            return _logistic(gap / self.temp)
        greedy_c = 1.0 if gap >= 0 else 0.0
        return (1.0 - self.epsilon) * greedy_c + self.epsilon / 2.0

    def act(self, u: float) -> PolicyLabel:
        """The action for a uniform draw u in [0, 1)."""
        return C if u < self.p_cooperate() else U

    def td1(self, taken: PolicyLabel, shaped_reward: float, matrix: PayoffMatrix) -> None:
        """V(taken) += alpha * (shaped + gamma * lookahead - V(taken)).

        The lookahead is the best material payoff under the zero-order
        belief about the opponent's action; beliefs must already reflect
        this iteration's observations when this runs.
        """
        target = shaped_reward + self.gamma * max(matrix.expected_payoffs(self.b0))
        if taken is C:
            self.v_c += self.alpha * (target - self.v_c)
        else:
            self.v_u += self.alpha * (target - self.v_u)

    def decay_temperature(self) -> None:
        self.temp *= self.decay

    def learn(
        self, own: PolicyLabel, other: PolicyLabel, matrix: PayoffMatrix
    ) -> tuple[float, float, float]:
        """Beliefs, then shaping, then TD(1), then decay; returns (phi, psychological, shaped)."""
        self.b0, self.b1, self.conf = belief_step(
            self.b0, self.b1, self.conf, self.learning_rate, self.tom_enabled, other, own, matrix
        )
        phi = phi_from_beliefs(self.b0, self.b1, matrix)
        guilt = self.guilt
        psychological = guilt_reward(guilt, phi, matrix.payoff(other, own)) if guilt else 0.0
        shaped = shape_reward(matrix.payoff(own, other), psychological)
        self.td1(own, shaped, matrix)
        self.decay_temperature()
        return phi, psychological, shaped

    def state(self) -> MatrixAgentState:
        agent = self._agent
        return replace(
            agent,
            values={C: self.v_c, U: self.v_u},
            tom=replace(
                agent.tom,
                zero_order=Belief(self.b0),
                first_order=Belief(self.b1),
                confidence=self.conf,
            ),
            explore=replace(agent.explore, temperature=self.temp),
        )


class PavlovLearner:
    """PavlovState on plain ints, updated in place."""

    __slots__ = ("i_count", "n")

    def __init__(self, state: PavlovState):
        self.i_count = state.i_count
        self.n = state.n

    def act(self, u: float) -> PolicyLabel:
        return C if u < self.i_count / self.n else U

    def learn(self, own: PolicyLabel, other: PolicyLabel, matrix: PayoffMatrix):
        """Unit step up on matched behaviours, unit step down otherwise, clamped."""
        if own is other:
            self.i_count = min(self.i_count + 1, self.n)
        else:
            self.i_count = max(self.i_count - 1, 0)
        return _NO_RECORD

    def state(self) -> PavlovState:
        return PavlovState(self.i_count, self.n)


Learner = Union[MatrixLearner, PavlovLearner]


def learner_for(player: MatrixPlayer) -> Learner:
    if isinstance(player, PavlovState):
        return PavlovLearner(player)
    return MatrixLearner(player)


def play_learners(first: Learner, second: Learner, matrix: PayoffMatrix, u0: float, u1: float):
    """One simultaneous round, updating both learners in place.

    u0 and u1 are the two players' uniform draws, first player's first;
    each learner sees only the revealed labels. Returns (first's action,
    second's action, first's (phi, psychological, shaped), second's), with
    None entries for Pavlov.
    """
    a0 = first.act(u0)
    a1 = second.act(u1)
    return a0, a1, first.learn(a0, a1, matrix), second.learn(a1, a0, matrix)


def cooperation_probability(agent: MatrixAgentState) -> float:
    """The agent's current probability of playing C under its exploration rule."""
    return MatrixLearner(agent).p_cooperate()


def td1_update(
    agent: MatrixAgentState,
    taken: PolicyLabel,
    shaped_reward: float,
    matrix: PayoffMatrix,
) -> MatrixAgentState:
    """MatrixLearner.td1 on a frozen agent."""
    learner = MatrixLearner(agent)
    learner.td1(taken, shaped_reward, matrix)
    return learner.state()
