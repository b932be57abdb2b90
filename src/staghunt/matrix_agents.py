"""One-shot (matrix-form) Stag Hunt agents.

Three families live here:

    * value learners (guilt-averse with or without first-order belief
      updates, or purely individual when guilt is off) that pick actions
      from their action values and learn with a TD(1)-style update whose
      bootstrap term is the belief-weighted best material payoff;
    * the Pavlov baseline (generalised Win-Stay-Lose-Shift) that cooperates
      with probability i/n and nudges i on behaviour matches/mismatches;
    * the engine, `MatrixLanes`: every player of a block of matches is one
      slot ("lane") of flat numpy arrays, and `play` moves every lane
      through one round in one pass of numpy calls, for any set of disjoint
      pairs; `state` turns a lane back into a frozen state.

Each rule of the engine is the scalar rule (beliefs.belief_step,
shaping.phi_from_beliefs, shaping.guilt_reward) written as elementwise
numpy, with the same float operations in the same order: a branch becomes
np.where, so lockstep play gives the same bits as one match at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence, Union

import numpy as np

from .beliefs import Belief, ToMState
from .game import C, U, PayoffMatrix, PolicyLabel
from .shaping import GuiltParams


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


def _clamp01(x: np.ndarray) -> np.ndarray:
    # beliefs._clamp01, lane by lane
    return np.where(x < 0.0, 0.0, np.where(x > 1.0, 1.0, x))


def _payoff(own_c: np.ndarray, other_c: np.ndarray, matrix: PayoffMatrix) -> np.ndarray:
    # PayoffMatrix.payoff, lane by lane
    return np.where(
        own_c, np.where(other_c, matrix.h, matrix.g), np.where(other_c, matrix.c, matrix.m)
    )


#: A Pavlov lane's value-learner columns: no belief learning, guilt, step,
#: lookahead or decay, so they stay in range; its value rule is thrown away.
_INERT_VALUE_LEARNER = dict(
    v_c=0.0, v_u=0.0, b0=0.5, b1=0.5, conf=0.5, temp=1.0, keep_lr=1.0, lr=0.0, tom=True,
    neg_theta=0.0, alpha=0.0, gamma=0.0, softmax=True, keep_eps=1.0, half_eps=0.0, decay=1.0,
)
_INT_COLUMNS = ("i_count", "n")
_BOOL_COLUMNS = ("tom", "softmax", "pavlov")
#: What play() moves; a lane that sits a round out keeps these.
_LANE_STATE = ("v_c", "v_u", "b0", "b1", "conf", "temp", "i_count")


def _lane(player: MatrixPlayer) -> dict:
    """A player's lane: every column of MatrixLanes for it."""
    if isinstance(player, PavlovState):
        return {**_INERT_VALUE_LEARNER, "pavlov": True, "i_count": player.i_count, "n": player.n}
    tom, explore = player.tom, player.explore
    softmax = explore.kind == "softmax"
    lr, eps = tom.learning_rate, explore.epsilon
    return dict(
        v_c=player.values[C], v_u=player.values[U], b0=tom.zero_order.p_cooperative,
        b1=tom.first_order.p_cooperative, conf=tom.confidence,
        # an epsilon lane divides by 1.0 in the softmax rule it throws away
        temp=explore.temperature if softmax else 1.0,
        keep_lr=1.0 - lr, lr=lr, tom=tom.tom_enabled,
        # 0.0 with guilt off: 0.0 * max(0, d) is exactly guilt-off's 0.0
        neg_theta=-player.guilt.theta if player.guilt else 0.0,
        alpha=player.alpha, gamma=player.gamma, softmax=softmax, keep_eps=1.0 - eps,
        half_eps=eps / 2.0,
        # only the softmax temperature decays; x * 1.0 == x exactly
        decay=explore.temperature_decay if softmax else 1.0,
        # an inert Pavlov count, 0 of 1: its rule is thrown away
        pavlov=False, i_count=0, n=1,
    )


class MatrixLanes:
    """A block's players as lanes of flat arrays, all moved by one `play` per round.

    State: v_c, v_u (action values), b0, b1, conf (zero- and first-order
    beliefs, confidence), temp (softmax temperature) and, for Pavlov lanes,
    i_count. Per-lane constants: keep_lr = 1 - learning rate, lr, tom,
    neg_theta = -theta (0.0 with guilt off), alpha, gamma, softmax,
    keep_eps = 1 - epsilon, half_eps = epsilon / 2, decay, pavlov and n.
    Every rule runs on every lane; a mask picks each lane's own.
    """

    def __init__(self, players: Sequence[MatrixPlayer]):
        self.players = list(players)
        lanes = [_lane(player) for player in self.players]
        for name in lanes[0]:
            dtype = int if name in _INT_COLUMNS else bool if name in _BOOL_COLUMNS else float
            setattr(self, name, np.array([lane[name] for lane in lanes], dtype=dtype))
        self.all_tom = bool(self.tom.all())
        self.any_epsilon = not self.softmax.all()
        self.any_pavlov = bool(self.pavlov.any())

    def p_cooperate(self) -> np.ndarray:
        """Every lane's P(C) under its exploration rule (see Exploration), or i/n for Pavlov."""
        gap = self.v_c - self.v_u
        x = gap / self.temp
        # the logistic on math.exp, whose rounding is libm's, as the scalar rule's
        e = np.fromiter(map(math.exp, (-np.abs(x)).tolist()), float, len(x))
        p = np.where(x >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e))
        if self.any_epsilon:
            greedy_c = np.where(gap >= 0, 1.0, 0.0)
            p = np.where(self.softmax, p, self.keep_eps * greedy_c + self.half_eps)
        if self.any_pavlov:
            p = np.where(self.pavlov, self.i_count / self.n, p)
        return p

    def td1(self, own_c: np.ndarray, shaped: np.ndarray, matrix: PayoffMatrix) -> None:
        """V(taken) += alpha * (shaped + gamma * lookahead - V(taken)), every lane.

        The lookahead is the best material payoff under the zero-order
        belief about the opponent's action; beliefs must already reflect
        this iteration's observations when this runs.
        """
        b0 = self.b0
        b0_u = 1.0 - b0
        score_c = b0 * matrix.h + b0_u * matrix.g
        score_u = b0 * matrix.c + b0_u * matrix.m
        target = shaped + self.gamma * np.where(score_u > score_c, score_u, score_c)
        taken = np.where(own_c, self.v_c, self.v_u)
        stepped = taken + self.alpha * (target - taken)
        self.v_c = np.where(own_c, stepped, self.v_c)
        self.v_u = np.where(own_c, self.v_u, stepped)

    def play(
        self,
        first: np.ndarray,
        second: np.ndarray,
        u_first: np.ndarray,
        u_second: np.ndarray,
        matrix: PayoffMatrix,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """One simultaneous round of the disjoint pairs (first[k], second[k]).

        u_first[k] and u_second[k] are the two players' uniform draws; each
        player sees only the revealed actions. A lane in no pair sits the
        round out unchanged. Then per lane, in this order: beliefs, phi,
        guilt, shaped reward, TD(1), temperature decay; Pavlov steps its
        count. Returns, over every lane: whether it played C, its material
        reward, phi and the psychological reward (meaningless for Pavlov
        lanes and for lanes that sat out).
        """
        n = len(self.players)
        sitting_out = 2 * len(first) < n
        u = np.zeros(n)
        u[first] = u_first
        u[second] = u_second
        c = u < self.p_cooperate()
        opponent = np.arange(n)
        opponent[first] = second
        opponent[second] = first
        other_c = c[opponent]
        before = {name: getattr(self, name) for name in _LANE_STATE} if sitting_out else {}

        # beliefs (beliefs.belief_step): predict, confidence, integration, first-order pull
        b1_u = 1.0 - self.b1
        predicts_c = self.b1 * matrix.h + b1_u * matrix.g >= self.b1 * matrix.c + b1_u * matrix.m
        conf = _clamp01(self.keep_lr * self.conf + self.lr * (other_c == predicts_c))
        keep = 1.0 - conf
        self.b0 = _clamp01(keep * self.b0 + conf * predicts_c)
        b1 = _clamp01(keep * self.b1 + conf * c)
        self.b1 = b1 if self.all_tom else np.where(self.tom, b1, self.b1)
        self.conf = conf

        # phi (shaping.phi_from_beliefs), guilt (shaping.guilt_reward), shaping
        b0, b1 = self.b0, self.b1
        b0_u, b1_u = 1.0 - b0, 1.0 - b1
        phi = (
            b0 * b1 * matrix.h + b0_u * b1 * matrix.c
            + b0 * b1_u * matrix.g + b0_u * b1_u * matrix.m
        )
        other_reward = _payoff(other_c, c, matrix)
        shortfall = phi - other_reward
        psychological = self.neg_theta * np.where(shortfall > 0.0, shortfall, 0.0)
        reward = _payoff(c, other_c, matrix)
        self.td1(c, reward + psychological, matrix)
        self.temp = self.temp * self.decay

        if self.any_pavlov:
            # unit step up on matched behaviours, unit step down otherwise, clamped
            i = self.i_count
            self.i_count = np.where(c == other_c, np.minimum(i + 1, self.n), np.maximum(i - 1, 0))
        if sitting_out:
            playing = np.zeros(n, dtype=bool)
            playing[first] = True
            playing[second] = True
            for name, old in before.items():
                setattr(self, name, np.where(playing, getattr(self, name), old))
        return c, reward, phi, psychological

    def state(self, k: int) -> MatrixPlayer:
        """Lane k as a frozen state: its player with the lane's current state."""
        player = self.players[k]
        if isinstance(player, PavlovState):
            return PavlovState(int(self.i_count[k]), player.n)
        explore = player.explore
        if explore.kind == "softmax":
            explore = replace(explore, temperature=float(self.temp[k]))
        return replace(
            player,
            values={C: float(self.v_c[k]), U: float(self.v_u[k])},
            tom=replace(
                player.tom,
                zero_order=Belief(float(self.b0[k])),
                first_order=Belief(float(self.b1[k])),
                confidence=float(self.conf[k]),
            ),
            explore=explore,
        )



def cooperation_probability(agent: MatrixAgentState) -> float:
    """The agent's current probability of playing C under its exploration rule."""
    return float(MatrixLanes([agent]).p_cooperate()[0])


def td1_update(
    agent: MatrixAgentState,
    taken: PolicyLabel,
    shaped_reward: float,
    matrix: PayoffMatrix,
) -> MatrixAgentState:
    """MatrixLanes.td1 on a frozen agent."""
    lanes = MatrixLanes([agent])
    lanes.td1(np.array([taken is C]), np.array([shaped_reward], dtype=float), matrix)
    return lanes.state(0)
