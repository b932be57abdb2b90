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

Beliefs, phi and guilt come from shaping.Beliefs, the store and rule the
grid world uses too. Every rule is elementwise numpy with each lane's float
operations in a fixed order and each branch an np.where, so lockstep play
gives the same bits as one match at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence, Union

import numpy as np

from .beliefs import ToMState, make_tom_state
from .game import C, ONE, U, ZERO, PayoffMatrix, PolicyLabel
from .shaping import Beliefs, GuiltParams


@dataclass(frozen=True, slots=True)
class Exploration:
    """Softmax action selection: P(C) is a logistic over the value gap at the
    current temperature, which decays geometrically each iteration."""

    temperature: float = 1.0
    temperature_decay: float = 0.995

    def __post_init__(self):
        if not self.temperature > 0:
            raise ValueError("softmax temperature must be > 0")


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


#: A Pavlov lane's value-learner columns and beliefs: no step, lookahead,
#: decay, confidence learning or guilt, so they stay in range; its value rule
#: is thrown away.
_INERT_VALUE_LEARNER = dict(v_c=0.0, v_u=0.0, temp=1.0, alpha=0.0, gamma=0.0, decay=1.0)
_INERT_TOM = make_tom_state(learning_rate=0.0)
_INT_COLUMNS = ("i_count", "n")
#: What play() moves besides the beliefs; a lane that sits a round out keeps these.
_LANE_STATE = ("v_c", "v_u", "temp", "i_count")


def _lane(player: MatrixPlayer) -> dict:
    """A player's lane: every column of MatrixLanes for it."""
    if isinstance(player, PavlovState):
        return {**_INERT_VALUE_LEARNER, "pavlov": True, "i_count": player.i_count, "n": player.n}
    explore = player.explore
    return dict(
        v_c=player.values[C], v_u=player.values[U], temp=explore.temperature,
        alpha=player.alpha, gamma=player.gamma, decay=explore.temperature_decay,
        # an inert Pavlov count, 0 of 1: its rule is thrown away
        pavlov=False, i_count=0, n=1,
    )


class MatrixLanes:
    """A block's players as lanes of flat arrays, all moved by one `play` per round.

    State: v_c, v_u (action values), temp (softmax temperature), for Pavlov
    lanes i_count, and beliefs, the lanes' shaping.Beliefs (slot k for lane k).
    Per-lane constants: alpha, gamma, decay, pavlov and n. Every rule runs on
    every lane; a mask picks each lane's own.
    """

    def __init__(self, players: Sequence[MatrixPlayer]):
        self.players = list(players)
        lanes = [_lane(player) for player in self.players]
        for name in lanes[0]:
            dtype = int if name in _INT_COLUMNS else bool if name == "pavlov" else float
            setattr(self, name, np.array([lane[name] for lane in lanes], dtype=dtype))
        learners = [(_INERT_TOM, None) if isinstance(player, PavlovState)
                    else (player.tom, player.guilt) for player in self.players]
        self.beliefs = Beliefs([tom for tom, _ in learners], [guilt for _, guilt in learners])
        self.any_pavlov = bool(self.pavlov.any())

    def p_cooperate(self) -> np.ndarray:
        """Every lane's softmax P(C) (see Exploration), or i/n for Pavlov."""
        x = (self.v_c - self.v_u) / self.temp
        # the logistic on math.exp, whose rounding is libm's, as the scalar rule's
        e = np.fromiter(map(math.exp, (-np.abs(x)).tolist()), float, len(x))
        d = ONE + e
        p = np.where(x >= ZERO, ONE / d, e / d)
        if self.any_pavlov:
            p = np.where(self.pavlov, self.i_count / self.n, p)
        return p

    def td1(self, own_c: np.ndarray, shaped: np.ndarray, matrix: PayoffMatrix) -> None:
        """V(taken) += alpha * (shaped + gamma * lookahead - V(taken)), every lane.

        The lookahead is the best material payoff under the zero-order
        belief about the opponent's action; beliefs must already reflect
        this iteration's observations when this runs.
        """
        score_c, score_u = matrix.expected_payoffs(self.beliefs.b[0])
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
        playing = None
        if 2 * len(first) < n:
            playing = np.zeros(n, dtype=bool)
            playing[first] = True
            playing[second] = True
        u = np.zeros(n)
        u[first] = u_first
        u[second] = u_second
        c = u < self.p_cooperate()
        opponent = np.arange(n)
        opponent[first] = second
        opponent[second] = first
        other_c = c[opponent]
        before = {name: getattr(self, name) for name in _LANE_STATE} if playing is not None else {}

        *_, table = matrix.arrays()
        reward = table.take(2 * c + other_c)  # PayoffMatrix.payoff, lane by lane
        phi, psychological = self.beliefs.step(c, other_c, reward[opponent], matrix, playing)
        self.td1(c, reward + psychological, matrix)
        self.temp = self.temp * self.decay

        if self.any_pavlov:
            # unit step up on matched behaviours, unit step down otherwise, clamped
            i = self.i_count
            self.i_count = np.where(c == other_c, np.minimum(i + 1, self.n), np.maximum(i - 1, 0))
        for name, old in before.items():
            setattr(self, name, np.where(playing, getattr(self, name), old))
        return c, reward, phi, psychological

    def state(self, k: int) -> MatrixPlayer:
        """Lane k as a frozen state: its player with the lane's current state."""
        player = self.players[k]
        if isinstance(player, PavlovState):
            return PavlovState(int(self.i_count[k]), player.n)
        return replace(
            player,
            values={C: float(self.v_c[k]), U: float(self.v_u[k])},
            tom=self.beliefs.state(k),
            explore=replace(player.explore, temperature=float(self.temp[k])),
        )
