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
      pairs. It is built from its columns, one entry per lane, and a
      shaping.Beliefs; experiments.matrix_lanes builds both from a block's
      kinds and the spec's AgentParams.

Beliefs, phi and guilt come from shaping.Beliefs, the store and rule the
grid world uses too. Every rule is elementwise numpy with each lane's float
operations in a fixed order and each branch an np.where, so lockstep play
gives the same bits as one match at a time.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .game import C, ONE, U, ZERO, PayoffMatrix, PolicyLabel
from .shaping import Beliefs


def values_for_cooperation_probability(
    p: float, temperature: float, clamp: float
) -> dict[PolicyLabel, float]:
    """Initial action values whose softmax P(C) equals p at the given temperature.

    p is clamped away from {0, 1} so the log-odds stay finite; the clamp is
    what "never cooperates" means operationally for a softmax policy.
    """
    p = min(max(p, clamp), 1.0 - clamp)
    gap = temperature * math.log(p / (1.0 - p))
    return {C: gap / 2.0, U: -gap / 2.0}


#: MatrixLanes' columns besides the beliefs, each with the dtype it is kept in.
_COLUMNS = dict(
    v_c=float, v_u=float, temp=float, alpha=float, gamma=float, decay=float,
    pavlov=bool, i_count=int, n=int,
)
#: What play() moves besides the beliefs; a lane that sits a round out keeps these.
_LANE_STATE = ("v_c", "v_u", "temp", "i_count")


class MatrixLanes:
    """A block's players as lanes of flat arrays, all moved by one `play` per round.

    State: v_c, v_u (action values), temp (softmax temperature), for Pavlov
    lanes i_count, and beliefs, the lanes' shaping.Beliefs (slot k for lane k).
    Per-lane constants: alpha, gamma, decay (of the temperature, each round),
    pavlov and n. Every rule runs on every lane; a mask picks each lane's own.
    """

    def __init__(self, columns: dict[str, Sequence], beliefs: Beliefs):
        for name, dtype in _COLUMNS.items():
            setattr(self, name, np.array(columns[name], dtype=dtype))
        self.beliefs = beliefs
        self.any_pavlov = bool(self.pavlov.any())

    def p_cooperate(self) -> np.ndarray:
        """Every lane's softmax P(C), a logistic over its value gap at its temperature,
        or i/n for Pavlov."""
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
        n = len(self.v_c)
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
