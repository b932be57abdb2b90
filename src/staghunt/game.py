"""Stag Hunt payoff structure, policy labels, and payoff lookup.

Everything else in the package is built on top of the 2x2 symmetric game
with material rewards h > c > m > g:

    h  both cooperate (hunt the stag together)
    c  defector's reward when the other cooperates
    m  both defect (everyone hunts hare)
    g  cooperator's reward when the other defects
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np


class PolicyLabel(enum.Enum):
    """Episode-level classification of an executed policy.

    UNKNOWN only ever comes out of grid-world episode labelling (an agent
    that hunted neither stag nor hare); matrix games use C/U exclusively.
    """

    COOPERATIVE = "C"
    UNCOOPERATIVE = "U"
    UNKNOWN = "unknown"

    def __str__(self) -> str:
        return self.value


C = PolicyLabel.COOPERATIVE
U = PolicyLabel.UNCOOPERATIVE
UNKNOWN = PolicyLabel.UNKNOWN

#: Labels that may appear in a matrix-form outcome.
KNOWN_LABELS = (C, U)


@dataclass(frozen=True)
class PayoffMatrix:
    """Symmetric Stag Hunt material rewards with the ordering h > c > m > g.

    Rewards are real-valued so matrix games (e.g. 40/30/20/0) and the
    grid world's 4.0/3.0/2.0/0.0 share one type.
    """

    h: float
    c: float
    m: float
    g: float

    def __post_init__(self):
        for name, x in (("h", self.h), ("c", self.c), ("m", self.m), ("g", self.g)):
            # an infinite payoff still orders (inf > c), but phi and the TD lookahead
            # then make NaN (0 * inf); a NaN one never orders
            if not -math.inf < x < math.inf:
                raise ValueError(f"payoff {name} must be finite, got {name}={x!r}")
        pairs = (("h", self.h, "c", self.c), ("c", self.c, "m", self.m), ("m", self.m, "g", self.g))
        for hi_name, hi, lo_name, lo in pairs:
            if not hi > lo:
                raise ValueError(
                    f"payoff ordering violated: need {hi_name} > {lo_name}, "
                    f"got {hi_name}={hi!r}, {lo_name}={lo!r}"
                )
        # an attribute, not a field: ==, hash, asdict and the config keys see h, c, m, g only
        floats = [_constant(float(x)) for x in (self.h, self.c, self.m, self.g)]
        object.__setattr__(self, "_arrays", (*floats, _constant([self.m, self.c, self.g, self.h])))

    def __reduce__(self):
        # pickled as its four payoffs; unpickling builds the arrays anew
        return PayoffMatrix, (self.h, self.c, self.m, self.g)

    def payoff(self, own: PolicyLabel, other: PolicyLabel) -> float:
        """Material reward of the player acting `own` against `other`."""
        if own not in KNOWN_LABELS or other not in KNOWN_LABELS:
            raise ValueError(f"payoff is undefined for Unknown labels: ({own}, {other})")
        if own is C:
            return self.h if other is C else self.g
        return self.c if other is C else self.m

    def expected_payoffs(self, p_other_c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Expected reward of playing C and of playing U against P(other plays C), per lane."""
        h, c, m, g, _ = self.arrays()
        p_other_u = ONE - p_other_c
        return p_other_c * h + p_other_u * g, p_other_c * c + p_other_u * m

    def arrays(self) -> tuple[np.ndarray, ...]:
        """h, c, m, g as read-only 0-d float64 arrays and table[2 * own_c + other_c],
        the reward of playing C (own_c) or not against C (other_c) or not in the
        payoffs' own dtype (int payoffs give ints, -0.0 keeps its sign): the lane
        rules' operands, built once per matrix."""
        return self._arrays

    def payoff_pair(self, row: PolicyLabel, col: PolicyLabel) -> tuple[float, float]:
        """(row player's reward, column player's reward) for a joint outcome."""
        return self.payoff(row, col), self.payoff(col, row)

    def as_dict(self) -> dict[str, float]:
        return {"h": self.h, "c": self.c, "m": self.m, "g": self.g}


def _constant(value) -> np.ndarray:
    array = np.array(value)
    array.flags.writeable = False  # one array, shared by every caller
    return array


#: 0.0 and 1.0 as float64 arrays: a cheaper ufunc operand than a Python float
ZERO, ONE = _constant(0.0), _constant(1.0)

