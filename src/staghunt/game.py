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
from dataclasses import dataclass


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


@dataclass(frozen=True, slots=True)
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
        pairs = (("h", self.h, "c", self.c), ("c", self.c, "m", self.m), ("m", self.m, "g", self.g))
        for hi_name, hi, lo_name, lo in pairs:
            if not hi > lo:
                raise ValueError(
                    f"payoff ordering violated: need {hi_name} > {lo_name}, "
                    f"got {hi_name}={hi!r}, {lo_name}={lo!r}"
                )

    def payoff(self, own: PolicyLabel, other: PolicyLabel) -> float:
        """Material reward of the player acting `own` against `other`."""
        if own not in KNOWN_LABELS or other not in KNOWN_LABELS:
            raise ValueError(f"payoff is undefined for Unknown labels: ({own}, {other})")
        if own is C:
            return self.h if other is C else self.g
        return self.c if other is C else self.m

    def expected_payoffs(self, p_other_c: float) -> tuple[float, float]:
        """Expected reward of playing C and of playing U against P(other plays C)."""
        p_other_u = 1.0 - p_other_c
        return (
            p_other_c * self.h + p_other_u * self.g,
            p_other_c * self.c + p_other_u * self.m,
        )

    def payoff_pair(self, row: PolicyLabel, col: PolicyLabel) -> tuple[float, float]:
        """(row player's reward, column player's reward) for a joint outcome."""
        return self.payoff(row, col), self.payoff(col, row)

    def as_dict(self) -> dict[str, float]:
        return {"h": self.h, "c": self.c, "m": self.m, "g": self.g}

