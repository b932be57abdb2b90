"""First-order Theory-of-Mind belief state and its update pipeline.

An agent tracks a zero-order belief (will the other act cooperatively?),
a first-order belief (what does the other think *I* will do?), and a
confidence in its own predictions. After each iteration it runs, in order:

    1. predict the other's label from the first-order belief,
    2. update confidence from the prediction's correctness,
    3. blend the zero-order belief with the prediction (belief integration),
    4. if first-order updates are enabled, pull the first-order belief
       toward the agent's own revealed label.

Each blend is clamped to [0, 1]. `shaping.guilt_step` runs the pipeline on
arrays, one element per learner; `update_beliefs` runs it on a ToMState
and returns a new state, never mutating the old one.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .game import C, KNOWN_LABELS, PayoffMatrix, PolicyLabel
from .shaping import guilt_step


@dataclass(frozen=True, slots=True)
class Belief:
    """Probability mass on the Cooperative label; mass on U is the complement."""

    p_cooperative: float

    def __post_init__(self):
        if not 0.0 <= self.p_cooperative <= 1.0:
            raise ValueError(f"belief probability outside [0, 1]: {self.p_cooperative}")


@dataclass(frozen=True, slots=True)
class ToMState:
    """One agent's belief state.

    tom_enabled=False is the guilt-averse-without-ToM ablation: the
    first-order belief stays frozen at its initial value forever.
    """

    zero_order: Belief
    first_order: Belief
    confidence: float
    learning_rate: float
    tom_enabled: bool = True

    def __post_init__(self):
        if not 0.0 <= self.confidence <= 1.0:
            raise ValueError(f"confidence outside [0, 1]: {self.confidence}")
        if not 0.0 <= self.learning_rate <= 1.0:
            raise ValueError(f"learning rate outside [0, 1]: {self.learning_rate}")


def make_tom_state(
    zero_order: float = 0.5,
    first_order: float = 0.5,
    confidence: float = 0.5,
    learning_rate: float = 0.1,
    tom_enabled: bool = True,
) -> ToMState:
    """Default-initialised belief state; every value is a config knob."""
    return ToMState(
        zero_order=Belief(zero_order),
        first_order=Belief(first_order),
        confidence=confidence,
        learning_rate=learning_rate,
        tom_enabled=tom_enabled,
    )


def update_beliefs(
    state: ToMState,
    observed_other: PolicyLabel,
    observed_self: PolicyLabel,
    matrix: PayoffMatrix,
) -> ToMState:
    """Run the per-iteration belief pipeline (guilt_step on one lane); return the new state."""
    if observed_other not in KNOWN_LABELS or observed_self not in KNOWN_LABELS:
        raise ValueError("belief updates require both observed labels in {C, U}")
    lr = state.learning_rate
    zero_order, first_order, confidence, _, _ = guilt_step(
        state.zero_order.p_cooperative, state.first_order.p_cooperative, state.confidence,
        1.0 - lr, lr, state.tom_enabled, 0.0, observed_self is C, observed_other is C, 0.0, matrix,
    )
    return replace(
        state, zero_order=Belief(float(zero_order)), first_order=Belief(float(first_order)),
        confidence=float(confidence),
    )
