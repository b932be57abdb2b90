"""First-order Theory-of-Mind belief state and its update pipeline.

An agent tracks a zero-order belief (will the other act cooperatively?),
a first-order belief (what does the other think *I* will do?), and a
confidence in its own predictions. After each iteration it runs, in order:

    1. predict the other's label from the first-order belief,
    2. update confidence from the prediction's correctness,
    3. blend the zero-order belief with the prediction (belief integration),
    4. if first-order updates are enabled, pull the first-order belief
       toward the agent's own revealed label.

`belief_step` runs the pipeline on plain floats; `update_beliefs` runs it
on a ToMState and returns a new state, never mutating the old one.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .game import C, KNOWN_LABELS, PayoffMatrix, PolicyLabel


def _clamp01(x: float) -> float:
    # Convex combinations of values in [0, 1] can drift by one ulp.
    return 0.0 if x < 0.0 else (1.0 if x > 1.0 else x)


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


def _blend(old: float, target: float, weight: float) -> float:
    return _clamp01((1.0 - weight) * old + weight * target)


def _predicts_c(first_order: float, matrix: PayoffMatrix) -> bool:
    # the other's greedy label under the first-order belief; ties go to C
    score_c, score_u = matrix.expected_payoffs(first_order)
    return score_c >= score_u


def belief_step(
    zero_order: float,
    first_order: float,
    confidence: float,
    learning_rate: float,
    tom_enabled: bool,
    observed_other: PolicyLabel,
    observed_self: PolicyLabel,
    matrix: PayoffMatrix,
) -> tuple[float, float, float]:
    """One iteration of the belief pipeline on plain floats.

    Predict, then confidence, then integration, then the first-order pull;
    returns the new (zero_order, first_order, confidence). Labels must be C
    or U; the callers that take labels from outside check them.
    """
    predicts_c = _predicts_c(first_order, matrix)
    confidence = _blend(confidence, float((observed_other is C) == predicts_c), learning_rate)
    zero_order = _blend(zero_order, float(predicts_c), confidence)
    if tom_enabled:
        first_order = _blend(first_order, float(observed_self is C), confidence)
    return zero_order, first_order, confidence


def update_beliefs(
    state: ToMState,
    observed_other: PolicyLabel,
    observed_self: PolicyLabel,
    matrix: PayoffMatrix,
) -> ToMState:
    """Run the full per-iteration belief pipeline and return the new state."""
    if observed_other not in KNOWN_LABELS or observed_self not in KNOWN_LABELS:
        raise ValueError("belief updates require both observed labels in {C, U}")
    zero_order, first_order, confidence = belief_step(
        state.zero_order.p_cooperative, state.first_order.p_cooperative, state.confidence,
        state.learning_rate, state.tom_enabled, observed_other, observed_self, matrix,
    )
    return replace(
        state, zero_order=Belief(zero_order), first_order=Belief(first_order), confidence=confidence
    )
