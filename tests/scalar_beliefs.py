"""The scalar belief rule that `shaping.guilt_step` replaced, kept as the
reference for the differential tests: one learner's belief update, and the
expected payoffs it and the scalar TD(1) lookahead use, on plain floats,
with Python's own comparisons and branches.

Also one learner's belief state as a value (ToMState, holding two Belief
objects; make_tom_state), the tests' input to the array store: its update on
the production pipeline, step_beliefs on one lane (update_beliefs), its phi
(expected_other_value), and a shaping.Beliefs built from states and their
GuiltParams (beliefs_of)."""

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from staghunt.beliefs import step_beliefs
from staghunt.game import C, KNOWN_LABELS, PayoffMatrix, PolicyLabel
from staghunt.shaping import Beliefs, GuiltParams, phi_from_beliefs


def _clamp01(x: float) -> float:
    # Convex combinations of values in [0, 1] can drift by one ulp.
    return 0.0 if x < 0.0 else (1.0 if x > 1.0 else x)


def _blend(old: float, target: float, weight: float) -> float:
    return _clamp01((1.0 - weight) * old + weight * target)


def expected_payoffs(p_other_c: float, matrix: PayoffMatrix) -> tuple[float, float]:
    """Expected reward of playing C and of playing U against P(other plays C)."""
    p_other_u = 1.0 - p_other_c
    return (
        p_other_c * matrix.h + p_other_u * matrix.g,
        p_other_c * matrix.c + p_other_u * matrix.m,
    )


def _predicts_c(first_order: float, matrix: PayoffMatrix) -> bool:
    # the other's greedy label under the first-order belief; ties go to C
    score_c, score_u = expected_payoffs(first_order, matrix)
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
    or U.
    """
    predicts_c = _predicts_c(first_order, matrix)
    confidence = _blend(confidence, float((observed_other is C) == predicts_c), learning_rate)
    zero_order = _blend(zero_order, float(predicts_c), confidence)
    if tom_enabled:
        first_order = _blend(first_order, float(observed_self is C), confidence)
    return zero_order, first_order, confidence


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
    """Run the per-iteration belief pipeline (step_beliefs on one lane); return the new
    state, never mutating the old one."""
    if observed_other not in KNOWN_LABELS or observed_self not in KNOWN_LABELS:
        raise ValueError("belief updates require both observed labels in {C, U}")
    lr = state.learning_rate
    # the beliefs and own_c as one-lane arrays; the scalars broadcast against them
    b, conf = step_beliefs(
        np.array((state.zero_order.p_cooperative, state.first_order.p_cooperative), float)[:, None],
        state.confidence, 1.0 - lr, lr, state.tom_enabled, [observed_self is C],
        observed_other is C, matrix,
    )
    (zero_order,), (first_order,) = b.tolist()
    return ToMState(Belief(zero_order), Belief(first_order), conf.item(), lr, state.tom_enabled)


def expected_other_value(state: ToMState, matrix: PayoffMatrix) -> float:
    """phi for a belief state; see shaping.phi_from_beliefs."""
    return float(phi_from_beliefs(state.zero_order.p_cooperative,
                                  state.first_order.p_cooperative, matrix))


def beliefs_of(states: Sequence[ToMState], guilts: Sequence[GuiltParams | None]) -> Beliefs:
    """A Beliefs of one slot per learner, slot k for states[k] and guilts[k]."""
    return Beliefs(dict(
        b0=[state.zero_order.p_cooperative for state in states],
        b1=[state.first_order.p_cooperative for state in states],
        conf=[state.confidence for state in states],
        lr=[state.learning_rate for state in states],
        tom=[state.tom_enabled for state in states],
        theta=[guilt.theta if guilt else 0.0 for guilt in guilts],
    ))
