"""The scalar belief rule that `shaping.guilt_step` replaced, kept as the
reference for the differential tests: one learner's belief update, and the
expected payoffs it and the scalar TD(1) lookahead use, on plain floats,
with Python's own comparisons and branches."""

from staghunt.game import C, PayoffMatrix, PolicyLabel


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
