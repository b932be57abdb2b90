"""First-order Theory-of-Mind belief state and its update pipeline.

An agent tracks a zero-order belief (will the other act cooperatively?),
a first-order belief (what does the other think *I* will do?), and a
confidence in its own predictions. After each iteration it runs, in order:

    1. predict the other's label from the first-order belief,
    2. update confidence from the prediction's correctness,
    3. blend the zero-order belief with the prediction (belief integration),
    4. if first-order updates are enabled, pull the first-order belief
       toward the agent's own revealed label.

Each blend stays in [0, 1]. `step_beliefs` runs the pipeline on arrays,
one element per learner, for `shaping.Beliefs.step` and for `update_beliefs`,
which runs it on a ToMState and returns a new state, never mutating the old
one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .game import C, KNOWN_LABELS, ONE, PayoffMatrix, PolicyLabel


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


def step_beliefs(b, conf, keep_lr, lr, tom, own_c, other_c, matrix: PayoffMatrix):
    """The pipeline, lane by lane; returns the new b and conf.

    Per lane: beliefs b[0] (zero-order) and b[1] (first-order) of a (2, n)
    array b, confidence conf, learning rate lr and keep_lr = 1 - lr, tom
    (first-order updates on) and whether it (own_c) and its other (other_c)
    played C. Each float operation is the scalar rule's, in its order, so no
    lane's bits depend on its batch mates.
    """
    b1 = b[1]
    score_c, score_u = matrix.expected_payoffs(b1)
    predicts_c = score_c >= score_u  # the other's greedy label; ties go to C
    # No clamp: for w and x in [0, 1] and a target t of 0 or 1, (1 - w) * x + w * t
    # rounds into [0, 1], as fl(1 - w) + w rounds to 1 at most, so the scalar
    # rule's clamp to [0, 1] never moves a value.
    conf = keep_lr * conf + lr * (other_c == predicts_c)
    # both blends at once: b0 toward the prediction, b1 toward the own label
    b = (ONE - conf) * b + conf * np.array((predicts_c, own_c))
    np.putmask(b[1], np.logical_not(tom), b1)
    return b, conf


def update_beliefs(
    state: ToMState,
    observed_other: PolicyLabel,
    observed_self: PolicyLabel,
    matrix: PayoffMatrix,
) -> ToMState:
    """Run the per-iteration belief pipeline (step_beliefs on one lane); return the new state."""
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
