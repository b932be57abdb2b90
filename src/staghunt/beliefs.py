"""First-order Theory-of-Mind belief pipeline, on arrays.

An agent tracks a zero-order belief (will the other act cooperatively?),
a first-order belief (what does the other think *I* will do?), and a
confidence in its own predictions. After each iteration it runs, in order:

    1. predict the other's label from the first-order belief,
    2. update confidence from the prediction's correctness,
    3. blend the zero-order belief with the prediction (belief integration),
    4. if first-order updates are enabled, pull the first-order belief
       toward the agent's own revealed label.

Each blend stays in [0, 1]. `step_beliefs` runs the pipeline on arrays, one
element per learner, for `shaping.Beliefs.step`, which holds the state.
"""

from __future__ import annotations

import numpy as np

from .game import ONE, PayoffMatrix


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
