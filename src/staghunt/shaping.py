"""Psychological reward shaping: guilt aversion and the inequity baseline.

The guilt pipeline per terminal outcome:

    beliefs  the belief update of beliefs.py, from the revealed labels
    phi      expected material value the other agent experiences, under the
             agent's (zero-order x first-order) beliefs
    guilt    -theta * max(0, phi - other's realised material reward)
    shaped   material + guilt

`guilt_step` runs the first three on arrays, one element per learner, for
both game forms. Shaping applies to the terminal material reward only;
intermediate steps of multi-step games carry zero material reward.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .game import PayoffMatrix

if TYPE_CHECKING:
    from .beliefs import ToMState


@dataclass(frozen=True, slots=True)
class GuiltParams:
    """Guilt sensitivity theta, finite and > 0."""

    theta: float

    def __post_init__(self):
        # an infinite theta makes NaN guilt when expectations are met (-inf * 0.0)
        if not 0 < self.theta < math.inf:
            raise ValueError(f"guilt sensitivity must be finite and > 0, got {self.theta}")


@dataclass(frozen=True, slots=True)
class InequityParams:
    """Advantageous/disadvantageous inequity sensitivities (finite, >= 0) for N agents."""

    theta_advantageous: float
    theta_disadvantageous: float
    n_agents: int = 2

    def __post_init__(self):
        # an infinite one makes NaN shaping when a gap is 0 (-inf * 0.0)
        for theta in (self.theta_advantageous, self.theta_disadvantageous):
            if not 0 <= theta < math.inf:
                raise ValueError(f"inequity sensitivities must be finite and >= 0, got {theta}")
        if self.n_agents < 2:
            raise ValueError("inequity shaping needs at least 2 agents")


def phi_from_beliefs(zero_order, first_order, matrix: PayoffMatrix):
    """Expected material value the other agent experiences (phi), on floats or lanes.

    Bilinear in the two beliefs: sums the other's payoff over joint labels,
    weighting the other's label by the zero-order belief and this agent's
    own label by the first-order belief. Always lands in [g, h].
    """
    zero_u = 1.0 - zero_order  # the other plays U
    first_u = 1.0 - first_order  # this agent plays U, as the other sees it
    return (
        zero_order * first_order * matrix.h
        + zero_u * first_order * matrix.c
        + zero_order * first_u * matrix.g
        + zero_u * first_u * matrix.m
    )


def _clamp01(x: np.ndarray) -> np.ndarray:
    # convex combinations of values in [0, 1] can drift by one ulp
    return np.where(x < 0.0, 0.0, np.where(x > 1.0, 1.0, x))


def guilt_step(b0, b1, conf, keep_lr, lr, tom, neg_theta, own_c, other_c, other_reward,
               matrix: PayoffMatrix):
    """One iteration of the belief → phi → guilt rule, lane by lane.

    Per lane: beliefs b0 and b1, confidence conf, learning rate lr and
    keep_lr = 1 - lr, tom (first-order updates on), neg_theta = -theta (0.0
    with guilt off), whether it (own_c) and its other (other_c) played C, and
    the other's material reward. Runs the pipeline of beliefs.py, then phi and
    neg_theta * max(0, phi - other_reward); returns the new b0, b1 and conf,
    phi and that psychological reward. Each branch is a where and each float
    operation the scalar rule's, in its order, so no lane's bits depend on
    its batch mates.
    """
    score_c, score_u = matrix.expected_payoffs(b1)
    predicts_c = score_c >= score_u
    conf = _clamp01(keep_lr * conf + lr * (other_c == predicts_c))
    keep = 1.0 - conf
    b0 = _clamp01(keep * b0 + conf * predicts_c)
    b1 = np.where(tom, _clamp01(keep * b1 + conf * own_c), b1)
    phi = phi_from_beliefs(b0, b1, matrix)
    shortfall = phi - other_reward
    return b0, b1, conf, phi, neg_theta * np.where(shortfall > 0.0, shortfall, 0.0)


def expected_other_value(state: ToMState, matrix: PayoffMatrix) -> float:
    """phi for a belief state; see phi_from_beliefs."""
    return phi_from_beliefs(state.zero_order.p_cooperative, state.first_order.p_cooperative, matrix)


def guilt_reward(params: GuiltParams, phi_j: float, actual_other_reward: float) -> float:
    """Psychological reward of feeling guilty; zero when expectations were met."""
    return -params.theta * max(0.0, phi_j - actual_other_reward)


def shape_reward(material: float, psychological: float) -> float:
    return material + psychological


def inequity_reward(
    params: InequityParams, own_reward: float, other_rewards: Sequence[float]
) -> float:
    """Fehr-Schmidt shaping: penalise both advantageous and disadvantageous gaps."""
    if len(other_rewards) == 0:
        raise ValueError("inequity_reward needs at least one other agent's reward")
    n1 = params.n_agents - 1
    advantage = sum(max(own_reward - r, 0.0) for r in other_rewards)
    disadvantage = sum(max(r - own_reward, 0.0) for r in other_rewards)
    return (
        -params.theta_advantageous / n1 * advantage
        - params.theta_disadvantageous / n1 * disadvantage
    )
