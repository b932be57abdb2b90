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
from typing import Sequence

import numpy as np

from .beliefs import ToMState, step_beliefs
from .game import ONE, ZERO, PayoffMatrix


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


def guilt_step(b, conf, keep_lr, lr, tom, neg_theta, own_c, other_c, other_reward,
               matrix: PayoffMatrix):
    """One iteration of the belief → phi → guilt rule, lane by lane: step_beliefs on
    b, conf, keep_lr, lr, tom, own_c and other_c (see there), then phi and
    neg_theta * max(0, phi - other_reward), neg_theta = -theta (0.0 with guilt
    off); returns the new (2, n) beliefs and conf, phi and that psychological
    reward. Each float operation is the scalar rule's, in its order, so no
    lane's bits depend on its batch mates."""
    b, conf = step_beliefs(b, conf, keep_lr, lr, tom, own_c, other_c, matrix)
    b0, b1 = b[0], b[1]
    complement = ONE - b
    b0_u, b1_u = complement[0], complement[1]
    h, c, m, g, _ = matrix.arrays()
    # phi_from_beliefs, its operations in its order, on the lanes' numpy operands
    phi = b0 * b1 * h + b0_u * b1 * c + b0 * b1_u * g + b0_u * b1_u * m
    shortfall = phi - other_reward
    return b, conf, phi, neg_theta * np.where(shortfall > ZERO, shortfall, ZERO)


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
