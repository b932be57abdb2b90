"""Psychological reward shaping: guilt aversion and the inequity baseline.

The guilt pipeline per terminal outcome:

    beliefs  the belief pipeline of beliefs.py, from the revealed labels
    phi      expected material value the other agent experiences, under the
             agent's (zero-order x first-order) beliefs
    guilt    -theta * max(0, phi - other's realised material reward)
    shaped   material + guilt

`Beliefs.step` runs the first three on arrays, one slot per learner, for
both game forms. Shaping applies to the terminal material reward only;
intermediate steps of multi-step games carry zero material reward.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .beliefs import step_beliefs
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
    """Advantageous/disadvantageous inequity sensitivities (finite, >= 0)."""

    theta_advantageous: float
    theta_disadvantageous: float

    def __post_init__(self):
        # an infinite one makes NaN shaping when a gap is 0 (-inf * 0.0)
        for theta in (self.theta_advantageous, self.theta_disadvantageous):
            if not 0 <= theta < math.inf:
                raise ValueError(f"inequity sensitivities must be finite and >= 0, got {theta}")


def phi_from_beliefs(zero_order, first_order, matrix: PayoffMatrix):
    """Expected material value the other agent experiences (phi), on floats or lanes.

    Bilinear in the two beliefs: sums the other's payoff over joint labels,
    weighting the other's label by the zero-order belief and this agent's
    own label by the first-order belief. Always lands in [g, h].
    """
    h, c, m, g, _ = matrix.arrays()
    zero_u = ONE - zero_order  # the other plays U
    first_u = ONE - first_order  # this agent plays U, as the other sees it
    return (
        zero_order * first_order * h
        + zero_u * first_order * c
        + zero_order * first_u * g
        + zero_u * first_u * m
    )


class Beliefs:
    """Learners' beliefs as arrays, slot k for one learner: its zero- and
    first-order beliefs b[0, k] and b[1, k], confidence conf[k], learning rate
    lr[k] (keep_lr = 1 - lr), tom[k] (first-order updates on) and neg_theta[k]
    (-theta; 0.0 with guilt off), built from columns b0, b1, conf, lr, tom and
    theta (0.0 with guilt off), one entry a slot; other columns are ignored."""

    __slots__ = ("b", "conf", "lr", "keep_lr", "tom", "neg_theta")

    def __init__(self, columns: dict[str, Sequence]):
        # float even where a config gave an int, so that a step's write-back is not truncated
        self.b = np.array((columns["b0"], columns["b1"]), dtype=float)
        self.conf = np.array(columns["conf"], dtype=float)
        self.lr = np.array(columns["lr"], dtype=float)
        self.keep_lr = 1.0 - self.lr
        self.tom = np.array(columns["tom"], dtype=bool)
        # 0.0 - theta, not -theta: a guilt-off slot's is +0.0, so its psychological
        # reward is +0.0 too, never -0.0
        self.neg_theta = ZERO - np.array(columns["theta"], dtype=float)

    def step(self, own_c, other_c, other_reward, matrix: PayoffMatrix, stepping=None):
        """One iteration of the belief → phi → guilt rule, every slot: step_beliefs
        with each slot's labels (own_c, other_c), then phi and
        neg_theta * max(0, phi - other_reward); returns phi and that psychological
        reward. A slot where stepping is False keeps its b and conf, and its phi
        and guilt mean nothing. Each float operation is the scalar rule's, in its
        order, so no slot's bits depend on its batch mates."""
        b, conf = step_beliefs(self.b, self.conf, self.keep_lr, self.lr, self.tom, own_c,
                               other_c, matrix)
        phi = phi_from_beliefs(b[0], b[1], matrix)
        shortfall = phi - other_reward
        if stepping is not None:
            b, conf = np.where(stepping, b, self.b), np.where(stepping, conf, self.conf)
        self.b, self.conf = b, conf
        return phi, self.neg_theta * np.where(shortfall > ZERO, shortfall, ZERO)


def guilt_reward(params: GuiltParams, phi_j: float, actual_other_reward: float) -> float:
    """Psychological reward of feeling guilty; zero when expectations were met."""
    return -params.theta * max(0.0, phi_j - actual_other_reward)


def shape_reward(material: float, psychological: float) -> float:
    return material + psychological


def inequity_reward(params: InequityParams, own_reward: float, other_reward: float) -> float:
    """Fehr-Schmidt shaping against the other agent: penalise both advantageous and
    disadvantageous gaps. Each gap is 0.0 + max(gap, 0.0), so a -0.0 gap counts as +0.0."""
    advantage = 0.0 + max(own_reward - other_reward, 0.0)
    disadvantage = 0.0 + max(other_reward - own_reward, 0.0)
    return -params.theta_advantageous * advantage - params.theta_disadvantageous * disadvantage
