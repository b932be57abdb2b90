"""Entries to the engines that only the tests use: one match, one agent's P(C)
and one agent's TD(1) step, each a batch of one on the production kernels, and
the clipped surrogate and its gradient over a dict of preference rows, on the
grid-world learner's update kernel."""

from typing import Sequence

import numpy as np

from staghunt.experiments import run_matches
from staghunt.game import C, U, PayoffMatrix, PolicyLabel
from staghunt.matrix_agents import MatrixAgentState, MatrixLanes
from staghunt.policy_learner import ObsKey, _entropy_terms, _gradient, _Items


def run_match(agents, matrix, iterations, rng, trace=None):
    """One match, as run_matches with one pair: final agents and the action history.

    Pass a list as trace to also collect one TRACE_COLUMNS row per iteration.
    """
    traces = None if trace is None else [trace]
    lanes, actions = run_matches([agents], matrix, iterations, [rng], traces)
    history = [(C if a0 else U, C if a1 else U) for a0, a1 in actions.tolist()]
    return (lanes.state(0), lanes.state(1)), history


def cooperation_probability(agent: MatrixAgentState) -> float:
    """The agent's current probability of playing C under its exploration rule."""
    return float(MatrixLanes([agent]).p_cooperate()[0])


def td1_update(
    agent: MatrixAgentState,
    taken: PolicyLabel,
    shaped_reward: float,
    matrix: PayoffMatrix,
) -> MatrixAgentState:
    """MatrixLanes.td1 on a frozen agent."""
    lanes = MatrixLanes([agent])
    lanes.td1(np.array([taken is C]), np.array([shaped_reward], dtype=float), matrix)
    return lanes.state(0)


# One batch item: (observation key, action index, behaviour probability of
# that action when it was taken, advantage).
BatchItem = tuple[ObsKey, int, float, float]


def _gather(preferences: dict[ObsKey, np.ndarray], batch: Sequence[BatchItem], clip_ratio: float):
    """The batch's distinct keys (first appearance first), their rows as the columns
    of an (N_ACTIONS, rows) array, and its items."""
    slots: dict[ObsKey, int] = {}
    rows = [slots.setdefault(key, len(slots)) for key, _, _, _ in batch]
    _, actions, old_p, adv = zip(*batch)
    prefs = np.array([preferences[key] for key in slots]).T
    return list(slots), prefs, _Items.build(rows, list(actions), old_p, adv, clip_ratio)


def surrogate_objective(
    preferences: dict[ObsKey, np.ndarray],
    batch: Sequence[BatchItem],
    clip_ratio: float,
    entropy_weight: float,
) -> float:
    """Clipped surrogate plus entropy bonus, as a pure function of preferences."""
    _, prefs, items = _gather(preferences, batch, clip_ratio)
    probs, ratio = items.probs_and_ratios(prefs)
    clipped = np.clip(ratio, 1.0 - clip_ratio, 1.0 + clip_ratio)
    surrogate = np.minimum(ratio * items.adv, clipped * items.adv)
    neg_entropy, _ = _entropy_terms(probs)
    return float(np.sum(surrogate) - entropy_weight * np.sum(neg_entropy))


def surrogate_gradient(
    preferences: dict[ObsKey, np.ndarray],
    batch: Sequence[BatchItem],
    clip_ratio: float,
    entropy_weight: float,
) -> dict[ObsKey, np.ndarray]:
    """Analytic gradient of surrogate_objective w.r.t. every preference entry:
    policy_learner._gradient, the update's kernel, on the batch."""
    keys, prefs, items = _gather(preferences, batch, clip_ratio)
    return dict(zip(keys, _gradient(prefs, items, entropy_weight).T))
