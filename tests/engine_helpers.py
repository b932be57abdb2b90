"""Entries to the lanes engine that only the tests use: one match, one agent's
P(C) and one agent's TD(1) step, each a batch of one on the production kernels."""

import numpy as np

from staghunt.experiments import run_matches
from staghunt.game import C, U, PayoffMatrix, PolicyLabel
from staghunt.matrix_agents import MatrixAgentState, MatrixLanes


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
