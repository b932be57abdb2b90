"""Differential test of the matrix engine against digests of the code it replaced.

The digests below were recorded with the per-object frozen-dataclass
pipeline (one `dataclasses.replace` chain per agent per iteration). The
plain-float learner must reproduce every byte: the same float operations in
the same order and the same random draws in the same order.
"""

import csv
import hashlib
import io

import numpy as np

from staghunt import C, U, GuiltParams, PayoffMatrix, make_tom_state
from staghunt.experiments import (
    COMPOSITIONS,
    MATRIX_VARIANTS,
    TRACE_COLUMNS,
    AgentParams,
    SweepSpec,
    TournamentSpec,
    make_matrix_agent,
    run_match,
    run_sweep,
    run_tournament,
)
from staghunt.matrix_agents import Exploration, MatrixAgentState, PavlovState

Q1 = PayoffMatrix(40.0, 30.0, 20.0, 0.0)
Q2 = PayoffMatrix(5.0, 4.0, 2.0, 1.0)

SWEEP_SHA256 = "0073600915380ad095a19446b0c98fc4af847826ccb45fe09d9e5048b652a295"
TOURNAMENT_SHA256 = "db4ecce253c2fdb2f62ab13f06176e097bdd44577027df9dac1e0b98952ae0b8"
TRACE_SHA256 = "786a7206f767403831fd814d640d5fd8c2e11e98ea0259dd174a4e40f6ef93bc"


def _csv_sha256(columns, rows) -> str:
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(columns)
    writer.writerows(rows)
    return hashlib.sha256(buf.getvalue().encode()).hexdigest()


def _file_sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_sweep_csv_matches_recorded_digest(tmp_path):
    # p in {0, 1} exercises the probability clamp; all four variants
    spec = SweepSpec(
        probabilities=(0.0, 0.5, 1.0), iterations=100, repetitions=2,
        variants=MATRIX_VARIANTS, measure_window=20,
    )
    result = run_sweep(spec, base_seed=2026)
    result.write_csv(tmp_path / "sweep.csv")
    assert _file_sha256(tmp_path / "sweep.csv") == SWEEP_SHA256


def test_tournament_csv_matches_recorded_digest(tmp_path):
    # size 3 sits one agent out each round
    spec = TournamentSpec(
        group_sizes=(2, 3, 4), rounds=100, report_window=30, repetitions=2,
        compositions=COMPOSITIONS,
    )
    result = run_tournament(spec, base_seed=2026)
    result.write_csv(tmp_path / "tournament.csv")
    assert _file_sha256(tmp_path / "tournament.csv") == TOURNAMENT_SHA256


def _epsilon_agent(guilt: GuiltParams | None) -> MatrixAgentState:
    return MatrixAgentState(
        values={C: 0.5, U: 1.0},
        tom=make_tom_state(zero_order=0.7, first_order=0.4, confidence=0.3),
        guilt=guilt,
        alpha=0.2,
        gamma=0.8,
        explore=Exploration(kind="epsilon", epsilon=0.25),
    )


def test_match_traces_match_recorded_digest():
    params = AgentParams()
    pairs = [
        (Q1, (make_matrix_agent("tomaga", params, 0.2), make_matrix_agent("tomaga", params, 0.7))),
        (Q1, (make_matrix_agent("ga-no-tom", params, 0.1), make_matrix_agent("ga-no-tom", params, 0.4))),
        (Q1, (make_matrix_agent("individual", params, 0.5), make_matrix_agent("tom-no-guilt", params, 0.9))),
        (Q2, (_epsilon_agent(GuiltParams(3.0)), _epsilon_agent(None))),
        (Q2, (make_matrix_agent("tomaga", params, 0.3), PavlovState(i_count=6, n=10))),
    ]
    digests = []
    for k, (matrix, agents) in enumerate(pairs):
        trace: list = []
        run_match(agents, matrix, 150, np.random.default_rng(100 + k), trace=trace)
        digests.append(_csv_sha256(TRACE_COLUMNS, trace))
    combined = hashlib.sha256("".join(digests).encode()).hexdigest()
    assert combined == TRACE_SHA256
