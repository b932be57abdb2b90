"""Differential tests of the engines against digests of the code they replaced.

The matrix digests were recorded with the per-object frozen-dataclass
pipeline (one `dataclasses.replace` chain per agent per iteration). The
plain-float learner must reproduce every byte: the same float operations in
the same order and the same random draws in the same order.

The grid-world digests were recorded with one run per pool task, each run
updating its own two policies per iteration and drawing actions with
`Generator.choice`. The lockstep engine must reproduce them too.
"""

import csv
import hashlib
import io

import numpy as np
import pytest

from engine_helpers import PavlovState, make_matrix_agent, run_match
from staghunt import PayoffMatrix
from staghunt.experiments import (
    COMPOSITIONS,
    MATRIX_VARIANTS,
    TRACE_COLUMNS,
    AgentParams,
    GridworldSpec,
    SweepSpec,
    TournamentSpec,
    run_gridworld_comparison,
    run_gridworld_detail,
    run_sweep,
    run_tournament,
)
from staghunt.gridworld import EPISODE_LOG_COLUMNS

Q1 = PayoffMatrix(40.0, 30.0, 20.0, 0.0)
Q2 = PayoffMatrix(5.0, 4.0, 2.0, 1.0)

SWEEP_SHA256 = "0073600915380ad095a19446b0c98fc4af847826ccb45fe09d9e5048b652a295"
TOURNAMENT_SHA256 = "db4ecce253c2fdb2f62ab13f06176e097bdd44577027df9dac1e0b98952ae0b8"
# the match pairs below, recorded on the lane engine whose rule the grid world now shares
TRACE_SHA256 = "6887b42205b2aa2e620c497fdffcc569afd317154f785d6154607e98bcf1d213"
GRIDWORLD_SHA256 = {
    "static": "e8bdb1341663d8d3cf83429b56053836045310efa60cad691958750c32b5cbce",
    "random_walk": "fafe9e4c29a5f390145f24b3e1fcfdc3c7750ed405d77fa15626e56075ffd851",
}
GRIDWORLD_DETAIL_SHA256 = "16afbfc3158d513c4fd0c476aab43dfd4363f05b5171e6b95f9ac57fdf2e8f4a"
GRIDWORLD_EPISODES_SHA256 = "e6259141705215c2949676aef255de1825aca60f6e144cf4cb7b14bae34b4127"


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


def test_match_traces_match_recorded_digest():
    params = AgentParams()
    pairs = [
        (Q1, (make_matrix_agent("tomaga", params, 0.2), make_matrix_agent("tomaga", params, 0.7))),
        (Q1, (make_matrix_agent("ga-no-tom", params, 0.1), make_matrix_agent("ga-no-tom", params, 0.4))),
        (Q1, (make_matrix_agent("individual", params, 0.5), make_matrix_agent("tom-no-guilt", params, 0.9))),
        (Q2, (make_matrix_agent("tomaga", params, 0.3), PavlovState(i_count=6, n=10))),
    ]
    digests = []
    for k, (matrix, agents) in enumerate(pairs):
        trace: list = []
        run_match(agents, matrix, 150, np.random.default_rng(100 + k), trace=trace)
        digests.append(_csv_sha256(TRACE_COLUMNS, trace))
    combined = hashlib.sha256("".join(digests).encode()).hexdigest()
    assert combined == TRACE_SHA256


@pytest.mark.parametrize("stag_motion", ["static", "random_walk"])
def test_gridworld_csv_matches_recorded_digest(stag_motion):
    # both scenarios, all four variants; "random_walk" is the scenario files' own mode
    spec = GridworldSpec(seeds=3, iterations=150, stag_motion=stag_motion)
    result = run_gridworld_comparison(spec, base_seed=2026)
    assert _csv_sha256(result.columns, result.rows) == GRIDWORLD_SHA256[stag_motion]


def test_gridworld_detail_matches_recorded_digest():
    spec = GridworldSpec(seeds=3, iterations=150, stag_motion="random_walk")
    episode_log: list = []
    detail = run_gridworld_detail(spec, "near-stag", "tomaga", 2, base_seed=2026,
                                  episode_log=episode_log)
    assert _csv_sha256(detail.columns, detail.rows) == GRIDWORLD_DETAIL_SHA256
    assert _csv_sha256(("iteration", *EPISODE_LOG_COLUMNS), episode_log) == GRIDWORLD_EPISODES_SHA256
