"""Self-tests of the benchmark: python3 -m pytest perfbench"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from tracing import Patcher, Tracer, exact_counts, instrument, layer_metrics, self_times  # noqa: E402


def test_self_time_subtracts_the_union_of_child_intervals():
    # root [0, 10] has children a [1, 4] and b [3, 6], which overlap, and
    # c [9, 12], which runs past the root's end; a has a child [2, 3].
    start = [0.0, 1.0, 3.0, 9.0, 2.0]
    end = [10.0, 4.0, 6.0, 12.0, 3.0]
    parent = [-1, 0, 0, 0, 1]
    assert self_times(start, end, parent).tolist() == pytest.approx([4.0, 2.0, 3.0, 3.0, 1.0])


def test_self_time_of_a_leaf_is_its_duration():
    assert self_times([5.0], [7.5], [-1]).tolist() == [2.5]


CLI_RUNS = [
    ["matrix-selfplay", "--iterations", "20", "--repetitions", "1", "--grid-step", "0.5"],
    ["tournament", "--rounds", "30", "--repetitions", "1", "--sizes", "2", "3"],
    ["gridworld", "--iterations", "20", "--seeds", "1", "--scenario", "near-stag"],
    ["analyze", "--phi-step", "5", "--theta-min", "1", "--theta-max", "3", "--theta-step", "1"],
]


def _namespaces():
    from staghunt import (
        beliefs, cli, equilibrium, experiments, game, gridworld, matrix_agents, policy_learner, shaping,
    )

    modules = (beliefs, cli, equilibrium, experiments, game, gridworld, matrix_agents, policy_learner, shaping)
    return [m.__dict__ for m in modules] + [experiments.RunResult.__dict__]


def test_traced_run_leaves_every_module_attribute_as_it_was(tmp_path):
    from staghunt import cli

    before = [dict(ns) for ns in _namespaces()]
    patcher = Patcher()
    tracer = Tracer()
    instrument(tracer, patcher)
    for k, args in enumerate(CLI_RUNS):
        assert cli.main(["--out", str(tmp_path / str(k)), "--seed", "3", *args]) == 0
    assert patcher.restore() == []
    after = _namespaces()
    for old, new in zip(before, after):
        assert old.keys() == new.keys()
        assert all(new[name] is value for name, value in old.items())
    counts = exact_counts(tracer, tracer.span_stats())
    assert counts["matrix_agents.iteration"] > 0
    assert counts["gridworld.episode"] == 4 * 20  # four variants, one scenario
    assert counts["equilibrium.cells"] == 4 * 3


def test_a_corrupted_csv_counts_as_a_failed_run(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path)
    contents = iter([b"x,y\n1,2\n3,4\n", b"x,y\n1,2\n3,5\n"])

    def fake_child(mode, out_dir, cli_args, deadline):
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "rows.csv").write_bytes(next(contents))
        (out_dir / "manifest.json").write_text("{}")
        return {"python": "3", "numpy": "2", "wall_s": 1.0}

    monkeypatch.setattr(run, "call_child", fake_child)
    wl = run.Workload(("noop",), {"rows.csv": 2}, 2, "row")
    session = run.Session("selftest", wl, 0, run.Deadline(60))
    assert session.run("run", 1, "a") is not None
    assert session.run("run", 1, "b") is None
    assert (session.attempted, session.failed) == (2, 1)


def test_a_csv_with_the_wrong_row_count_is_a_problem(tmp_path):
    (tmp_path / "rows.csv").write_text("x\n1\n")
    wl = run.Workload(("noop",), {"rows.csv": 2}, 2, "row")
    problems = run.output_problems(tmp_path, wl, run.csv_digests(tmp_path), None)
    assert problems == ["rows.csv: 1 data rows, expected 2"]


def test_every_per_layer_metric_in_benchmark_json_is_reported_with_its_unit():
    declared = {m["name"]: m["unit"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    tracer = Tracer()
    stats = tracer.span_stats()
    reported = {*layer_metrics(tracer, stats, exact_counts(tracer, stats)), *run.RUN_LEVEL}
    assert reported == declared.keys()
    assert {name: run.layer_unit(name) for name in reported} == declared


def test_the_host_probe_gives_back_the_cpus_the_runs_inherit():
    before = os.sched_getaffinity(0)
    assert run.host_probe() > 0
    assert os.sched_getaffinity(0) == before
