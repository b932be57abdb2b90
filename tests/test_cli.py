import csv
import json

import pytest

from staghunt.cli import main


def read_csv(path):
    with open(path) as fh:
        return list(csv.reader(fh))


def test_analyze_writes_csv_and_manifest(tmp_path):
    out = tmp_path / "an"
    rc = main([
        "--out", str(out), "analyze",
        "--phi-step", "5", "--theta-min", "1", "--theta-max", "6", "--theta-step", "1",
    ])
    assert rc == 0
    rows = read_csv(out / "analyze.csv")
    assert rows[0] == ["phi", "theta", "n_pure_ne", "unique_cc", "threshold_theta"]
    assert len(rows) == 1 + 4 * 6
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "analyze"
    assert manifest["base_seed"] == 0
    assert "config_hash" in manifest and "package_version" in manifest


def test_matrix_selfplay_subcommand(tmp_path):
    out = tmp_path / "sw"
    rc = main([
        "--out", str(out), "--seed", "3", "matrix-selfplay",
        "--grid-step", "0.5", "--iterations", "20", "--repetitions", "2",
        "--trace-cell", "0.5", "0.5",
    ])
    assert rc == 0
    rows = read_csv(out / "sweep.csv")
    assert rows[0][:4] == ["variant", "p_init_0", "p_init_1", "repetition"]
    assert len(rows) == 1 + 2 * 9 * 2  # two variants, 3x3 grid, 2 reps
    trace = read_csv(out / "trace.csv")
    assert trace[0][0] == "iteration"
    assert len(trace) == 1 + 20
    assert (out / "sweep_cells.csv").exists()


def test_tournament_subcommand(tmp_path):
    out = tmp_path / "tn"
    rc = main([
        "--out", str(out), "tournament",
        "--sizes", "2", "--rounds", "30", "--repetitions", "1",
        "--compositions", "pavlov", "heterogeneous",
    ])
    assert rc == 0
    rows = read_csv(out / "tournament.csv")
    assert rows[0] == ["composition", "group_size", "repetition", "mean_common_reward"]
    assert len(rows) == 3


def test_gridworld_subcommand(tmp_path):
    out = tmp_path / "gw"
    rc = main([
        "--out", str(out), "gridworld",
        "--scenario", "near-stag", "--agent", "individual", "tomaga",
        "--seeds", "1", "--iterations", "5",
    ])
    assert rc == 0
    rows = read_csv(out / "gridworld.csv")
    assert rows[0][0] == "scenario"
    assert len(rows) == 3
    assert (out / "gridworld_summary.csv").exists()


def test_config_file_overrides_defaults(tmp_path):
    config = {
        "payoff": {"h": 5, "c": 4, "m": 2, "g": 1},
        "agent": {"theta": 10.0},
        "sweep": {"probabilities": [0.0, 1.0], "iterations": 15, "repetitions": 1},
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    out = tmp_path / "out"
    rc = main(["--config", str(config_path), "--out", str(out), "matrix-selfplay"])
    assert rc == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["spec"]["matrix"] == {"h": 5, "c": 4, "m": 2, "g": 1}
    assert manifest["spec"]["agent_params"]["theta"] == 10.0
    assert manifest["spec"]["iterations"] == 15


def test_unknown_config_keys_are_rejected(tmp_path):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"sweep": {"iterationz": 10}}))
    with pytest.raises(ValueError, match="iterationz"):
        main(["--config", str(config_path), "--out", str(tmp_path / "o"), "matrix-selfplay"])


def test_gridworld_detail_flag_writes_iteration_and_episode_logs(tmp_path):
    out = tmp_path / "gwd"
    rc = main([
        "--out", str(out), "gridworld",
        "--scenario", "near-stag", "--agent", "tomaga",
        "--seeds", "1", "--iterations", "4",
        "--detail", "near-stag", "tomaga", "0",
    ])
    assert rc == 0
    detail = read_csv(out / "gridworld_detail.csv")
    assert detail[0][0] == "iteration"
    assert len(detail) == 1 + 4
    episodes = read_csv(out / "gridworld_episodes.csv")
    assert episodes[0][:3] == ["iteration", "step", "agent0_x"]
    assert len(episodes) > 1


def _sweep_args(out, *extra):
    return ["--out", str(out), "--seed", "3", "matrix-selfplay", "--grid-step", "0.5",
            "--repetitions", "2", *extra]


def test_config_hash_follows_the_resolved_spec(tmp_path):
    hashes = []
    for iterations in ("20", "30", "20"):
        out = tmp_path / iterations
        assert main(_sweep_args(out, "--iterations", iterations)) == 0
        hashes.append(json.loads((out / "manifest.json").read_text())["config_hash"])
    assert hashes[0] != hashes[1]
    assert hashes[0] == hashes[2]


def test_analyze_config_hash_follows_its_grids(tmp_path):
    hashes = []
    for theta_max in ("3", "4"):
        out = tmp_path / theta_max
        assert main(["--out", str(out), "analyze", "--phi-step", "5", "--theta-min", "1",
                     "--theta-max", theta_max, "--theta-step", "1"]) == 0
        hashes.append(json.loads((out / "manifest.json").read_text())["config_hash"])
    assert hashes[0] != hashes[1]


def test_trace_cell_replays_the_sweep_row(tmp_path):
    import dataclasses

    from staghunt import C, U
    from staghunt.experiments import AgentParams, SweepSpec, make_matrix_agent
    from staghunt.matrix_agents import cooperation_probability

    out = tmp_path / "tr"
    iterations = 60
    assert main(_sweep_args(out, "--iterations", str(iterations), "--trace-cell", "0.5", "0.5")) == 0
    rows = read_csv(out / "sweep.csv")
    # at seed 3 this cell's repetition 0 ends near P(C) = 0, which a match
    # drawn from any other stream (e.g. default_rng(3)) does not
    row = next(r for r in rows[1:] if r[:4] == ["tomaga", "0.5", "0.5", "0"])
    trace = read_csv(out / "trace.csv")[1:]
    assert len(trace) == iterations

    window = trace[-SweepSpec().measure_window :]
    assert float(row[5]) == sum(1 for r in window if r[1] == "C") / len(window)

    params = AgentParams()
    temperature = params.temperature
    for _ in range(iterations):
        temperature *= params.temperature_decay
    agent = make_matrix_agent("tomaga", params)
    agent = dataclasses.replace(
        agent,
        values={C: float(trace[-1][15]), U: float(trace[-1][16])},
        explore=dataclasses.replace(agent.explore, temperature=temperature),
    )
    assert float(row[4]) == cooperation_probability(agent)


def test_trace_cell_off_the_grid_is_rejected(tmp_path):
    with pytest.raises(ValueError, match="not on the sweep grid"):
        main(_sweep_args(tmp_path / "o", "--iterations", "10", "--trace-cell", "0.25", "0.5"))


COMMANDS = {
    "analyze": ["analyze", "--phi-step", "5", "--theta-min", "1", "--theta-max", "6",
                "--theta-step", "1"],
    "matrix-selfplay": ["matrix-selfplay", "--grid-step", "0.5", "--iterations", "10",
                        "--repetitions", "1"],
    "tournament": ["tournament", "--sizes", "2", "--rounds", "10", "--repetitions", "1",
                   "--compositions", "pavlov"],
    "gridworld": ["gridworld", "--scenario", "near-stag", "--agent", "individual",
                  "--seeds", "2", "--iterations", "3"],
}
UNITS = {"analyze": 4 * 6, "matrix-selfplay": 2 * 9, "tournament": 1, "gridworld": 2}


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_manifest_records_run_telemetry_outside_the_hash(tmp_path, command):
    import platform

    import numpy as np

    from staghunt.config import config_hash

    manifests = []
    for jobs in ("1", "2"):
        out = tmp_path / jobs
        assert main(["--out", str(out), "--jobs", jobs, *COMMANDS[command]]) == 0
        manifests.append(json.loads((out / "manifest.json").read_text()))
    for jobs, manifest in zip((1, 2), manifests):
        telemetry = manifest["telemetry"]
        assert telemetry["jobs"] == jobs
        assert telemetry["python_version"] == platform.python_version()
        assert telemetry["numpy_version"] == np.__version__
        assert telemetry["units"] == UNITS[command]
        assert telemetry["experiment_wall_s"] > 0
        assert telemetry["units_per_s"] == pytest.approx(
            telemetry["units"] / telemetry["experiment_wall_s"]
        )
        # the hash covers the resolved spec only
        fixed = ("command", "config_hash", "base_seed", "package_version", "created_utc",
                 "telemetry")
        resolved = {k: v for k, v in manifest.items() if k not in fixed}
        assert manifest["config_hash"] == config_hash(resolved)
    assert manifests[0]["config_hash"] == manifests[1]["config_hash"]
