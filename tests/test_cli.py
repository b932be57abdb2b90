import csv
import hashlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import staghunt
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


def _run_cli_with_config(tmp_path, config_text: str, argv) -> subprocess.CompletedProcess:
    """The CLI in its own interpreter, on a config file holding config_text."""
    config_path = tmp_path / "config.json"
    config_path.write_text(config_text)
    out = tmp_path / "o"
    paths = (str(Path(staghunt.__file__).resolve().parent.parent), os.environ.get("PYTHONPATH"))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    return subprocess.run(
        [sys.executable, "-m", "staghunt.cli", "--config", str(config_path), "--out", str(out),
         *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )


@pytest.mark.parametrize("argv", [
    ("matrix-selfplay", "--iterations", "5", "--repetitions", "1", "--grid-step", "0.5"),
    ("tournament", "--rounds", "5", "--repetitions", "1", "--sizes", "2"),
])
def test_a_non_finite_payoff_in_a_config_exits_nonzero_without_a_csv(tmp_path, argv):
    """JSON's 1e400 parses to inf; the run must stop on it, not write NaN rows."""
    run = _run_cli_with_config(
        tmp_path, '{"payoff": {"h": 1e400, "c": 30, "m": 20, "g": 0}}', argv
    )
    assert run.returncode != 0
    assert "payoff h must be finite, got h=inf" in run.stderr
    assert not list(tmp_path.rglob("*.csv"))


def test_a_fractional_count_in_a_config_exits_nonzero_without_a_csv(tmp_path):
    """A Pavlov resolution of 2.5 would run with n truncated to 2 while the
    manifest records 2.5; the spec must stop it instead."""
    run = _run_cli_with_config(
        tmp_path, '{"tournament": {"pavlov_n": 2.5}}',
        ("--jobs", "2", "tournament", "--rounds", "5", "--repetitions", "1", "--sizes", "2"),
    )
    assert run.returncode != 0
    assert "TournamentSpec.pavlov_n must be an integer >= 1, got 2.5" in run.stderr
    assert not list(tmp_path.rglob("*.csv"))


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
    from staghunt.experiments import AgentParams, SweepSpec
    from engine_helpers import cooperation_probability, make_matrix_agent

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


def test_a_guilt_off_trace_writes_its_psychological_rewards_as_plus_zero(tmp_path):
    """With guilt off a learner's psychological reward is its +0.0 neg_theta times a
    shortfall of at least +0.0: "0.0" in every row, never "-0.0"."""
    out = tmp_path / "ind"
    assert main(_sweep_args(out, "--iterations", "30", "--variants", "individual",
                            "--trace-cell", "0.5", "1")) == 0
    header, *rows = read_csv(out / "trace.csv")
    columns = [header.index("psy_0"), header.index("psy_1")]
    assert len(rows) == 30
    assert {row[k] for row in rows for k in columns} == {"0.0"}


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
def test_manifest_records_run_telemetry_outside_the_hash(tmp_path, capsys, command):
    import platform

    import numpy as np

    from staghunt.config import config_hash

    manifests = []
    for jobs in ("1", "2"):
        out = tmp_path / jobs
        assert main(["--out", str(out), "--jobs", jobs, *COMMANDS[command]]) == 0
        manifests.append(json.loads((out / "manifest.json").read_text()))
        # a count of cells for analyze too, whose rows are one text block per phi
        assert capsys.readouterr().out.startswith(f"wrote {UNITS[command]} rows to ")
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
        assert telemetry["write_s"] >= 0
        if command != "analyze":  # every unit in one of the blocks of the deal
            blocks = telemetry["blocks"]
            assert sum(block["payloads"] for block in blocks) == UNITS[command]
            assert all(block["wall_s"] > 0 for block in blocks)
            # the split's inputs: every tiny run here falls short of its break-even
            deal = telemetry["deal"]
            assert deal["jobs"] == jobs and deal["cpus"] >= 1
            assert 0 < deal["work_per_block"] < deal["break_even"]
            assert len(blocks) == 1
        if command == "gridworld":  # two runs of 3 episodes
            assert sum(telemetry["episode_ends"].values()) == 2 * 3
            assert telemetry["episode_length_mean"] >= 1
        # the hash covers the resolved spec only
        fixed = ("command", "config_hash", "base_seed", "package_version", "created_utc",
                 "telemetry")
        resolved = {k: v for k, v in manifest.items() if k not in fixed}
        assert manifest["config_hash"] == config_hash(resolved)
    assert manifests[0]["config_hash"] == manifests[1]["config_hash"]



def test_benchmark_size_sweep_runs_as_one_block_at_two_jobs(tmp_path):
    # the perfbench sweep: 72 matches of 500 iterations, 72,000 lane-rounds
    out = tmp_path / "sweep"
    assert main(["--out", str(out), "--jobs", "2", "matrix-selfplay", "--iterations", "500",
                 "--repetitions", "1", "--grid-step", "0.2",
                 "--variants", "tomaga", "ga-no-tom"]) == 0
    telemetry = json.loads((out / "manifest.json").read_text())["telemetry"]
    assert telemetry["jobs"] == 2
    assert [block["payloads"] for block in telemetry["blocks"]] == [72]


def test_benchmark_size_gridworld_runs_as_one_block_at_two_jobs(tmp_path):
    # the perfbench grid world: 8 runs of 300 iterations, 1,200 lane-iterations a block at
    # two blocks, below MIN_GRID_BLOCK_LANE_ITERATIONS
    out = tmp_path / "gridworld"
    assert main(["--out", str(out), "--jobs", "2", "gridworld", "--iterations", "300",
                 "--seeds", "1", "--scenario", "near-stag", "near-hares",
                 "--agent", "individual", "inequity", "ga-no-tom", "tomaga"]) == 0
    telemetry = json.loads((out / "manifest.json").read_text())["telemetry"]
    assert [block["payloads"] for block in telemetry["blocks"]] == [8]
    assert telemetry["deal"]["work_per_block"] == 8 * 300 / min(2, telemetry["deal"]["cpus"])


# --- the spec builder, pinned by the config_hash of each resolved spec ---------------

# a config with a section-level matrix and agent_overrides on top of "payoff"/"agent"
PIN_CONFIG = {
    "payoff": {"h": 6, "c": 5, "m": 3, "g": 1},
    "agent": {"alpha": 0.2, "theta": 50.0},
    "sweep": {
        "matrix": {"h": 50, "c": 35, "m": 20, "g": 5},
        "agent_overrides": {"gamma": 0.8, "theta": 70.0},
        "probabilities": [0.0, 1.0], "iterations": 4, "repetitions": 1,
    },
    "tournament": {
        "matrix": {"h": 7, "c": 6, "m": 2, "g": 0},
        "agent_overrides": {"confidence": 0.3},
        "group_sizes": [2], "rounds": 4, "repetitions": 1, "compositions": ["tomaga"],
    },
}
PAYOFF_ONLY = {"payoff": {"h": 6, "c": 5, "m": 3, "g": 1}, "agent": {"theta": 12.0}}
SWEEP = ("matrix-selfplay", "--iterations", "3", "--repetitions", "1")
TOURNAMENT = ("tournament", "--rounds", "3", "--repetitions", "1")
GRIDWORLD = ("gridworld", "--seeds", "1", "--iterations", "1")
# (a file under configs/, a config dict or None; the command and its flags) and the
# manifest's config_hash, recorded before the three spec builders became one
PINNED_HASHES = {
    "matrix_q1": ("matrix_q1.json", SWEEP,
        "825ef2bd14df9651913284e20aad831f6649d12aeca0e841f2951d1b5c181e49"),
    "tournament_q2": ("tournament_q2.json", TOURNAMENT,
        "6afb2efd062ea40ad287acfe178f167945c3f05073c89b1b76c93c9fcd9b3b1f"),
    "gridworld": ("gridworld.json", GRIDWORLD,
        "2c7b62ac6ea549e0c118f6109ed6aae0b0da165f0c380f82d50b26488a88c3c6"),
    "sweep_defaults": (None, ("matrix-selfplay", "--grid-step", "0.5", "--iterations", "3",
                              "--repetitions", "1"),
        "c3457ba4d6783486de4477679720fb314de587f0baba9fb4046bebf99ff9f01d"),
    "sweep_flags": (None, ("matrix-selfplay", "--theta", "7", "--grid-step", "0.25",
                           "--variants", "individual", "tom-no-guilt",
                           "--iterations", "2", "--repetitions", "1"),
        "9b906ed2c5754c195305545cbfc08dfc30bb84934be923a4f9a899f2bf49af3e"),
    "sweep_payoff_section": (PAYOFF_ONLY, ("matrix-selfplay", "--grid-step", "1",
                                           "--iterations", "2", "--repetitions", "1"),
        "ad668ccac3cb4b4d6afd7af15af9059edee97aac5785b08b982911e65f5a516e"),
    "sweep_matrix_dict": (PIN_CONFIG, ("matrix-selfplay",),
        "037f0929b2a501e12fcb49724cafc2a414a3a26eac633621458abd076a9722e7"),
    "sweep_matrix_dict_theta": (PIN_CONFIG, ("matrix-selfplay", "--theta", "7"),
        "14540f1119d6e26d2b51faed99a01805d4f453a2fe3fd00d36117c0dfd88a664"),
    "tournament_defaults": (None, ("tournament", "--sizes", "2", "--rounds", "3",
                                   "--repetitions", "1", "--compositions", "pavlov"),
        "967fcd8fba56d0cf87228cc63eee6e15a1ada84924842873736a3328de7824a2"),
    "tournament_flags": (None, ("tournament", "--theta", "9", "--sizes", "2", "3",
                                "--compositions", "tom-no-guilt", "heterogeneous",
                                "--rounds", "3", "--repetitions", "1"),
        "0529fd9a1282d82c63defb011fb178e0b0ec409e7d9f16b4663d12bd567f392b"),
    "tournament_payoff_section": (PAYOFF_ONLY, ("tournament", "--sizes", "2", "--rounds", "3",
                                                "--repetitions", "1"),
        "a4ed157d503b8e0e47f71fcfc765124a64d17a331b0f67b8db8a424d084f3e5f"),
    "tournament_matrix_dict": (PIN_CONFIG, ("tournament",),
        "f2e791b05f82da485735fb65b9d267fc487a965128cb5bb6d843e6264c130dce"),
    "tournament_matrix_dict_theta": (PIN_CONFIG, ("tournament", "--theta", "9"),
        "70233806660c5d5baee9eaf72116525da6dca2236a471695f3a63d07d383ccd2"),
    "gridworld_flags": (None, ("gridworld", "--scenario", "near-hares", "--agent", "inequity",
                               "ga-no-tom", "--seeds", "1", "--iterations", "2",
                               "--theta", "3"),
        "b36989cca2bdef0a7b09e9087afd15774edbbcafc573178ff5788088d323a3ac"),
    "gridworld_config_and_flags": ("gridworld.json", ("gridworld", "--scenario", "near-stag",
                                                      "--seeds", "1", "--iterations", "1"),
        "1ad0fd26e9fe41855ce1c02d36235a0f6298978bcd9fbca38c2a885c441d2f31"),
}


def _manifest_hash(tmp_path, config, argv) -> str:
    out = tmp_path / "out"
    args = ["--out", str(out)]
    if isinstance(config, str):
        args += ["--config", str(Path(__file__).parent.parent / "configs" / config)]
    elif config is not None:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        args += ["--config", str(path)]
    assert main([*args, *argv]) == 0
    return json.loads((out / "manifest.json").read_text())["config_hash"]


@pytest.mark.parametrize("case", sorted(PINNED_HASHES))
def test_resolved_spec_hashes_are_pinned(tmp_path, case):
    config, argv, expected = PINNED_HASHES[case]
    assert _manifest_hash(tmp_path, config, argv) == expected


UNKNOWN_KEYS = {
    "sweep": ({"sweep": {"bogus": 1}}, SWEEP, "unknown SweepSpec config keys: ['bogus']"),
    "sweep_agent": ({"agent": {"bogus": 1}}, SWEEP, "unknown AgentParams config keys: ['bogus']"),
    "sweep_agent_overrides": ({"sweep": {"agent_overrides": {"bogus": 1}}}, SWEEP,
                              "unknown AgentParams config keys: ['bogus']"),
    "tournament": ({"tournament": {"bogus": 1}}, TOURNAMENT,
                   "unknown TournamentSpec config keys: ['bogus']"),
    "tournament_agent": ({"agent": {"bogus": 1}}, TOURNAMENT,
                         "unknown AgentParams config keys: ['bogus']"),
    "tournament_agent_overrides": ({"tournament": {"agent_overrides": {"bogus": 1}}}, TOURNAMENT,
                                   "unknown AgentParams config keys: ['bogus']"),
    "gridworld": ({"gridworld": {"bogus": 1}}, GRIDWORLD,
                  "unknown GridworldSpec config keys: ['bogus']"),
    "gridworld_agent_overrides": ({"gridworld": {"agent_overrides": {"theta": 1.0}}}, GRIDWORLD,
                                  "unknown GridworldSpec config keys: ['agent_overrides']"),
    "payoff": ({"payoff": {"h": 6, "c": 5, "m": 3, "g": 1, "hh": 9}}, TOURNAMENT,
               "unknown PayoffMatrix config keys: ['hh']"),
    "payoff_missing": ({"payoff": {"h": 6, "c": 5, "m": 3}}, TOURNAMENT,
                       "missing PayoffMatrix config keys: ['g']"),
    "sweep_matrix": ({"sweep": {"matrix": {"h": 50, "c": 35, "m": 20, "g": 5, "hh": 2}}}, SWEEP,
                     "unknown PayoffMatrix config keys: ['hh']"),
    "tournament_matrix_missing": ({"tournament": {"matrix": {"h": 7, "c": 6}}}, TOURNAMENT,
                                  "missing PayoffMatrix config keys: ['g', 'm']"),
    # a config file, or a section of one, that is not a JSON object
    "config_not_object": ([], SWEEP, "a config file must hold a JSON object, got []"),
    "sweep_not_object": ({"sweep": "x"}, SWEEP, "config section 'sweep' must be an object"),
    "gridworld_not_object": ({"gridworld": None}, GRIDWORLD,
                             "config section 'gridworld' must be an object"),
    "agent_not_object": ({"agent": [1]}, TOURNAMENT, "config section 'agent' must be an object"),
    "agent_overrides_not_object": ({"sweep": {"agent_overrides": [1]}}, SWEEP,
                                   "config section 'sweep.agent_overrides' must be an object"),
    "payoff_not_object": ({"payoff": [1, 2]}, SWEEP, "config section 'payoff' must be an object"),
    "matrix_not_object": ({"tournament": {"matrix": [1, 2]}}, TOURNAMENT,
                          "config section 'tournament.matrix' must be an object"),
    # an empty list is no object either, though it would read as no matrix
    "matrix_empty_list": ({"sweep": {"matrix": []}}, SWEEP,
                          "config section 'sweep.matrix' must be an object, got []"),
}


@pytest.mark.parametrize("case", sorted(UNKNOWN_KEYS))
def test_unknown_keys_are_rejected_in_every_section(tmp_path, case):
    config, argv, message = UNKNOWN_KEYS[case]
    with pytest.raises(ValueError, match=re.escape(message)):
        _manifest_hash(tmp_path, config, argv)
    assert not (tmp_path / "out").exists()


# --- flags that name no work are rejected before any work ---------------------------

DETAIL_COMPARISON = ("gridworld", "--scenario", "near-stag", "--agent", "tomaga",
                     "--seeds", "1", "--iterations", "2")


@pytest.mark.parametrize("detail", [
    ("near-stag", "individual", "0"),  # a variant the comparison does not run
    ("near-hares", "tomaga", "0"),  # a scenario the comparison does not run
    ("near-stag", "tomaga", "1"),  # past --seeds
    ("near-stag", "tomaga", "-1"),
    ("near-stag", "tomaga", "first"),
])
def test_detail_outside_the_comparison_is_rejected_before_any_work(tmp_path, detail):
    out = tmp_path / "o"
    with pytest.raises(ValueError, match="--detail"):
        main(["--out", str(out), *DETAIL_COMPARISON, "--detail", *detail])
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ("gridworld", "--scenario", "near-stag", "near-stag", "--agent", "tomaga", "--seeds", "1",
     "--iterations", "2"),
    ("gridworld", "--scenario", "near-stag", "--agent", "tomaga", "individual", "tomaga",
     "--seeds", "1", "--iterations", "2"),
    ("tournament", "--sizes", "2", "2", "--rounds", "3"),
    ("matrix-selfplay", "--variants", "tomaga", "tomaga", "--iterations", "2"),
])
def test_repeated_axis_values_are_rejected_before_any_work(tmp_path, argv):
    out = tmp_path / "o"
    with pytest.raises(ValueError, match="must not repeat a value"):
        main(["--out", str(out), *argv])
    assert not out.exists()


@pytest.mark.parametrize("flag,value,command", [
    pytest.param("--jobs", "0", "analyze", id="0"),
    pytest.param("--jobs", "-2", "analyze", id="-2"),
    # numpy refuses a negative seed only once the spec is built, and analyze would record it
    *(pytest.param("--seed", "-1", command, id=f"seed-{command}")
      for command in ("analyze", "matrix-selfplay", "tournament", "gridworld")),
])
def test_non_positive_jobs_is_an_argument_error(tmp_path, capsys, flag, value, command):
    """--jobs below 1 and --seed below 0 are argument errors (exit 2), before any work."""
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as exit_info:
        main(["--out", str(out), flag, value, command])
    assert exit_info.value.code == 2
    least = 1 if flag == "--jobs" else 0
    assert f"argument {flag}: must be >= {least}, got {value}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--phi-step", "--theta-step"])
@pytest.mark.parametrize("step", ["0", "-1", "nan", "inf"])
def test_analyze_rejects_non_positive_steps(tmp_path, monkeypatch, flag, step):
    from staghunt import cli

    def never(*_):  # a non-positive step would make the grid loop forever
        raise AssertionError("_frange called with a non-positive step")

    monkeypatch.setattr(cli, "_frange", never)
    with pytest.raises(ValueError, match=flag):
        main(["--out", str(tmp_path / "o"), "analyze", flag, step])
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("bounds", [
    ("--phi-min", "30", "--phi-max", "25"),
    ("--phi-step", "25"),  # the default phi-min, m + phi-step, lies above the default phi-max h
    ("--theta-min", "6", "--theta-max", "5"),
])
def test_analyze_rejects_an_empty_grid_before_any_work(tmp_path, bounds):
    out = tmp_path / "o"
    name = "theta" if "--theta-min" in bounds else "phi"
    with pytest.raises(ValueError, match=f"--{name}-min .* --{name}-max .* grid is empty"):
        main(["--out", str(out), "analyze", *bounds])
    assert not out.exists()


@pytest.mark.parametrize("flag, bound", [
    ("--theta-max", "inf"),
    ("--phi-max", "inf"),
    ("--phi-min", "-inf"),
    ("--theta-min", "-inf"),
    ("--theta-max", "nan"),
    ("--phi-min", "nan"),
])
def test_analyze_rejects_a_non_finite_bound_before_any_work(tmp_path, monkeypatch, flag, bound):
    # an infinite bound used to grow the grid until memory ran out
    from staghunt import cli

    frange = cli._frange

    def finite_only(lo, hi, step):
        assert math.isfinite(lo) and math.isfinite(hi), "_frange called with a non-finite bound"
        return frange(lo, hi, step)

    monkeypatch.setattr(cli, "_frange", finite_only)
    out = tmp_path / "o"
    with pytest.raises(ValueError, match=f"{flag} must be a finite number"):
        main(["--out", str(out), "analyze", f"{flag}={bound}"])
    assert not out.exists()


@pytest.mark.parametrize("bounds, flag", [
    (("--phi-step", "5", "--theta-min", "-2", "--theta-max", "1", "--theta-step", "1"),
     "--theta-min"),
    (("--theta-min", "0", "--theta-max", "1"), "--theta-min"),
    (("--theta-min", "1e-12", "--theta-max", "1"), "--theta-min"),  # the grid rounds it to 0
    (("--phi-min", "-10", "--phi-max", "50"), "--phi-min"),
    (("--phi-max", "50"), "--phi-max"),
    (("--h", "5", "--c", "4", "--m", "2", "--g", "1", "--phi-min", "0.5"), "--phi-min"),
])
def test_analyze_rejects_cells_outside_the_game_before_any_work(tmp_path, monkeypatch, bounds,
                                                                  flag):
    # transform_game rejects phi outside [g, h], and GuiltParams theta <= 0
    from staghunt import cli

    def never(*_):
        raise AssertionError("equilibrium_grid_rows called on a rejected grid")

    monkeypatch.setattr(cli, "equilibrium_grid_rows", never)
    out = tmp_path / "o"
    with pytest.raises(ValueError, match=flag):
        main(["--out", str(out), "analyze", *bounds])
    assert not out.exists()


def test_analyze_accepts_phi_at_g_and_h(tmp_path):
    from staghunt import PayoffMatrix, pure_nash, transform_game

    out = tmp_path / "o"
    assert main(["--out", str(out), "analyze", "--phi-min", "0", "--phi-max", "40",
                 "--phi-step", "20", "--theta-min", "1", "--theta-max", "2",
                 "--theta-step", "1"]) == 0
    rows = read_csv(out / "analyze.csv")[1:]
    assert [(float(r[0]), float(r[1])) for r in rows] == [
        (phi, theta) for phi in (0.0, 20.0, 40.0) for theta in (1.0, 2.0)]
    for phi, theta, n_pure, unique_cc, _ in rows:  # each cell builds on the scalar route
        report = pure_nash(transform_game(PayoffMatrix(40, 30, 20, 0), float(phi), float(phi),
                                          float(theta), float(theta)))
        assert (len(report.pure_equilibria), report.is_unique_cc) == (int(n_pure),
                                                                     unique_cc == "True")


def test_grid_step_grid_stops_at_the_last_point_not_above_one(tmp_path):
    out = tmp_path / "o"
    assert main(["--out", str(out), "matrix-selfplay", "--grid-step", "0.15",
                 "--iterations", "2", "--repetitions", "1", "--variants", "individual"]) == 0
    rows = read_csv(out / "sweep.csv")[1:]
    assert len(rows) == 7 * 7
    assert sorted({float(r[1]) for r in rows}) == [0.0, 0.15, 0.3, 0.45, 0.6, 0.75, 0.9]
    spec = json.loads((out / "manifest.json").read_text())["spec"]
    assert spec["probabilities"] == [0.0, 0.15, 0.3, 0.45, 0.6, 0.75, 0.9]


@pytest.mark.parametrize("step", ["0", "-1", "-0.5"])
def test_matrix_selfplay_rejects_non_positive_grid_step(tmp_path, step):
    out = tmp_path / "o"
    with pytest.raises(ValueError, match="--grid-step"):
        main(["--out", str(out), "matrix-selfplay", "--grid-step", step,
              "--iterations", "2", "--repetitions", "1"])
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ("matrix-selfplay", "--iterations", "2", "--repetitions", "1"),
    ("tournament", "--rounds", "2", "--repetitions", "1"),
    ("gridworld", "--seeds", "1", "--iterations", "1"),
])
def test_an_infinite_theta_is_rejected_before_any_work(tmp_path, argv):
    # it used to make NaN shaping: a nan in sweep.csv, or a crash in the grid-world engine
    out = tmp_path / "o"
    with pytest.raises(ValueError, match=r"\.theta must be finite"):
        main(["--out", str(out), *argv, "--theta", "inf"])
    assert not out.exists()


# --- every file each command writes, pinned before the run pipeline was merged -------

CONFIGS = Path(__file__).parent.parent / "configs"
# case: (argv, the sha256 of each CSV the run writes); manifest.json is written too
PINNED_OUTPUTS = {
    "analyze": (
        ("analyze", "--phi-step", "2.5", "--theta-min", "0.5", "--theta-max", "6",
         "--theta-step", "0.5"),
        {
            "analyze.csv": "f25858edf6a32613c55b074c4cdc4359af6c42e4185266a96dcdc1a83d12ba0c",
        },
    ),
    "analyze_inf_thresholds": (  # 108 rows, 36 of them with phi <= m and so threshold inf
        ("analyze", "--phi-min", "15", "--phi-max", "35", "--phi-step", "2.5", "--theta-min",
         "0.5", "--theta-max", "6", "--theta-step", "0.5"),
        {
            "analyze.csv": "437a4e88902e9f3c56ed88f2fa47fba549da6b0bdf04cfec34f03f17c3ab43fa",
        },
    ),
    "analyze_benchmark_grid": (  # 400 phi x 1,000 theta cells, the perfbench analyze grid
        ("analyze", "--h", "40", "--c", "30", "--m", "20", "--g", "0", "--phi-step", "0.05",
         "--theta-min", "0.05", "--theta-max", "50", "--theta-step", "0.05"),
        {
            "analyze.csv": "c68ab2246c858450d1474d7decaaeedcca46d577927da4236b2a48fdbdbe83d4",
        },
    ),
    "matrix_selfplay_trace": (
        ("--seed", "3", "matrix-selfplay", "--grid-step", "0.5", "--iterations", "20",
         "--repetitions", "2", "--variants", "tomaga", "individual", "--trace-cell", "0.5", "1"),
        {
            "sweep.csv": "4d74b05963d18306c9ffb500f54b30bd0634556dc419407382ef8c9a3e8a5a58",
            "sweep_cells.csv": "7c27cc6df2b13058b197bfb2efb7ea1d3991a811b0d8482de81e968b9cc95470",
            "trace.csv": "29a9dbc988bf676462de36c817d7f3232f66e182a8fb9c4d562dd3f5779b8080",
        },
    ),
    "matrix_selfplay_config": (
        ("--config", str(CONFIGS / "matrix_q1.json"), "--seed", "5", "matrix-selfplay",
         "--iterations", "12", "--repetitions", "1"),
        {
            "sweep.csv": "c4f7f96c4d829d16ff836d54031e8377df7646dc20dc640476089ec221a16693",
            "sweep_cells.csv": "87908c0c2fe24b2308ad64343aaa205eb378505894a23377d9a0d62179157179",
        },
    ),
    "tournament": (
        ("--seed", "11", "tournament", "--sizes", "2", "3", "--rounds", "20",
         "--repetitions", "2", "--compositions", "tomaga", "pavlov", "heterogeneous",
         "tom-no-guilt"),
        {
            "tournament.csv": "f90804e2849f97c2eb5a77e1151f43327ae91bb47e26684220cc0ed4b3192fe6",
            "tournament_means.csv": "8a394a8f45b7067df4638c21492770a31e62597b5cb2878521f4046e5678ab7d",
        },
    ),
}


def _sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


@pytest.mark.parametrize("case", sorted(PINNED_OUTPUTS))
def test_cli_outputs_are_pinned(tmp_path, case):
    argv, digests = PINNED_OUTPUTS[case]
    out = tmp_path / "out"
    assert main(["--out", str(out), *argv]) == 0
    assert sorted(p.name for p in out.iterdir()) == sorted([*digests, "manifest.json"])
    assert {name: _sha256(out / name) for name in digests} == digests


GRIDWORLD_DETAIL = ("--seed", "4", "gridworld", "--scenario", "near-stag", "near-hares",
                    "--agent", "individual", "tomaga", "--seeds", "2", "--iterations", "6",
                    "--detail", "near-stag", "tomaga", "1")


def test_gridworld_detail_outputs_match_the_experiment_functions(tmp_path):
    # numpy's exp/log may differ in the last bit across CPUs, so this pins the
    # shape of each file and checks its bytes against the same run made here
    from staghunt.experiments import (
        GridworldSpec,
        RunResult,
        gridworld_threshold_summary,
        run_gridworld_comparison,
        run_gridworld_detail,
    )
    from staghunt.gridworld import EPISODE_LOG_COLUMNS

    out = tmp_path / "out"
    assert main(["--out", str(out), *GRIDWORLD_DETAIL]) == 0
    written = {p.name: read_csv(p) for p in out.iterdir() if p.suffix == ".csv"}
    assert sorted(p.name for p in out.iterdir()) == [
        "gridworld.csv", "gridworld_detail.csv", "gridworld_episodes.csv",
        "gridworld_summary.csv", "manifest.json",
    ]
    assert written["gridworld.csv"][0][:4] == [
        "scenario", "variant", "seed", "iterations_to_threshold"]
    assert len(written["gridworld.csv"]) == 1 + 2 * 2 * 2
    assert written["gridworld_detail.csv"][0][:3] == ["iteration", "episode_length", "label_0"]
    assert len(written["gridworld_detail.csv"]) == 1 + 6
    assert written["gridworld_episodes.csv"][0][:3] == ["iteration", "step", "agent0_x"]
    assert len(written["gridworld_episodes.csv"]) == 1 + sum(
        int(row[1]) for row in written["gridworld_detail.csv"][1:])
    assert written["gridworld_summary.csv"][0] == [
        "scenario", "variant", "median_iterations_to_threshold", "n_reached", "n_runs"]
    assert len(written["gridworld_summary.csv"]) == 1 + 2 * 2
    assert all(row[4] == "2" for row in written["gridworld_summary.csv"][1:])

    spec = GridworldSpec(scenarios=("near-stag", "near-hares"), variants=("individual", "tomaga"),
                         seeds=2, iterations=6)
    here = tmp_path / "here"
    result = run_gridworld_comparison(spec, base_seed=4)
    result.write_csv(here / "gridworld.csv")
    episode_log: list = []
    run_gridworld_detail(spec, "near-stag", "tomaga", 1, base_seed=4,
                         episode_log=episode_log).write_csv(here / "gridworld_detail.csv")
    RunResult(("iteration", *EPISODE_LOG_COLUMNS), episode_log).write_csv(
        here / "gridworld_episodes.csv")
    summary = gridworld_threshold_summary(result)
    RunResult(
        ("scenario", "variant", "median_iterations_to_threshold", "n_reached", "n_runs"),
        [(scenario, variant, s["median_iterations"], s["n_reached"], s["n_runs"])
         for (scenario, variant), s in sorted(summary.items())],
    ).write_csv(here / "gridworld_summary.csv")
    for name in written:
        assert (out / name).read_bytes() == (here / name).read_bytes(), name
