"""Command-line entry point.

Subcommands mirror the experiment suite:

    staghunt analyze          equilibrium grid sweep -> analyze.csv
    staghunt matrix-selfplay  initial-probability sweep -> sweep.csv, sweep_cells.csv
    staghunt tournament       group tournament -> tournament.csv
    staghunt gridworld        grid-world comparison -> gridworld.csv

Every run writes a manifest.json recording the resolved spec (for analyze,
the matrix and grids), its hash, the base seed and the package version, so
results can be reproduced exactly. Its "telemetry" entry, which is not
hashed, records how the run went: the --jobs asked for, Python and numpy
versions, the experiment's wall seconds, its units and units per second, and
what the experiment counted (the blocks its units were dealt into, each with
its payload count and wall seconds, and the inputs that chose them;
gridworld: episode ends by kind, mean episode length).
"""

from __future__ import annotations

import argparse
import datetime
import json
import math
import platform
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .config import build_spec, config_hash, load_config
from .equilibrium import equilibrium_grid_rows
from .experiments import (
    GRID_VARIANTS,
    TRACE_COLUMNS,
    GridworldSpec,
    RunResult,
    SweepSpec,
    TournamentSpec,
    gridworld_run,
    gridworld_threshold_summary,
    run_gridworld_comparison,
    run_gridworld_detail,
    run_sweep,
    run_sweep_unit,
    run_tournament,
    sweep_cell_means,
    tournament_means,
)
from .game import PayoffMatrix
from .gridworld import EPISODE_LOG_COLUMNS, SCENARIOS

ANALYZE_COLUMNS = ("phi", "theta", "n_pure_ne", "unique_cc", "threshold_theta")


def _timed(run, *args, **kwargs):
    """Call run; return its result and the wall seconds it took."""
    start = time.perf_counter()
    result = run(*args, **kwargs)
    return result, time.perf_counter() - start


def _finish(
    args, command: str, resolved: dict, seconds: float | None, tables: dict, units=None
) -> int:
    """Write each {file name: RunResult} table under args.out in order, then manifest.json.

    resolved is what the run was built from, after config and flags; it is
    hashed. The telemetry describes how this run went and stays out of the
    hash; its units are the rows of the first table, the experiment's own,
    unless given, and write_s is the wall time of writing the tables. The
    experiment took seconds, or, when seconds is None, its rows are computed
    while they are written and write_s is its time too. The first table's
    own telemetry joins it.
    """
    out_dir = Path(args.out)
    start = time.perf_counter()
    for name, table in tables.items():
        table.write_csv(out_dir / name)
    write_s = time.perf_counter() - start
    seconds = write_s if seconds is None else seconds
    first = next(iter(tables))
    units = len(tables[first].rows) if units is None else units
    manifest = {
        "command": command,
        "config_hash": config_hash(resolved),
        "base_seed": args.seed,
        "package_version": __version__,
        "created_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        **resolved,
        "telemetry": {
            "jobs": args.jobs,
            "python_version": platform.python_version(),
            "numpy_version": np.__version__,
            "experiment_wall_s": seconds,
            "units": units,
            "units_per_s": units / seconds,
            "write_s": write_s,
            **tables[first].telemetry,
        },
    }
    with open(out_dir / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, default=str)
    print(f"wrote {units} rows to {out_dir / first}")
    return 0


def _require_positive_step(flag: str, step: float) -> None:
    if not 0 < step < math.inf:
        raise ValueError(f"{flag} must be a finite number > 0, got {step!r}")


def _frange(lo: float, hi: float, step: float) -> list[float]:
    values = []
    k = 1
    v = lo
    while v <= hi + 1e-12:
        values.append(round(v, 10))
        v = lo + k * step
        k += 1
    return values


def _grid(name: str, lo: float, hi: float, step: float) -> list[float]:
    """lo, lo + step, ... up to hi; ValueError naming the flags if that is no point.

    A non-finite bound is rejected first: _frange would never reach an
    infinite hi (nor leave an infinite lo), and NaN gives no point at all.
    """
    for flag, bound in (("min", lo), ("max", hi)):
        if not math.isfinite(bound):
            raise ValueError(f"--{name}-{flag} must be a finite number, got {bound}")
    grid = _frange(lo, hi, step)
    if not grid:
        raise ValueError(f"--{name}-min {lo} is above --{name}-max {hi}: the {name} grid is empty")
    return grid


def _detail_run(spec, scenario: str, variant: str, seed: str) -> tuple[str, str, int]:
    """The (scenario, variant, seed index) of one run of the comparison, or ValueError."""
    run = scenario, variant, int(seed) if seed.isdecimal() else seed
    try:
        gridworld_run(spec, *run)
    except ValueError as error:
        raise ValueError(f"--detail {error}") from None
    return run


def _grid_index(grid: tuple[float, ...], p: float) -> int:
    if p not in grid:
        raise ValueError(f"--trace-cell {p} is not on the sweep grid {list(grid)}")
    return grid.index(p)


def cmd_analyze(args, config: dict) -> int:
    matrix = PayoffMatrix(h=args.h, c=args.c, m=args.m, g=args.g)
    _require_positive_step("--phi-step", args.phi_step)
    _require_positive_step("--theta-step", args.theta_step)
    phi_lo = args.phi_min if args.phi_min is not None else matrix.m + args.phi_step
    phi_hi = args.phi_max if args.phi_max is not None else matrix.h
    phi_grid = _grid("phi", phi_lo, phi_hi, args.phi_step)
    theta_grid = _grid("theta", args.theta_min, args.theta_max, args.theta_step)
    # the cells the scalar route can build: transform_game and GuiltParams reject the rest
    if phi_grid[0] < matrix.g:
        raise ValueError(f"--phi-min {phi_lo} is below g = {matrix.g}: phi must lie in [g, h]")
    if phi_grid[-1] > matrix.h:
        raise ValueError(f"--phi-max {phi_hi} is above h = {matrix.h}: phi must lie in [g, h]")
    if not theta_grid[0] > 0:
        raise ValueError(
            f"--theta-min {args.theta_min} puts theta {theta_grid[0]} on the grid: theta must be > 0"
        )
    # one text block per phi, computed a chunk at a time as analyze.csv is written
    rows = equilibrium_grid_rows(matrix, phi_grid, theta_grid)
    return _finish(args, "analyze", {
        "matrix": matrix.as_dict(),
        "phi_grid": [phi_lo, phi_hi, args.phi_step],
        "theta_grid": [args.theta_min, args.theta_max, args.theta_step],
    }, None, {"analyze.csv": RunResult(ANALYZE_COLUMNS, rows)},
        units=len(phi_grid) * len(theta_grid))


def cmd_matrix_selfplay(args, config: dict) -> int:
    overrides = {
        "iterations": args.iterations,
        "repetitions": args.repetitions,
        "variants": args.variants,
        "agent_overrides": {"theta": args.theta},
    }
    if args.grid_step is not None:
        _require_positive_step("--grid-step", args.grid_step)
        overrides["probabilities"] = _frange(0.0, 1.0, args.grid_step)
    spec = build_spec(SweepSpec, "sweep", config, **overrides)
    if args.trace_cell is not None:
        cell = [_grid_index(spec.probabilities, p) for p in args.trace_cell]

    result, seconds = _timed(run_sweep, spec, base_seed=args.seed, jobs=args.jobs)
    tables = {
        "sweep.csv": result,
        "sweep_cells.csv": RunResult(
            ("variant", "p_init_0", "p_init_1", "mean_final_coop"),
            [(*key, mean) for key, mean in sorted(sweep_cell_means(result).items())],
        ),
    }
    if args.trace_cell is not None:
        # the sweep's own unit: first variant, repetition 0
        trace: list = []
        run_sweep_unit(spec, spec.variants[0], *cell, 0, args.seed, trace=trace)
        tables["trace.csv"] = RunResult(TRACE_COLUMNS, trace)
    return _finish(args, "matrix-selfplay", {"spec": asdict(spec)}, seconds, tables)


def cmd_tournament(args, config: dict) -> int:
    overrides = {
        "rounds": args.rounds,
        "repetitions": args.repetitions,
        "group_sizes": args.sizes,
        "compositions": args.compositions,
        "agent_overrides": {"theta": args.theta},
    }
    spec = build_spec(TournamentSpec, "tournament", config, **overrides)
    result, seconds = _timed(run_tournament, spec, base_seed=args.seed, jobs=args.jobs)
    return _finish(args, "tournament", {"spec": asdict(spec)}, seconds, {
        "tournament.csv": result,
        "tournament_means.csv": RunResult(
            ("composition", "group_size", "mean_common_reward"),
            [(*key, mean) for key, mean in sorted(tournament_means(result).items())],
        ),
    })


def cmd_gridworld(args, config: dict) -> int:
    overrides = {
        "scenarios": args.scenario,
        "variants": args.agent,
        "seeds": args.seeds,
        "iterations": args.iterations,
        "theta": args.theta,
    }
    spec = build_spec(GridworldSpec, "gridworld", config, **overrides)
    detail_run = _detail_run(spec, *args.detail) if args.detail else None
    result, seconds = _timed(run_gridworld_comparison, spec, base_seed=args.seed, jobs=args.jobs)
    summary = gridworld_threshold_summary(result)
    tables = {
        "gridworld.csv": result,
        "gridworld_summary.csv": RunResult(
            ("scenario", "variant", "median_iterations_to_threshold", "n_reached", "n_runs"),
            [
                (*key, s["median_iterations"], s["n_reached"], s["n_runs"])
                for key, s in sorted(summary.items())
            ],
        ),
    }
    if detail_run is not None:
        episode_log: list = []
        tables["gridworld_detail.csv"] = run_gridworld_detail(
            spec, *detail_run, base_seed=args.seed, episode_log=episode_log
        )
        tables["gridworld_episodes.csv"] = RunResult(
            ("iteration", *EPISODE_LOG_COLUMNS), episode_log
        )
    return _finish(args, "gridworld", {"spec": asdict(spec)}, seconds, tables)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="staghunt", description=__doc__)
    parser.add_argument("--config", default=None, help="JSON config file")
    parser.add_argument("--seed", type=int, default=0, help="base seed, >= 0")
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--jobs", type=int, default=1, help="at most this many processes, "
                        "this one included: the units are dealt into up to this many blocks, each "
                        "played in lockstep")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="equilibrium grid analysis")
    p.add_argument("--h", type=float, default=40.0)
    p.add_argument("--c", type=float, default=30.0)
    p.add_argument("--m", type=float, default=20.0)
    p.add_argument("--g", type=float, default=0.0)
    p.add_argument("--phi-min", type=float, default=None, help="default: m + phi-step")
    p.add_argument("--phi-max", type=float, default=None, help="default: h")
    p.add_argument("--phi-step", type=float, default=0.05)
    p.add_argument("--theta-min", type=float, default=0.05)
    p.add_argument("--theta-max", type=float, default=50.0)
    p.add_argument("--theta-step", type=float, default=0.05)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("matrix-selfplay", help="initial-probability self-play sweep")
    p.add_argument("--iterations", type=int, default=None)
    p.add_argument("--repetitions", type=int, default=None)
    p.add_argument("--grid-step", type=float, default=None)
    p.add_argument("--theta", type=float, default=None)
    p.add_argument("--variants", nargs="+", default=None)
    p.add_argument("--trace-cell", nargs=2, type=float, default=None, metavar=("P0", "P1"),
                   help="also write a per-iteration trace of this cell's first-variant, "
                        "repetition-0 match from the sweep (both must be grid points)")
    p.set_defaults(func=cmd_matrix_selfplay)

    p = sub.add_parser("tournament", help="randomly matched group tournament")
    p.add_argument("--sizes", nargs="+", type=int, default=None)
    p.add_argument("--rounds", type=int, default=None)
    p.add_argument("--repetitions", type=int, default=None)
    p.add_argument("--theta", type=float, default=None)
    p.add_argument("--compositions", nargs="+", default=None)
    p.set_defaults(func=cmd_tournament)

    p = sub.add_parser("gridworld", help="grid-world agent comparison")
    p.add_argument("--scenario", nargs="+", default=None, choices=SCENARIOS)
    p.add_argument("--agent", nargs="+", default=None, choices=GRID_VARIANTS)
    p.add_argument("--seeds", type=int, default=None)
    p.add_argument("--iterations", type=int, default=None)
    p.add_argument("--theta", type=float, default=None)
    p.add_argument("--detail", nargs=3, default=None, metavar=("SCENARIO", "VARIANT", "SEED"),
                   help="also log one run per-iteration (beliefs, shaping, labels) "
                        "plus its episode transition logs")
    p.set_defaults(func=cmd_gridworld)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.jobs < 1:
        parser.error(f"argument --jobs: must be >= 1, got {args.jobs}")
    if args.seed < 0:  # numpy seeds only from non-negative integers
        parser.error(f"argument --seed: must be >= 0, got {args.seed}")
    config = load_config(args.config)
    return args.func(args, config)


if __name__ == "__main__":
    raise SystemExit(main())
