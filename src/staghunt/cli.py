"""Command-line entry point.

Subcommands mirror the experiment suite:

    staghunt analyze          equilibrium grid sweep -> analyze.csv
    staghunt matrix-selfplay  initial-probability sweep -> sweep.csv, sweep_cells.csv
    staghunt tournament       group tournament -> tournament.csv
    staghunt gridworld        grid-world comparison -> gridworld.csv

Every run writes a manifest.json recording the resolved spec (for analyze,
the matrix and grids), its hash, the base seed and the package version, so
results can be reproduced exactly. Its "telemetry" entry, which is not
hashed, records how the run went: worker count, Python and numpy versions,
the experiment's wall seconds, its units and units per second.
"""

from __future__ import annotations

import argparse
import datetime
import json
import platform
import time
from pathlib import Path

import numpy as np

from . import __version__
from .config import build_spec, config_hash, load_config
from .equilibrium import equilibrium_grid_rows
from .experiments import (
    TRACE_COLUMNS,
    GridworldSpec,
    RunResult,
    SweepSpec,
    TournamentSpec,
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

ANALYZE_COLUMNS = ("phi", "theta", "n_pure_ne", "unique_cc", "threshold_theta")


def _write_manifest(out_dir: Path, command: str, seed: int, resolved: dict, telemetry: dict):
    """resolved is what the run was built from, after config and flags; it is hashed.

    telemetry describes how this run went and stays out of the hash.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = {
        "command": command,
        "config_hash": config_hash(resolved),
        "base_seed": seed,
        "package_version": __version__,
        "created_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        **resolved,
        "telemetry": telemetry,
    }
    with open(out_dir / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, default=str)


def _timed(run, *args, **kwargs):
    """Call run; return its result and the wall seconds it took."""
    start = time.perf_counter()
    result = run(*args, **kwargs)
    return result, time.perf_counter() - start


def _telemetry(jobs: int, seconds: float, units: int) -> dict:
    return {
        "jobs": jobs,
        "python_version": platform.python_version(),
        "numpy_version": np.__version__,
        "experiment_wall_s": seconds,
        "units": units,
        "units_per_s": units / seconds,
    }


def _require_positive_step(flag: str, step: float) -> None:
    if not step > 0:
        raise ValueError(f"{flag} must be > 0, got {step!r}")


def _frange(lo: float, hi: float, step: float) -> list[float]:
    values = []
    k = 1
    v = lo
    while v <= hi + 1e-12:
        values.append(round(v, 10))
        v = lo + k * step
        k += 1
    return values


def _detail_run(spec, scenario: str, variant: str, seed: str) -> tuple[str, str, int]:
    """The (scenario, variant, seed index) of one run of the comparison, or ValueError."""
    if scenario in spec.scenarios and variant in spec.variants and seed.isdecimal():
        if int(seed) < spec.seeds:
            return scenario, variant, int(seed)
    raise ValueError(
        f"--detail {scenario} {variant} {seed} is not a run of this comparison: scenarios "
        f"{list(spec.scenarios)}, variants {list(spec.variants)}, seeds 0 to {spec.seeds - 1}"
    )


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
    phi_grid = _frange(phi_lo, phi_hi, args.phi_step)
    theta_grid = _frange(args.theta_min, args.theta_max, args.theta_step)
    out_dir = Path(args.out)
    rows, seconds = _timed(lambda: list(equilibrium_grid_rows(matrix, phi_grid, theta_grid)))
    RunResult(ANALYZE_COLUMNS, rows).write_csv(out_dir / "analyze.csv")
    _write_manifest(out_dir, "analyze", args.seed, {
        "matrix": matrix.as_dict(),
        "phi_grid": [phi_lo, phi_hi, args.phi_step],
        "theta_grid": [args.theta_min, args.theta_max, args.theta_step],
    }, _telemetry(args.jobs, seconds, len(rows)))
    print(f"wrote {len(rows)} rows to {out_dir / 'analyze.csv'}")
    return 0


def cmd_matrix_selfplay(args, config: dict) -> int:
    overrides = {
        "iterations": args.iterations,
        "repetitions": args.repetitions,
        "variants": args.variants,
        "agent_overrides": {"theta": args.theta},
    }
    if args.grid_step is not None:
        _require_positive_step("--grid-step", args.grid_step)
        n = round(1.0 / args.grid_step)
        overrides["probabilities"] = tuple(round(i * args.grid_step, 10) for i in range(n + 1))
    spec = build_spec(SweepSpec, "sweep", config, **overrides)

    if args.trace_cell is not None:
        cell = [_grid_index(spec.probabilities, p) for p in args.trace_cell]

    out_dir = Path(args.out)
    result, seconds = _timed(run_sweep, spec, base_seed=args.seed, jobs=args.jobs)
    result.write_csv(out_dir / "sweep.csv")
    cells = sweep_cell_means(result)
    cell_rows = [
        (variant, p0, p1, mean)
        for (variant, p0, p1), mean in sorted(cells.items())
    ]
    RunResult(("variant", "p_init_0", "p_init_1", "mean_final_coop"), cell_rows).write_csv(
        out_dir / "sweep_cells.csv"
    )

    if args.trace_cell is not None:
        # the sweep's own unit: first variant, repetition 0
        trace: list = []
        run_sweep_unit(spec, spec.variants[0], *cell, 0, args.seed, trace=trace)
        RunResult(TRACE_COLUMNS, trace).write_csv(out_dir / "trace.csv")

    _write_manifest(out_dir, "matrix-selfplay", args.seed, {"spec": result.meta["spec"]},
                    _telemetry(args.jobs, seconds, len(result.rows)))
    print(f"wrote {len(result.rows)} rows to {out_dir / 'sweep.csv'}")
    return 0


def cmd_tournament(args, config: dict) -> int:
    overrides = {
        "rounds": args.rounds,
        "repetitions": args.repetitions,
        "group_sizes": args.sizes,
        "compositions": args.compositions,
        "agent_overrides": {"theta": args.theta},
    }
    spec = build_spec(TournamentSpec, "tournament", config, **overrides)
    out_dir = Path(args.out)
    result, seconds = _timed(run_tournament, spec, base_seed=args.seed, jobs=args.jobs)
    result.write_csv(out_dir / "tournament.csv")
    means = tournament_means(result)
    RunResult(
        ("composition", "group_size", "mean_common_reward"),
        [(comp, size, mean) for (comp, size), mean in sorted(means.items())],
    ).write_csv(out_dir / "tournament_means.csv")
    _write_manifest(out_dir, "tournament", args.seed, {"spec": result.meta["spec"]},
                    _telemetry(args.jobs, seconds, len(result.rows)))
    print(f"wrote {len(result.rows)} rows to {out_dir / 'tournament.csv'}")
    return 0


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
    out_dir = Path(args.out)
    result, seconds = _timed(run_gridworld_comparison, spec, base_seed=args.seed, jobs=args.jobs)
    result.write_csv(out_dir / "gridworld.csv")

    if detail_run is not None:
        from .gridworld import EPISODE_LOG_COLUMNS

        episode_log: list = []
        detail = run_gridworld_detail(spec, *detail_run, base_seed=args.seed, episode_log=episode_log)
        detail.write_csv(out_dir / "gridworld_detail.csv")
        RunResult(("iteration", *EPISODE_LOG_COLUMNS), episode_log).write_csv(
            out_dir / "gridworld_episodes.csv"
        )
    summary = gridworld_threshold_summary(result)
    RunResult(
        ("scenario", "variant", "median_iterations_to_threshold", "n_reached", "n_runs"),
        [
            (scenario, variant, s["median_iterations"], s["n_reached"], s["n_runs"])
            for (scenario, variant), s in sorted(summary.items())
        ],
    ).write_csv(out_dir / "gridworld_summary.csv")
    _write_manifest(out_dir, "gridworld", args.seed, {"spec": result.meta["spec"]},
                    _telemetry(args.jobs, seconds, len(result.rows)))
    print(f"wrote {len(result.rows)} rows to {out_dir / 'gridworld.csv'}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="staghunt", description=__doc__)
    parser.add_argument("--config", default=None, help="JSON config file")
    parser.add_argument("--seed", type=int, default=0, help="base seed")
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--jobs", type=int, default=1, help="parallel worker processes")
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
    p.add_argument("--scenario", nargs="+", default=None, choices=["near-stag", "near-hares"])
    p.add_argument("--agent", nargs="+", default=None,
                   choices=["individual", "inequity", "ga-no-tom", "tomaga"])
    p.add_argument("--seeds", type=int, default=None)
    p.add_argument("--iterations", type=int, default=None)
    p.add_argument("--theta", type=float, default=None)
    p.add_argument("--detail", nargs=3, default=None, metavar=("SCENARIO", "VARIANT", "SEED"),
                   help="also log one run per-iteration (beliefs, shaping, labels) "
                        "plus its episode transition logs")
    p.set_defaults(func=cmd_gridworld)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    config = load_config(args.config)
    return args.func(args, config)


if __name__ == "__main__":
    raise SystemExit(main())
