#!/usr/bin/env python3
"""Wall and CPU seconds of an experiment as one block and split in two, over a ladder of sizes.

--experiment picks the experiment, its ladder and its work unit:

    sweep       SweepSpec() at --rungs repetitions, --iterations iterations;
                lane-rounds (2 x matches x iterations), MIN_BLOCK_LANE_ROUNDS
    tournament  TournamentSpec() at --rungs repetitions, --iterations rounds;
                lane-rounds (group sizes x rounds), MIN_TOURNAMENT_BLOCK_LANE_ROUNDS
    gridworld   GridworldSpec() at --rungs seeds, --iterations iterations;
                lane-iterations (runs x iterations), MIN_GRID_BLOCK_LANE_ITERATIONS

Base seed 2026. For each of --pairs pairs, each rung is timed at jobs 1 (one
block, in this process) and at jobs 2 with the experiment's break-even set
to 1 (two blocks, one in this process and one in a forked child, the fork
included), the side that goes first alternating. CPU seconds are this
process's and its waited children's (getrusage). Just before each pair a
probe spins the same loop alone and then in two processes at once (this one
and a forked child): their slower time over the time alone is about 1 when
two processes ran in parallel and about 2 when they shared one CPU. One
untimed two-process spin runs before the first pair.
Prints each rung's work per block (its work over two) and medians, every
pair's probe, and the break-even: the least work per block from which two
blocks won every pair of every larger rung on wall time, over all pairs and,
beside it, over the pairs the probe read as parallel, with straight lines
fitted to each side's seconds. Checks that both sides gave the same rows;
--out writes every run as JSON.

    PYTHONPATH=src python scripts/time_sweep_blocks.py [--experiment sweep] \\
        [--rungs 1 2 4 8 20] [--iterations 500] [--pairs 5] [--out BENCH.json]
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import statistics
import time
from dataclasses import dataclass

import numpy as np

from staghunt import experiments
from staghunt.experiments import GridworldSpec, SweepSpec, TournamentSpec

BASE_SEED = 2026
PROBE_LOOPS = 2_000_000
PARALLEL_BELOW = 1.3  # probe ratio under which two processes count as parallel


@dataclass(frozen=True)
class Experiment:
    run: object  # run(spec, base_seed, jobs) -> RunResult
    spec: object  # spec(rung, iterations)
    rung: str
    constant: str  # the experiments module's break-even for this experiment
    unit: str
    rungs: tuple[int, ...]
    iterations: int


EXPERIMENTS = {
    "sweep": Experiment(
        experiments.run_sweep, lambda r, it: SweepSpec(iterations=it, repetitions=r),
        "repetitions", "MIN_BLOCK_LANE_ROUNDS", "lane-rounds", (1, 2, 4, 8, 20), 500),
    "tournament": Experiment(
        experiments.run_tournament, lambda r, it: TournamentSpec(rounds=it, repetitions=r),
        "repetitions", "MIN_TOURNAMENT_BLOCK_LANE_ROUNDS", "lane-rounds", (1, 2, 4, 10, 20, 50), 200),
    "gridworld": Experiment(
        experiments.run_gridworld_comparison, lambda r, it: GridworldSpec(seeds=r, iterations=it),
        "seeds", "MIN_GRID_BLOCK_LANE_ITERATIONS", "lane-iterations", (1, 2, 4, 8, 16, 32), 300),
}


def _spin(_=None) -> float:
    start = time.perf_counter()
    total = 0
    for i in range(PROBE_LOOPS):
        total += i
    return time.perf_counter() - start


def parallel_ratio() -> float:
    """The slower of two processes spinning at once, over one spinning alone."""
    alone = _spin()
    return max(experiments._pmap(_spin, [0, 1], 2)) / alone


def _cpu_seconds() -> float:
    return sum(r.ru_utime + r.ru_stime for r in map(
        resource.getrusage, (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)))


def timed_run(experiment: Experiment, spec, split: bool) -> tuple[float, float, list, dict]:
    """Wall and CPU seconds of one run, its rows and its deal's inputs."""
    default = getattr(experiments, experiment.constant)
    setattr(experiments, experiment.constant, 1 if split else default)
    try:
        start, cpu = time.perf_counter(), _cpu_seconds()
        result = experiment.run(spec, base_seed=BASE_SEED, jobs=2 if split else 1)
        seconds, cpu = time.perf_counter() - start, _cpu_seconds() - cpu
    finally:
        setattr(experiments, experiment.constant, default)
    if len(result.telemetry["blocks"]) != (2 if split else 1):
        raise SystemExit(f"expected {2 if split else 1} blocks, ran {result.telemetry['blocks']}")
    return seconds, cpu, result.rows, result.telemetry["deal"]


def break_even(per_block: list[float], serial: list[list[float]],
               split: list[list[float]]) -> dict:
    """Where splitting starts to pay on wall time, from each rung's runs of either side."""
    medians = [(statistics.median(a), statistics.median(b)) for a, b in zip(serial, split)]
    median_from = every_pair_from = None
    for k in reversed(range(len(medians))):
        if medians[k][1] >= medians[k][0]:
            break
        median_from = per_block[k]
    for k in reversed(range(len(serial))):
        if any(b >= a for a, b in zip(serial[k], split[k])):
            break
        every_pair_from = per_block[k]
    out = {"split_won_every_pair_from_work_per_block": every_pair_from,
           "split_median_won_every_rung_from_work_per_block": median_from}
    if len(per_block) > 1:
        # seconds = fixed + per unit of work x work per block, least squares over every run
        fits = []
        for runs in (serial, split):
            x = np.repeat(per_block, [len(r) for r in runs])
            fits.append(np.polyfit(x, np.concatenate(runs), 1))
        (per_1, fixed_1), (per_2, fixed_2) = fits
        out["fit"] = {
            "one_block": {"fixed_s": fixed_1, "per_unit_us": per_1 * 1e6},
            "two_blocks": {"fixed_s": fixed_2, "per_unit_us": per_2 * 1e6},
            "lines_meet_at_work_per_block": (
                (fixed_2 - fixed_1) / (per_1 - per_2) if per_1 > per_2 else None
            ),
        }
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--experiment", choices=sorted(EXPERIMENTS), default="sweep")
    parser.add_argument("--rungs", type=int, nargs="+", default=None,
                        help="repetitions (sweep, tournament) or seeds (gridworld)")
    parser.add_argument("--iterations", type=int, default=None,
                        help="iterations (sweep, gridworld) or rounds (tournament)")
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("--out", default=None, help="write every run as JSON here")
    args = parser.parse_args()
    if experiments._cpus() < 2:
        raise SystemExit("this process may run on one CPU only: a run cannot split there")
    experiment = EXPERIMENTS[args.experiment]
    iterations = args.iterations or experiment.iterations
    specs = [experiment.spec(r, iterations) for r in args.rungs or experiment.rungs]

    per_block: list[float] = [0.0] * len(specs)
    sides = {name: [[] for _ in specs] for name in ("serial", "split", "serial_cpu", "split_cpu")}
    probes = []
    experiments._pmap(_spin, [0, 1], 2)  # untimed: no probe pays for a first fork
    for pair in range(args.pairs):
        probes.append(parallel_ratio())
        for k, spec in enumerate(specs):
            order = (False, True) if pair % 2 == 0 else (True, False)
            rows = []
            for is_split in order:
                seconds, cpu, side_rows, deal = timed_run(experiment, spec, is_split)
                side = "split" if is_split else "serial"
                sides[side][k].append(seconds)
                sides[side + "_cpu"][k].append(cpu)
                rows.append(side_rows)
                if is_split:
                    per_block[k] = deal["work_per_block"]
            if rows[0] != rows[1]:
                raise SystemExit(f"rung {k} ({spec}): split rows differ")

    print(f"{experiment.unit + ' a block':>24} {'one block s':>12} {'two blocks s':>13} "
          f"{'ratio':>6} {'one cpu s':>10} {'two cpu s':>10}")
    for k, work in enumerate(per_block):
        one, two, one_cpu, two_cpu = (statistics.median(sides[name][k]) for name in sides)
        print(f"{work:>24,.0f} {one:>12.3f} {two:>13.3f} {two / one:>6.2f} "
              f"{one_cpu:>10.3f} {two_cpu:>10.3f}")
    parallel = [pair for pair, ratio in enumerate(probes) if ratio < PARALLEL_BELOW]
    print("probe ratio per pair: " + " ".join(f"{r:.2f}" for r in probes)
          + f" ({len(parallel)} of {len(probes)} pairs ran two processes in parallel)")
    found = {"all_pairs": break_even(per_block, sides["serial"], sides["split"])}
    if parallel:
        kept = [[[runs[pair] for pair in parallel] for runs in sides[side]]
                for side in ("serial", "split")]
        found["parallel_pairs"] = break_even(per_block, *kept)
    for which, result in found.items():
        print(f"break-even, {which.replace('_', ' ')}: {json.dumps(result)}")
    if args.out:
        report = {
            "experiment": args.experiment,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "cpus": experiments._cpus(),
            "base_seed": BASE_SEED,
            "iterations": iterations,
            "unit": experiment.unit,
            experiment.constant: getattr(experiments, experiment.constant),
            "parallel_below": PARALLEL_BELOW,
            "probe_ratio_per_pair": probes,
            "rungs": [
                {experiment.rung: r, "work_per_block": work,
                 "one_block_s": sides["serial"][k], "two_blocks_s": sides["split"][k],
                 "one_block_cpu_s": sides["serial_cpu"][k],
                 "two_blocks_cpu_s": sides["split_cpu"][k]}
                for k, (r, work) in enumerate(zip(args.rungs or experiment.rungs, per_block))
            ],
            "break_even": found,
        }
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")


if __name__ == "__main__":
    main()
