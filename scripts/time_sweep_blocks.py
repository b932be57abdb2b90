#!/usr/bin/env python3
"""Wall seconds of run_sweep as one block and split in two, over a ladder of sweep sizes.

Each rung is SweepSpec() at one of --repetitions (11 x 11 cells, two
variants, --iterations iterations; 2 x matches x iterations lane-rounds),
base seed 2026. For each of --pairs pairs, the rung is timed at jobs 1 (one
block, in this process) and at jobs 2 with MIN_BLOCK_LANE_ROUNDS set to 1
(two blocks, one in this process and one in a forked child, the fork
included), the side that goes first alternating. Just before each pair a
probe spins the same loop alone and then in two processes at once (this one
and a forked child): their slower time over the time alone is about 1 when
two processes ran in parallel and about 2 when they shared one CPU. One
untimed two-process spin runs before the first pair.
Prints each rung's medians, every pair's probe, and the crossover: the
least lane-rounds from which the split won every larger rung, and where
straight lines fitted to each side's seconds meet. Checks that both sides
gave the same rows; --out writes every run as JSON.

    PYTHONPATH=src python scripts/time_sweep_blocks.py [--repetitions 1 2 4 8 20] \\
        [--iterations 500] [--pairs 5] [--out BENCH_sweep_blocks.json]
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import time

import numpy as np

from staghunt import experiments
from staghunt.experiments import SweepSpec, run_sweep

BASE_SEED = 2026
PROBE_LOOPS = 2_000_000
PARALLEL_BELOW = 1.3  # probe ratio under which two processes count as parallel
DEFAULT_MIN = experiments.MIN_BLOCK_LANE_ROUNDS


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


def timed_sweep(spec: SweepSpec, split: bool) -> tuple[float, list]:
    experiments.MIN_BLOCK_LANE_ROUNDS = 1 if split else DEFAULT_MIN
    try:
        start = time.perf_counter()
        result = run_sweep(spec, base_seed=BASE_SEED, jobs=2 if split else 1)
        seconds = time.perf_counter() - start
    finally:
        experiments.MIN_BLOCK_LANE_ROUNDS = DEFAULT_MIN
    if len(result.telemetry["blocks"]) != (2 if split else 1):
        raise SystemExit(f"expected {2 if split else 1} blocks, ran {result.telemetry['blocks']}")
    return seconds, result.rows


def crossover(lane_rounds: list[int], serial: list[list[float]], split: list[list[float]]) -> dict:
    """Where splitting starts to pay, from each rung's runs of either side."""
    medians = [(statistics.median(a), statistics.median(b)) for a, b in zip(serial, split)]
    wins_from = None
    for k in reversed(range(len(medians))):
        if medians[k][1] >= medians[k][0]:
            break
        wins_from = lane_rounds[k]
    out = {"split_wins_every_rung_from_lane_rounds": wins_from}
    if len(lane_rounds) > 1:
        # seconds = fixed + per lane-round x lane-rounds, least squares over every run
        fits = []
        for runs in (serial, split):
            x = np.repeat(lane_rounds, [len(r) for r in runs])
            fits.append(np.polyfit(x, np.concatenate(runs), 1))
        (per_1, fixed_1), (per_2, fixed_2) = fits
        out["fit"] = {
            "one_block": {"fixed_s": fixed_1, "per_lane_round_us": per_1 * 1e6},
            "two_blocks": {"fixed_s": fixed_2, "per_lane_round_us": per_2 * 1e6},
            "lines_meet_at_lane_rounds": (
                (fixed_2 - fixed_1) / (per_1 - per_2) if per_1 > per_2 else None
            ),
        }
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repetitions", type=int, nargs="+", default=[1, 2, 4, 8, 20])
    parser.add_argument("--iterations", type=int, default=500)
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("--out", default=None, help="write every run here as JSON")
    args = parser.parse_args()
    if experiments._cpus() < 2:
        raise SystemExit("this process may run on one CPU only: a sweep cannot split there")

    specs = [SweepSpec(iterations=args.iterations, repetitions=r) for r in args.repetitions]
    lane_rounds = [
        2 * len(s.variants) * len(s.probabilities) ** 2 * s.repetitions * s.iterations
        for s in specs
    ]
    serial: list[list[float]] = [[] for _ in specs]
    split: list[list[float]] = [[] for _ in specs]
    probes = []
    experiments._pmap(_spin, [0, 1], 2)  # untimed: no probe pays for a first fork
    for pair in range(args.pairs):
        probes.append(parallel_ratio())
        for k, spec in enumerate(specs):
            order = (False, True) if pair % 2 == 0 else (True, False)
            rows = []
            for is_split in order:
                seconds, side_rows = timed_sweep(spec, is_split)
                (split if is_split else serial)[k].append(seconds)
                rows.append(side_rows)
            if rows[0] != rows[1]:
                raise SystemExit(f"repetitions {spec.repetitions}: split rows differ")

    print(f"{'lane-rounds':>12} {'one block s':>12} {'two blocks s':>13} {'ratio':>6}")
    for n, a, b in zip(lane_rounds, serial, split):
        one, two = statistics.median(a), statistics.median(b)
        print(f"{n:>12,} {one:>12.3f} {two:>13.3f} {two / one:>6.2f}")
    parallel = [pair for pair, ratio in enumerate(probes) if ratio < PARALLEL_BELOW]
    print("probe ratio per pair: " + " ".join(f"{r:.2f}" for r in probes)
          + f" ({len(parallel)} of {len(probes)} pairs ran two processes in parallel)")
    found = {"all_pairs": crossover(lane_rounds, serial, split)}
    if parallel:
        kept = [[[runs[pair] for pair in parallel] for runs in side] for side in (serial, split)]
        found["parallel_pairs"] = crossover(lane_rounds, *kept)
    for which, result in found.items():
        print(f"crossover, {which.replace('_', ' ')}: {json.dumps(result)}")
    if args.out:
        report = {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "cpus": experiments._cpus(),
            "base_seed": BASE_SEED,
            "iterations": args.iterations,
            "min_block_lane_rounds": DEFAULT_MIN,
            "parallel_below": PARALLEL_BELOW,
            "probe_ratio_per_pair": probes,
            "rungs": [
                {"repetitions": s.repetitions, "lane_rounds": n,
                 "one_block_s": a, "two_blocks_s": b}
                for s, n, a, b in zip(specs, lane_rounds, serial, split)
            ],
            "crossover": found,
        }
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")


if __name__ == "__main__":
    main()
