#!/usr/bin/env python3
"""Layer-by-layer seconds of the grid-world comparison, in one process.

Builds the comparison of both layouts and all four variants at base seed
2026: by default the `gridworld` workload of perfbench/run.py (one seed
each, 8 runs, 300 episodes), and at `--seeds 10 --iterations 1500`
criterion 6's 80 runs. Deals the runs into --jobs blocks as
run_gridworld_comparison does, and plays each block here, one after
another, with timers around the layers of policy_learner: play
(play_iteration, every lane's episode), beliefs (_shape_guilt, the block's
belief and guilt step), update (update_policies), and inside update the
epochs' _gradient calls and the per-iteration _Items.build; "own" is the
update's own Python, update minus the other two.
Prints one line per block, then checks that the timed blocks gave the rows
of an untimed run_gridworld_comparison.

    PYTHONPATH=src python scripts/time_gridworld_layers.py [--iterations 300] [--jobs 2] [--seeds 1]
"""

from __future__ import annotations

import argparse
import time
from collections import Counter
from contextlib import contextmanager

from staghunt import policy_learner
from staghunt.experiments import GridworldSpec, _cpus, _gridworld_block, run_gridworld_comparison

BASE_SEED = 2026
LAYERS = ("play", "beliefs", "update", "_gradient", "_Items.build")
COLUMNS = ("total", *LAYERS, "own")


def _timed(fn, seconds: Counter, layer: str):
    def wrapper(*args):
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            seconds[layer] += time.perf_counter() - t0

    return wrapper


@contextmanager
def layer_timers(seconds: Counter):
    """Time the layers into seconds while inside; the module is as it was after."""
    names = ("play_iteration", "_shape_guilt", "update_policies", "_gradient")
    originals = {name: getattr(policy_learner, name) for name in names}
    items = policy_learner._Items
    build = items.__dict__["build"]
    for (name, fn), layer in zip(originals.items(), LAYERS):
        setattr(policy_learner, name, _timed(fn, seconds, layer))
    timed_build = _timed(items.build, seconds, "_Items.build")
    items.build = classmethod(lambda cls, *args: timed_build(*args))
    try:
        yield
    finally:
        for name, fn in originals.items():
            setattr(policy_learner, name, fn)
        items.build = build


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--iterations", type=int, default=300)
    parser.add_argument("--jobs", type=int, default=2, help="blocks to deal the runs into")
    parser.add_argument("--seeds", type=int, default=1, help="runs per (layout, variant)")
    args = parser.parse_args()

    spec = GridworldSpec(
        scenarios=("near-stag", "near-hares"),
        variants=("individual", "inequity", "ga-no-tom", "tomaga"),
        seeds=args.seeds,
        iterations=args.iterations,
    )
    payloads = [
        (spec, s, v, seed, BASE_SEED)
        for s in range(len(spec.scenarios))
        for v in range(len(spec.variants))
        for seed in range(spec.seeds)
    ]
    n = max(1, min(args.jobs, len(payloads), _cpus()))
    rows: list = [None] * len(payloads)
    print("block lanes " + " ".join(f"{column:>12}" for column in COLUMNS) + "  (s)")
    for b in range(n):
        seconds: Counter = Counter()
        with layer_timers(seconds):
            t0 = time.perf_counter()
            rows[b::n], _ = _gridworld_block(payloads[b::n])
            seconds["total"] = time.perf_counter() - t0
        seconds["own"] = seconds["update"] - seconds["_gradient"] - seconds["_Items.build"]
        print(f"{b:>5} {len(payloads[b::n]):>5} " + " ".join(
            f"{seconds[column]:>12.4f}" for column in COLUMNS
        ))
    expected = run_gridworld_comparison(spec, base_seed=BASE_SEED).rows
    if rows != expected:
        raise SystemExit("timed blocks disagree with run_gridworld_comparison")


if __name__ == "__main__":
    main()
