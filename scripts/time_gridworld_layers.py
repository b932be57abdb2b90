#!/usr/bin/env python3
"""Layer-by-layer seconds of the grid-world comparison, in one process.

Builds the comparison of both layouts and all four variants at base seed
2026: by default the `gridworld` workload of perfbench/run.py (one seed
each, 8 runs, 300 episodes), and at `--seeds 10 --iterations 1500`
criterion 6's 80 runs. Deals the runs round-robin into --jobs blocks, as
run_gridworld_comparison deals them once its work repays a split (a run of
the workload's size plays one block there), and plays each block here, one
after another, with timers around the layers of policy_learner.run_lanes:
play (run_lanes' own time: each iteration's one loop over the lanes into
its flat batch, and the returns), beliefs (_shape_guilt, the block's belief
and guilt step), update (update_policies), and inside update the epochs'
_gradient calls and the per-iteration _Items.build; "own" is the update's
own Python, update minus the other two. "gc" is the garbage collector's
seconds inside the block, from a gc.callbacks timer; it overlaps the layer
it interrupts. A timed name that is gone from the program stops the script
with a message that names it.
Prints one line per block, then checks that the timed blocks gave the rows
of an untimed run_gridworld_comparison.

    PYTHONPATH=src python scripts/time_gridworld_layers.py [--iterations 300] [--jobs 2] [--seeds 1]
"""

from __future__ import annotations

import argparse
import gc
import time
from collections import Counter
from contextlib import contextmanager

from staghunt import experiments, policy_learner
from staghunt.experiments import GridworldSpec, _cpus, _gridworld_block, run_gridworld_comparison

BASE_SEED = 2026
# (module that looks the name up, name, layer)
TIMED = (
    (experiments, "run_lanes", "run_lanes"),
    (policy_learner, "_shape_guilt", "beliefs"),
    (policy_learner, "update_policies", "update"),
    (policy_learner, "_gradient", "_gradient"),
)
COLUMNS = ("total", "play", "beliefs", "update", "_gradient", "_Items.build", "own", "gc")


def _lookup(owner, name: str):
    try:
        return getattr(owner, name)
    except AttributeError:
        raise SystemExit(f"{owner.__name__}.{name} is gone: re-point the timers") from None


def _timed(fn, seconds: Counter, layer: str):
    def wrapper(*args):
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            seconds[layer] += time.perf_counter() - t0

    return wrapper


def _timed_generator(fn, seconds: Counter, layer: str):
    """fn's generator, each step of it timed into seconds[layer]."""

    def wrapper(*args):
        steps = fn(*args)
        while True:
            t0 = time.perf_counter()
            try:
                item = next(steps)
            except StopIteration:
                return
            finally:
                seconds[layer] += time.perf_counter() - t0
            yield item

    return wrapper


@contextmanager
def layer_timers(seconds: Counter):
    """Time the layers and the collector into seconds while inside; the modules
    and gc.callbacks are as they were after."""
    originals = [(owner, name, _lookup(owner, name)) for owner, name, _ in TIMED]
    items = _lookup(policy_learner, "_Items")
    build = items.__dict__["build"]
    for (owner, name, fn), (_, _, layer) in zip(originals, TIMED):
        wrap = _timed_generator if layer == "run_lanes" else _timed
        setattr(owner, name, wrap(fn, seconds, layer))
    timed_build = _timed(items.build, seconds, "_Items.build")
    items.build = classmethod(lambda cls, *args: timed_build(*args))
    started = []

    def collector(phase, _info):
        if phase == "start":
            started.append(time.perf_counter())
        elif started:
            seconds["gc"] += time.perf_counter() - started.pop()

    gc.callbacks.append(collector)
    try:
        yield
    finally:
        gc.callbacks.remove(collector)
        for owner, name, fn in originals:
            setattr(owner, name, fn)
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
        seconds["play"] = seconds["run_lanes"] - seconds["beliefs"] - seconds["update"]
        seconds["own"] = seconds["update"] - seconds["_gradient"] - seconds["_Items.build"]
        print(f"{b:>5} {len(payloads[b::n]):>5} " + " ".join(
            f"{seconds[column]:>12.4f}" for column in COLUMNS
        ))
    expected = run_gridworld_comparison(spec, base_seed=BASE_SEED).rows
    if rows != expected:
        raise SystemExit("timed blocks disagree with run_gridworld_comparison")


if __name__ == "__main__":
    main()
