"""Outside-in tracing of the staghunt package for the benchmark's traced run.

The program has no tracing of its own. `instrument` replaces the functions
each layer is entered through with wrappers, in the module that looks the
name up (the package imports by name, so `matrix_agents.update_beliefs` and
`beliefs.update_beliefs` are separate bindings). A wrapper either records a
span (name, start, end, parent, run, unit) or bumps a counter. Spans stay in
memory until `Tracer.save`; `Patcher.restore` puts every original back.

A name the package no longer has is skipped, so the traced run keeps working
across refactors; the metrics fed by that name then read 0.
"""

from __future__ import annotations

import math
import os
import pickle
import time
from array import array
from collections import Counter
from typing import Callable

import numpy as np


class Patcher:
    """Replaces module or class attributes and puts the originals back."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def patch(self, owner: object, attr: str, make_wrapper: Callable) -> bool:
        if not hasattr(owner, attr):
            return False
        original = getattr(owner, attr)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, make_wrapper(original))
        return True

    def restore(self) -> list[str]:
        """Restore in reverse order; return the attributes that differ afterwards."""
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        # the first saved value of an attribute is its original
        firsts: dict[tuple[int, str], tuple[object, str, object]] = {}
        for owner, attr, original in self._undo:
            firsts.setdefault((id(owner), attr), (owner, attr, original))
        self._undo.clear()
        return [
            f"{getattr(owner, '__name__', owner)}.{attr}"
            for owner, attr, original in firsts.values()
            if getattr(owner, attr) is not original
        ]


class Tracer:
    """In-memory spans and counters for one traced run, identified by its process id."""

    def __init__(self) -> None:
        self.run_id = os.getpid()
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.unit = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._unit = -1
        self._units_seen = 0
        self.counts: Counter[str] = Counter()
        self.learners: list = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def span(self, name: str, fn: Callable, after: Callable | None = None) -> Callable:
        """Wrap fn so each call records a span; after(args, result) runs outside it."""
        nid = self._name_id(name)
        name_, parent, unit, start, end, stack = (
            self.name, self.parent, self.unit, self.start, self.end, self._stack
        )
        clock = time.perf_counter

        def traced(*args, **kwargs):
            i = len(start)
            name_.append(nid)
            parent.append(stack[-1])
            unit.append(self._unit)
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    def counter(self, name: str, fn: Callable) -> Callable:
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def unit_span(self, worker: Callable) -> Callable:
        """Span one experiment unit and tag every span inside it with its index."""
        traced = self.span("experiments.unit", worker)

        def run_unit(payload):
            self._unit = self._units_seen
            self._units_seen += 1
            try:
                return traced(payload)
            finally:
                self._unit = -1

        return run_unit

    def span_stats(self) -> dict[str, tuple[int, float, float]]:
        """Per span name: (count, total duration, total self time) in seconds."""
        names = np.frombuffer(self.name, dtype=np.int32)
        start = np.frombuffer(self.start)
        end = np.frombuffer(self.end)
        selfs = self_times(start, end, np.frombuffer(self.parent, dtype=np.int32))
        n = len(self.names)
        counts = np.bincount(names, minlength=n)
        durs = np.bincount(names, weights=end - start, minlength=n)
        self_sums = np.bincount(names, weights=selfs, minlength=n)
        return {
            name: (int(counts[k]), float(durs[k]), float(self_sums[k]))
            for k, name in enumerate(self.names)
        }

    def durations(self, name: str) -> np.ndarray:
        if name not in self._name_ids:
            return np.zeros(0)
        mask = np.frombuffer(self.name, dtype=np.int32) == self._name_ids[name]
        return (np.frombuffer(self.end) - np.frombuffer(self.start))[mask]

    def save(self, path: str | os.PathLike) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            unit=np.frombuffer(self.unit, dtype=np.int32),
            run=np.full(len(self.start), self.run_id, dtype=np.int32),
        )


def self_times(start, end, parent) -> np.ndarray:
    """Each span's duration minus the part of its interval its children cover.

    Children may overlap each other; covered time is their union, clipped to
    the parent's interval. parent[i] is the index of span i's parent, or -1.
    """
    start = np.asarray(start, dtype=float)
    end = np.asarray(end, dtype=float)
    parent = np.asarray(parent)
    starts, ends = start.tolist(), end.tolist()
    covered = [0.0] * len(starts)
    kids = np.flatnonzero(parent >= 0)
    order = kids[np.lexsort((start[kids], parent[kids]))]
    current, reach = -1, -math.inf
    for p, a, b in zip(parent[order].tolist(), start[order].tolist(), end[order].tolist()):
        if p != current:
            current, reach = p, starts[p]
        lo, hi = max(a, reach), min(b, ends[p])
        if hi > lo:
            covered[p] += hi - lo
            reach = hi
    return (end - start) - np.asarray(covered)


SHAPING_FUNCTIONS = ("expected_other_value", "guilt_reward", "inequity_reward", "shape_reward")


def instrument(t: Tracer, patcher: Patcher) -> None:
    """Wrap every layer boundary of the staghunt package; undo with patcher.restore()."""
    from staghunt import beliefs, cli, experiments, matrix_agents, policy_learner

    counts = t.counts

    def span(name, after=None):
        return lambda fn: t.span(name, fn, after)

    def counter(name):
        return lambda fn: t.counter(name, fn)

    def dispatch(pmap):
        def traced(worker, payloads, jobs):
            counts["experiments.units"] += len(payloads)
            counts["experiments.payload_bytes"] += sum(len(pickle.dumps(p)) for p in payloads)
            return pmap(t.unit_span(worker), payloads, jobs)

        return traced

    def episode_end(_args, record):
        counts["gridworld.steps"] += len(record.transitions)
        counts[f"gridworld.end.{record.event.kind}"] += 1

    def episode(run_episode):
        traced = t.span("gridworld.episode", run_episode, episode_end)

        def with_policy_spans(config, policy, rng):
            return traced(config, t.span("policy_learner.policy", policy), rng)

        return with_policy_spans

    def update_items(args, _result):
        counts["policy_learner.batch_items"] += len(args[1].keys)

    def gradient_items(args, _result):
        counts["policy_learner.gradient_items"] += len(args[1])

    def collect_learner(make):
        def collected(*args, **kwargs):
            learner = make(*args, **kwargs)
            t.learners.append(learner)
            return learner

        return collected

    def cells(_args, rows):
        counts["equilibrium.cells"] += len(rows)

    def grid_rows(rows_fn):
        # the CLI lists the rows at once, so listing them here moves no work
        return t.span("equilibrium.grid", lambda *a, **k: list(rows_fn(*a, **k)), cells)

    def written(path, rows):
        counts["cli.csv_rows"] += len(rows)
        counts["cli.csv_bytes"] += os.path.getsize(path)

    plan = [
        (experiments, "_pmap", dispatch),
        (experiments, "play_matrix_iteration", span("matrix_agents.iteration")),
        (matrix_agents, "select_action", counter("matrix_agents.learner_moves")),
        (matrix_agents, "replace", counter("matrix_agents.replace")),
        (beliefs, "replace", counter("matrix_agents.replace")),
        (matrix_agents, "update_beliefs", span("beliefs.update")),
        (policy_learner, "update_beliefs", span("beliefs.update")),
        *(
            (module, name, span("shaping.call"))
            for module in (matrix_agents, policy_learner)
            for name in SHAPING_FUNCTIONS
        ),
        (experiments, "run_iteration", span("policy_learner.iteration")),
        (experiments, "make_grid_learner", collect_learner),
        (policy_learner, "run_episode", episode),
        (policy_learner, "policy_update", span("policy_learner.update", update_items)),
        (policy_learner, "surrogate_gradient", span("policy_learner.gradient", gradient_items)),
        (policy_learner, "action_probs", span("policy_learner.action_probs")),
        (cli, "equilibrium_grid_rows", grid_rows),
        (cli, "_write_rows", span("cli.write", lambda a, _r: written(a[0], a[2]))),
        (experiments.RunResult, "write_csv", span("cli.write", lambda a, _r: written(a[1], a[0].rows))),
    ]
    for owner, attr, make_wrapper in plan:
        patcher.patch(owner, attr, make_wrapper)


def exact_counts(t: Tracer, stats: dict[str, tuple[int, float, float]]) -> dict[str, int]:
    """Every count of the run: these must repeat exactly between two traced runs."""
    out = {name: n for name, (n, _dur, _self) in stats.items()}
    out.update(t.counts)
    out["policy_learner.table_rows"] = sum(len(l.policy.preferences) for l in t.learners)
    return dict(sorted(out.items()))


def layer_metrics(
    t: Tracer, stats: dict[str, tuple[int, float, float]], counts: dict[str, int]
) -> dict[str, float]:
    """The per-layer metrics that come from one traced run's spans and counts."""

    def count(name):
        return counts.get(name, 0)

    def seconds(name, field):  # field 1: total duration, 2: total self time
        return stats.get(name, (0, 0.0, 0.0))[field]

    def self_us(name):
        return ratio(seconds(name, 2) * 1e6, count(name))

    def ratio(a, b):
        return a / b if b else 0.0

    units = t.durations("experiments.unit")
    iterations = count("matrix_agents.iteration")
    episodes = count("gridworld.episode")
    return {
        "experiments.units": count("experiments.units"),
        "experiments.unit_s.p50": float(np.median(units)) if units.size else 0.0,
        "experiments.unit_s.max": float(units.max()) if units.size else 0.0,
        "experiments.payload_bytes": count("experiments.payload_bytes"),
        "matrix_agents.iterations": iterations,
        "matrix_agents.iteration_us": self_us("matrix_agents.iteration"),
        "matrix_agents.replace_calls": ratio(count("matrix_agents.replace"), iterations),
        "beliefs.updates": count("beliefs.update"),
        "beliefs.update_us": self_us("beliefs.update"),
        "shaping.calls": count("shaping.call"),
        "shaping.call_us": self_us("shaping.call"),
        "gridworld.episodes": episodes,
        "gridworld.steps": count("gridworld.steps"),
        "gridworld.episode_len.mean": ratio(count("gridworld.steps"), episodes),
        "gridworld.end.stag_joint": count("gridworld.end.stag_joint"),
        "gridworld.end.hare": count("gridworld.end.hare"),
        "gridworld.end.timeout": count("gridworld.end.timeout"),
        "gridworld.episode_us": self_us("gridworld.episode"),
        "policy_learner.updates": count("policy_learner.update"),
        "policy_learner.batch_items": count("policy_learner.batch_items"),
        "policy_learner.gradient_us": self_us("policy_learner.gradient"),
        "policy_learner.gradient_item_us": ratio(
            seconds("policy_learner.gradient", 2) * 1e6, count("policy_learner.gradient_items")
        ),
        "policy_learner.action_probs_us": self_us("policy_learner.action_probs"),
        "policy_learner.table_rows": count("policy_learner.table_rows"),
        "equilibrium.cells": count("equilibrium.cells"),
        "equilibrium.cells_per_s": ratio(count("equilibrium.cells"), seconds("equilibrium.grid", 1)),
        "cli.csv_rows": count("cli.csv_rows"),
        "cli.csv_bytes": count("cli.csv_bytes"),
        "cli.write_s": seconds("cli.write", 1),
    }
