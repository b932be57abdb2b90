"""Experiment protocols: self-play sweep, group tournament, grid-world comparison.

Every run is a pure function of its spec and a base seed: per-unit seeds
are spawned from numpy SeedSequence with the unit's indices, so results
reproduce exactly regardless of execution order or worker count, and the
same game-level randomness is shared across agent variants for fairness.
"""

from __future__ import annotations

import csv
import dataclasses
import functools
import itertools
import math
import os
import pickle
import signal
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .game import C, U, PayoffMatrix
from .gridworld import SCENARIOS, STAG_MOTIONS, episode_transition_rows, make_scenario
from .matrix_agents import MatrixLanes, values_for_cooperation_probability
from .policy_learner import (
    GridLearner,
    Lane,
    LearnerConfig,
    PolicyParams,
    PolicyTable,
    iterations_to_threshold,
    run_lanes,
)
from .shaping import Beliefs, InequityParams

MATRIX_VARIANTS = ("tomaga", "ga-no-tom", "individual", "tom-no-guilt")
GRID_VARIANTS = ("individual", "inequity", "ga-no-tom", "tomaga")


@dataclass(frozen=True, slots=True)
class AgentParams:
    """Shared hyper-parameters for matrix-form value learners."""

    theta: float = 200.0
    alpha: float = 0.1
    gamma: float = 0.9
    learning_rate: float = 0.1  # belief/confidence EWMA rate
    confidence: float = 0.5
    zero_order: float = 0.5
    first_order: float = 0.5
    temperature: float = 1.0
    temperature_decay: float = 0.995
    prob_clamp: float = 1e-3

    def __post_init__(self):
        # an infinite theta or temperature makes NaN (inf * 0.0) in shaping or initial Q-values
        _require(self, lambda v: 0 < v < math.inf, "be finite and > 0", "theta", "temperature")
        _require(self, lambda v: 0 < v <= 1, "lie in (0, 1]", "alpha", "temperature_decay")
        _require_unit_interval(
            self, "gamma", "learning_rate", "confidence", "zero_order", "first_order"
        )
        _require(self, lambda v: 0 < v < 0.5, "lie in (0, 0.5)", "prob_clamp")


def _belief_columns(params: AgentParams | GridworldSpec, variant: str, tom: bool) -> dict:
    """A learner's shaping.Beliefs columns, from params' settings; theta is 0.0 (no
    guilt) but for the guilt variants."""
    theta = params.theta if variant in ("tomaga", "ga-no-tom") else 0.0
    return dict(b0=params.zero_order, b1=params.first_order, conf=params.confidence,
                lr=params.learning_rate, tom=tom, theta=theta)


def matrix_lanes(
    kinds: Sequence[str],
    p_init: Sequence[float],
    params: AgentParams,
    pavlov: tuple[int, int] | None,
) -> MatrixLanes:
    """A block's players as lanes, lane k of kinds[k]: a MATRIX_VARIANTS learner with
    params' settings whose softmax P(C) starts at p_init[k], or "pavlov", whose count
    starts at pavlov's (i_count, n). Each distinct p's initial values and each kind's
    constant columns are built once and shared by its lanes."""
    setups = {}  # kind -> its constant columns, its Beliefs' among them
    for kind in dict.fromkeys(kinds):
        if kind == "pavlov":
            i_count, n = pavlov
            # no step, lookahead, decay, confidence learning or guilt, so the value
            # learner's columns and beliefs stay in range; its value rule is thrown away
            setups[kind] = dict(temp=1.0, alpha=0.0, gamma=0.0, decay=1.0, pavlov=True,
                                i_count=i_count, n=n, b0=0.5, b1=0.5, conf=0.5, lr=0.0,
                                tom=True, theta=0.0)
        elif kind in MATRIX_VARIANTS:
            # an inert Pavlov count, 0 of 1: its rule is thrown away
            setups[kind] = dict(temp=params.temperature, alpha=params.alpha, gamma=params.gamma,
                                decay=params.temperature_decay, pavlov=False, i_count=0, n=1,
                                **_belief_columns(params, kind, kind != "ga-no-tom"))
        else:
            raise ValueError(f"unknown variant {kind!r}; expected one of {MATRIX_VARIANTS}")
    values = {p: values_for_cooperation_probability(p, params.temperature, params.prob_clamp)
              for p in set(p_init)}
    per_lane = [setups[kind] for kind in kinds]
    columns = {name: [constants[name] for constants in per_lane] for name in per_lane[0]}
    for label, name in ((C, "v_c"), (U, "v_u")):
        columns[name] = [0.0 if kind == "pavlov" else values[p][label]
                         for kind, p in zip(kinds, p_init)]
    return MatrixLanes(columns, Beliefs(columns))


@dataclass(slots=True)
class RunResult:
    """A flat table of rows; an experiment's table also carries the spec it ran,
    and what it counted on the way for the manifest's telemetry."""

    columns: tuple[str, ...]
    rows: Iterable[tuple] | Iterable[str]
    spec: SweepSpec | TournamentSpec | GridworldSpec | None = None
    telemetry: dict = field(default_factory=dict)

    def write_csv(self, path: str | Path) -> None:
        """Write the header through csv.writer, then the rows.

        Rows that are str are finished CSV text, whole lines each ending in
        "\\r\\n" as csv.writer ends its own, and are written as they are;
        tuple rows go through csv.writer. The rows may be any iterable, a
        generator included: each row is written as it comes.
        """
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(self.columns)
            rows = iter(self.rows)
            first = next(rows, None)
            if isinstance(first, str):
                fh.write(first)
                fh.writelines(rows)
            elif first is not None:
                writer.writerow(first)
                writer.writerows(rows)


def _require(spec, ok, rule: str, *names: str) -> None:
    """ValueError naming the first of names whose value fails ok ("must <rule>")."""
    for name in names:
        value = getattr(spec, name)
        try:
            valid = ok(value)
        except TypeError:  # None, or a string from a config file
            valid = False
        if not valid:
            raise ValueError(f"{type(spec).__name__}.{name} must {rule}, got {value!r}")


def _require_positive(spec, *names: str) -> None:
    # a float or bool count would pass v >= 1 and fail, or be truncated, in the run
    _require(spec, lambda v: type(v) is int and v >= 1, "be an integer >= 1", *names)


def _require_nonempty(spec, *names: str) -> None:
    for name in names:
        if not getattr(spec, name):
            raise ValueError(f"{type(spec).__name__}.{name} must not be empty")


def _require_distinct(spec, *names: str) -> None:
    _require(spec, lambda v: len(set(v)) == len(v), "not repeat a value", *names)


def _require_known(spec, name: str, allowed: tuple[str, ...]) -> None:
    unknown = [v for v in getattr(spec, name) if v not in allowed]
    if unknown:
        raise ValueError(
            f"{type(spec).__name__}.{name}: unknown {unknown}; expected some of {allowed}"
        )


def _require_unit_interval(spec, *names: str) -> None:
    _require(spec, lambda v: 0.0 <= v <= 1.0, "lie in [0, 1]", *names)


def _rng_for(base_seed: int, *indices: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([base_seed, *indices]))


def _cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        return os.cpu_count() or 1


def _pmap(worker, payloads: Sequence, jobs: int) -> list:
    """[worker(p) for p in payloads], one process per payload: payload 0 here and each other
    one in a forked child, which pipes back its pickled result or exception. All run here at
    jobs 1, for one payload, or where os.fork does not exist. Callers pass at most jobs
    payloads. A child's exception is raised here, and no child outlives the call."""
    if jobs <= 1 or len(payloads) <= 1 or not hasattr(os, "fork"):
        return [worker(p) for p in payloads]
    children: list = []  # (pid, result pipe) of each child not yet reaped, in payload order
    try:
        for payload in payloads[1:]:
            children.append(_fork(worker, payload))
        results = [worker(payloads[0])]
        while children:
            pid, pipe = children[0]
            with pipe:
                data = pipe.read()  # to EOF before the wait, so a large result cannot deadlock
            status = os.waitpid(pid, 0)[1]
            children.pop(0)
            if not data:
                raise RuntimeError(f"block child {pid} ended without a result, "
                                   f"exit status {os.waitstatus_to_exitcode(status)}")
            ok, value = pickle.loads(data)
            if not ok:
                raise value
            results.append(value)
        return results
    finally:
        for pid, pipe in children:
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _fork(worker, payload):
    """Start worker(payload) in a forked child; return its pid and the read end of the
    pipe it writes pickle.dumps((ok, result or exception)) to before os._exit."""
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:  # the child: no atexit handler, test teardown or stdout flush runs here
        status = 1
        try:
            os.close(read_fd)
            try:
                out = (True, worker(payload))
            except BaseException as exc:
                out = (False, exc)
            data = pickle.dumps(out)  # an unpicklable result exits 1 with no data
            with open(write_fd, "wb") as pipe:
                pipe.write(data)
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    return pid, open(read_fd, "rb")


def _timed_block(block, payloads) -> tuple[list, Counter, float, int]:
    start = time.perf_counter()
    rows, counts = block(payloads)
    return rows, counts, time.perf_counter() - start, os.getpid()


def _deal(block, payloads: list, jobs: int, work: int,
          break_even: int) -> tuple[list, Counter, dict]:
    """Run the payloads in blocks, one _pmap payload each: one block per break_even of
    work, at least one and at most min(jobs, len(payloads), CPUs).

    work is the payloads' total in the experiment's own unit, and break_even
    the least of it for which a block of its own repays its cost: below it,
    every block pays a lockstep step's fixed cost for too few lanes, so one
    block, played here, costs less CPU and no more wall time. Payloads are
    dealt round-robin, so that each block mixes cheap and costly ones; block 0
    runs in this process, and each other block in a forked child.
    block(block_payloads) returns (one row per payload, in order; a Counter).
    Returns every row in payload order, the Counters' sum, and the telemetry:
    "deal", the inputs of the split (jobs, the CPUs, the work each of
    min(jobs, payloads, CPUs) blocks would get, and break_even), and
    "blocks", one {"payloads", "wall_s", "pid"} per block in deal order,
    timed in the process that ran it.
    """
    cpus = _cpus()
    most = max(1, min(jobs, len(payloads), cpus))
    n = max(1, min(most, work // break_even))
    blocks = _pmap(functools.partial(_timed_block, block), [payloads[b::n] for b in range(n)], jobs)
    rows: list = [None] * len(payloads)
    for b, (block_rows, *_) in enumerate(blocks):
        rows[b::n] = block_rows
    telemetry = {
        "deal": {"jobs": jobs, "cpus": cpus, "work_per_block": work / most,
                 "break_even": break_even},
        "blocks": [{"payloads": len(block_rows), "wall_s": s, "pid": pid}
                   for block_rows, _, s, pid in blocks],
    }
    return rows, sum((counts for _, counts, _, _ in blocks), Counter()), telemetry


# ---------------------------------------------------------------------------
# Matrix-form self-play sweep
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class SweepSpec:
    """Grid of initial cooperation probabilities for two self-play learners."""

    probabilities: tuple[float, ...] = tuple(round(p * 0.1, 1) for p in range(11))
    iterations: int = 500
    repetitions: int = 20
    matrix: PayoffMatrix = PayoffMatrix(40.0, 30.0, 20.0, 0.0)
    variants: tuple[str, ...] = ("tomaga", "ga-no-tom")
    agent_params: AgentParams = AgentParams()
    measure_window: int = 50

    def __post_init__(self):
        _require_nonempty(self, "probabilities", "variants")
        # a bool passes 0 <= v <= 1, and would be written to the CSVs as True
        _require(self, lambda v: all(type(p) is not bool and 0.0 <= p <= 1.0 for p in v),
                 "lie in [0, 1]", "probabilities")
        _require_positive(self, "iterations", "repetitions", "measure_window")
        _require_known(self, "variants", MATRIX_VARIANTS)
        _require_distinct(self, "variants", "probabilities")


#: A match's or a tournament group's draws are taken from its generator this
#: many iterations at a time: the same numbers, in the same order, as the
#: iteration-by-iteration calls of the match or group played alone.
DRAW_CHUNK = 100

#: A sweep's break-even in _deal, in lane-rounds a block (2 x matches x iterations).
#: Lines fitted to one and two forked blocks of SweepSpec() at 0.24-4.84 M
#: lane-rounds meet at 0.15-0.40 M, and two blocks won from 0.48 M; on the
#: perfbench sweep (72,000 in 500 rounds of 144 lanes, each round's fixed cost
#: paid in both blocks) they took 1.3x the wall and 1.7x the CPU time
#: (BENCH_sweep_exp.json, BENCH_gridworld_fork.json). So a sweep splits in two
#: only from 0.5 M. Ten later pairs saw two blocks win every pair from 0.97 M a
#: block (BENCH_gridworld_deal.json); the constant stays, so no sweep deal moved.
MIN_BLOCK_LANE_ROUNDS = 250_000


def run_matches(
    lanes: MatrixLanes,
    matrix: PayoffMatrix,
    iterations: int,
    rngs: Sequence[np.random.Generator],
    streams: Sequence[int],
    traces: Sequence[list] | None = None,
) -> np.ndarray:
    """Play every pair's repeated one-shot match in lockstep, pair k from rngs[streams[k]].

    Pair k's players are lanes k and len(streams) + k, which end in their
    final state. Returns the actions: actions[t, lane] is True where that
    lane played C in iteration t. Each iteration takes two draws from each
    generator, first player's first, exactly as a match played alone; pairs
    of one stream see the same draws. Pass one list per pair as traces to
    also collect one TRACE_COLUMNS row per iteration.
    """
    n = len(streams)
    streams = np.asarray(streams)
    opponent = np.concatenate((np.arange(n, 2 * n), np.arange(n)))
    actions = np.empty((iterations, 2 * n), dtype=bool)
    for start in range(0, iterations, DRAW_CHUNK):
        stop = min(start + DRAW_CHUNK, iterations)
        draws = np.stack([rng.random((stop - start, 2)) for rng in rngs], axis=2)
        # every lane's draw: the first players' then the second players'
        u = draws.take(streams, axis=2).reshape(stop - start, 2 * n)
        for t, u_t in enumerate(u, start):
            c, _, phi, psychological = lanes.play(u_t, opponent, matrix)
            actions[t] = c
            if traces is not None:
                for k, trace in enumerate(traces):
                    trace.append(_trace_row(t, lanes, (k, n + k), c, phi, psychological, matrix))
    return actions


TRACE_COLUMNS = (
    "iteration", "action_0", "action_1", "reward_0", "reward_1",
    "phi_0", "psy_0", "phi_1", "psy_1",
    "b0_0", "b1_0", "conf_0", "b0_1", "b1_1", "conf_1",
    "v_c_0", "v_u_0", "v_c_1", "v_u_1",
)


def _trace_row(iteration, lanes, pair, c, phi, psychological, matrix) -> tuple:
    a0, a1 = (C if c[k] else U for k in pair)
    records: list = []
    beliefs: list = []
    values: list = []
    for k in pair:
        if lanes.pavlov[k]:
            records += (None, None)
            beliefs += (None, None, None)
            values += (None, None)
        else:
            records += (float(phi[k]), float(psychological[k]))
            beliefs += (*lanes.beliefs.b[:, k].tolist(), float(lanes.beliefs.conf[k]))
            values += (float(lanes.v_c[k]), float(lanes.v_u[k]))
    return (
        iteration, str(a0), str(a1), matrix.payoff(a0, a1), matrix.payoff(a1, a0),
        *records, *beliefs, *values,
    )


SWEEP_COLUMNS = (
    "variant", "p_init_0", "p_init_1", "repetition",
    "final_coop_softmax", "final_coop_freq",
)


def _sweep_block(payloads, traces: Sequence[list] | None = None) -> tuple[list[tuple], Counter]:
    """The sweep.csv rows of a block of matches played in lockstep, in payload order.

    The stream of the match at cell (i, j), repetition rep depends only on
    (base_seed, i, j, rep), never on the variant or the block.
    """
    spec = payloads[0][0]
    probs = spec.probabilities
    lanes = matrix_lanes(
        [variant for _, variant, *_ in payloads] * 2,
        [probs[i] for _, _, i, _, _, _ in payloads] + [probs[j] for _, _, _, j, _, _ in payloads],
        spec.agent_params,
        None,
    )
    # one generator per distinct stream: a cell's variants share theirs
    slots: dict[tuple, int] = {}
    streams = [slots.setdefault((base_seed, i, j, rep), len(slots))
               for _, _, i, j, rep, base_seed in payloads]
    rngs = [_rng_for(*stream) for stream in slots]
    actions = run_matches(lanes, spec.matrix, spec.iterations, rngs, streams, traces)
    n = len(payloads)
    coop = lanes.p_cooperate()[:n].tolist()
    window = actions[-spec.measure_window :, :n]
    cooperated = window.sum(axis=0).tolist()
    rows = [
        (variant, probs[i], probs[j], rep, coop[k], cooperated[k] / len(window))
        for k, (_, variant, i, j, rep, _) in enumerate(payloads)
    ]
    return rows, Counter()


def run_sweep_unit(
    spec: SweepSpec,
    variant: str,
    i: int,
    j: int,
    rep: int,
    base_seed: int,
    trace: list | None = None,
) -> tuple:
    """One sweep.csv row: the match at cell (i, j), repetition rep.

    Pass a list as trace to replay that row's match per iteration.
    """
    payload = (spec, variant, i, j, rep, base_seed)
    rows, _ = _sweep_block([payload], None if trace is None else [trace])
    return rows[0]


def run_sweep(spec: SweepSpec, base_seed: int = 0, jobs: int = 1) -> RunResult:
    """Fill the initial-probability grid for every variant, in lockstep blocks.

    One block per MIN_BLOCK_LANE_ROUNDS lane-rounds (see _deal). The random
    stream for a grid cell depends only on (base_seed, cell, repetition),
    never on the variant, so variants face identical luck.
    """
    payloads = [
        (spec, variant, i, j, rep, base_seed)
        for variant in spec.variants
        for i in range(len(spec.probabilities))
        for j in range(len(spec.probabilities))
        for rep in range(spec.repetitions)
    ]
    lane_rounds = 2 * len(payloads) * spec.iterations
    rows, _, telemetry = _deal(_sweep_block, payloads, jobs, lane_rounds, MIN_BLOCK_LANE_ROUNDS)
    return RunResult(SWEEP_COLUMNS, rows, spec, telemetry)


def sweep_cell_means(result: RunResult) -> dict[tuple[str, float, float], float]:
    """Mean final softmax cooperation probability per (variant, p0, p1) cell."""
    sums: dict[tuple[str, float, float], list[float]] = {}
    for variant, p0, p1, _rep, coop, _freq in result.rows:
        sums.setdefault((variant, p0, p1), []).append(coop)
    return {key: sum(v) / len(v) for key, v in sums.items()}


# ---------------------------------------------------------------------------
# Group tournament with random matching
# ---------------------------------------------------------------------------

COMPOSITIONS = ("tomaga", "pavlov", "heterogeneous", "tom-no-guilt")


@dataclass(frozen=True, slots=True)
class TournamentSpec:
    group_sizes: tuple[int, ...] = (2, 4, 8)
    rounds: int = 5000
    report_window: int = 100
    repetitions: int = 10
    matrix: PayoffMatrix = PayoffMatrix(5.0, 4.0, 2.0, 1.0)
    compositions: tuple[str, ...] = ("tomaga", "pavlov", "heterogeneous")
    agent_params: AgentParams = AgentParams()
    pavlov_n: int = 10
    # a cooperative-leaning start: from 0.5 a Pavlov facing a steady
    # cooperator is a driftless walk and locks into always-defect on half
    # of all seeds, which buries the heterogeneous-group comparison in
    # matching noise rather than anything about the agents
    pavlov_p0: float = 0.9

    def __post_init__(self):
        _require_nonempty(self, "group_sizes", "compositions")
        _require(self, lambda v: all(type(n) is int and n >= 2 for n in v),
                 "be integers >= 2", "group_sizes")
        _require_known(self, "compositions", COMPOSITIONS)
        _require_distinct(self, "group_sizes", "compositions")
        _require_positive(self, "rounds", "report_window", "repetitions", "pavlov_n")
        _require_unit_interval(self, "pavlov_p0")


def _make_group(composition: str, size: int) -> list[str]:
    """A group's kinds (see matrix_lanes)."""
    if composition == "heterogeneous":
        # one guilt-averse ToM agent among Pavlov players
        return ["tomaga"] + ["pavlov"] * (size - 1)
    return [composition] * size


#: A tournament's break-even in _deal, in lane-rounds a block (group sizes x
#: rounds): the least rung of TournamentSpec() at 200 rounds from which two blocks
#: won every one of ten pairs on wall time; below it a second block costs
#: 1.5-1.9x the CPU time for little or no wall time (BENCH_gridworld_deal.json).
MIN_TOURNAMENT_BLOCK_LANE_ROUNDS = 16_800

TOURNAMENT_COLUMNS = ("composition", "group_size", "repetition", "mean_common_reward")


def _tournament_block(payloads) -> tuple[list[tuple], Counter]:
    """The tournament.csv rows of a block of groups played in lockstep, in payload order.

    Every group's pairs of a round go to one MatrixLanes.play call. A
    group's stream depends only on (base_seed, composition, size,
    repetition): each round, its matching permutation, then one draw per
    matched agent (actor, partner, actor, ...), as when it played alone.
    """
    spec = payloads[0][0]
    groups = []  # (size, generator, its first lane)
    kinds: list[str] = []
    for _, comp_idx, size_idx, rep, base_seed in payloads:
        size = spec.group_sizes[size_idx]
        groups.append((size, _rng_for(base_seed, comp_idx, size_idx, rep), len(kinds)))
        kinds += _make_group(spec.compositions[comp_idx], size)
    pavlov = (round(spec.pavlov_n * spec.pavlov_p0), spec.pavlov_n)
    # the learners start at even odds
    lanes = matrix_lanes(kinds, [0.5] * len(kinds), spec.agent_params, pavlov)
    # a round's matched lanes, actor then partner, group by group:
    # group g's are bounds[g]:bounds[g + 1]
    bounds = list(itertools.accumulate((size - size % 2 for size, _, _ in groups), initial=0))
    partner = np.arange(bounds[-1]) ^ 1  # each matched lane's partner's position
    window_from = spec.rounds - min(spec.report_window, spec.rounds)
    commons: list[list[float]] = [[] for _ in groups]
    for start in range(0, spec.rounds, DRAW_CHUNK):
        rounds = min(DRAW_CHUNK, spec.rounds - start)
        orders, draws = [], []
        for size, rng, lane0 in groups:
            order = np.tile(np.arange(size), (rounds, 1))
            drawn = np.empty((rounds, size - size % 2))
            for t in range(rounds):
                rng.shuffle(order[t])  # what rng.permutation(size) draws
                rng.random(out=drawn[t])
            orders.append(order[:, : size - size % 2] + lane0)
            draws.append(drawn)
        matched = np.concatenate(orders, axis=1)
        at = np.arange(rounds)[:, None], matched
        # a lane sitting out has no draw: NaN, which is never near P(C)
        u = np.full((rounds, len(kinds)), np.nan)
        u[at] = np.concatenate(draws, axis=1)
        opponent = np.tile(np.arange(len(kinds)), (rounds, 1))
        opponent[at] = matched[:, partner]
        playing = [None] * rounds
        if bounds[-1] < len(kinds):
            playing = np.zeros((rounds, len(kinds)), dtype=bool)
            playing[at] = True
        for t in range(rounds):
            _, reward, _, _ = lanes.play(u[t], opponent[t], spec.matrix, playing[t])
            if start + t < window_from:
                continue
            rewards = reward[matched[t]].tolist()
            for common, lo, hi in zip(commons, bounds, bounds[1:]):
                common.append(sum(rewards[lo:hi]) / (hi - lo))
    rows = [
        (spec.compositions[comp_idx], spec.group_sizes[size_idx], rep, sum(window) / len(window))
        for (_, comp_idx, size_idx, rep, _), window in zip(payloads, commons)
    ]
    return rows, Counter()


def run_tournament(spec: TournamentSpec, base_seed: int = 0, jobs: int = 1) -> RunResult:
    """Randomly matched repeated play; reports last-window mean common reward.

    Common reward for a round is the mean material (unshaped) reward over
    the agents that actually played; with an odd group size one uniformly
    chosen agent sits out. Groups run in lockstep blocks, one per
    MIN_TOURNAMENT_BLOCK_LANE_ROUNDS lane-rounds (see _deal).
    """
    payloads = [
        (spec, comp_idx, size_idx, rep, base_seed)
        for comp_idx in range(len(spec.compositions))
        for size_idx in range(len(spec.group_sizes))
        for rep in range(spec.repetitions)
    ]
    lane_rounds = len(spec.compositions) * sum(spec.group_sizes) * spec.repetitions * spec.rounds
    rows, _, telemetry = _deal(_tournament_block, payloads, jobs, lane_rounds,
                               MIN_TOURNAMENT_BLOCK_LANE_ROUNDS)
    return RunResult(TOURNAMENT_COLUMNS, rows, spec, telemetry)


def tournament_means(result: RunResult) -> dict[tuple[str, int], float]:
    """Mean over repetitions of the last-window common reward."""
    sums: dict[tuple[str, int], list[float]] = {}
    for composition, size, _rep, reward in result.rows:
        sums.setdefault((composition, size), []).append(reward)
    return {key: sum(v) / len(v) for key, v in sums.items()}


# ---------------------------------------------------------------------------
# Grid-world comparison
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class GridworldSpec:
    scenarios: tuple[str, ...] = ("near-stag", "near-hares")
    variants: tuple[str, ...] = GRID_VARIANTS
    seeds: int = 10
    iterations: int = 1500
    theta: float = 4.0
    inequity_advantageous: float = 1.0
    inequity_disadvantageous: float = 1.0
    window: int = 50
    threshold: float = 0.8
    zero_order: float = 0.5
    first_order: float = 0.5
    confidence: float = 0.5
    learning_rate: float = 0.1
    step_size: float = 0.5
    gamma: float = 0.99
    clip_ratio: float = 0.2
    epochs: int = 6
    entropy_weight: float = 0.03
    # one bucket spanning the whole episode: the comparison trains
    # stationary policies, which learn far faster on the tiny grid
    time_bucket_width: int = 32
    # "static" pins the stag, which keeps the joint capture learnable at
    # desk-scale iteration counts; the shipped layouts' own mode is "random_walk"
    stag_motion: str = "static"

    def __post_init__(self):
        _require_nonempty(self, "scenarios", "variants")
        _require_known(self, "scenarios", SCENARIOS)
        _require_known(self, "variants", GRID_VARIANTS)
        _require_distinct(self, "scenarios", "variants")
        _require_positive(self, "seeds", "iterations", "window", "epochs", "time_bucket_width")
        _require_unit_interval(
            self, "threshold", "zero_order", "first_order", "confidence", "learning_rate", "gamma"
        )
        # an infinite weight makes NaN shaping or preferences (-inf * 0.0, inf - inf)
        _require(self, lambda v: 0 < v < math.inf, "be finite and > 0", "theta", "step_size")
        _require(self, lambda v: 0 <= v < math.inf, "be finite and >= 0", "inequity_advantageous",
                 "inequity_disadvantageous", "entropy_weight")
        _require(self, lambda v: v >= 0, "be >= 0", "clip_ratio")
        _require(self, lambda v: v in STAG_MOTIONS, f"be one of {STAG_MOTIONS}", "stag_motion")


#: A grid-world comparison's break-even in _deal, in lane-iterations a block (runs x
#: iterations): the least rung of GridworldSpec() at 300 iterations from which two
#: blocks won every one of ten pairs on wall time. Each block pays a lockstep
#: iteration's fixed cost (about 0.27 ms: the fitted one-block line's 0.08 s over
#: 300 iterations), so below it a second block costs 1.5-1.9x the CPU time for a
#: wall time that wins or loses by the pair; the perfbench grid world (1,200 a
#: block at two blocks) plays one (BENCH_gridworld_deal.json).
MIN_GRID_BLOCK_LANE_ITERATIONS = 9_600

GRIDWORLD_COLUMNS = (
    "scenario", "variant", "seed", "iterations_to_threshold",
    "final_c_prop", "final_u_prop", "final_unknown_prop",
)


def gridworld_lanes(payloads) -> tuple[list[Lane], Beliefs]:
    """A block's runs, payloads of one spec, as policy_learner.run_lanes' lanes and their
    one Beliefs: every policy on one PolicyTable under the spec's LearnerConfig, each grid
    loaded once, lane k's agent i in slot 2k + i, and each variant's settings built once.
    A run's stream depends only on (base_seed, scenario, variant, seed index), so the
    aggregate row and its detail replay see the same run."""
    spec = payloads[0][0]
    table = PolicyTable(LearnerConfig(
        **{f.name: getattr(spec, f.name) for f in dataclasses.fields(LearnerConfig)}
    ))
    grids = [dataclasses.replace(make_scenario(scenario), stag_motion=spec.stag_motion)
             for scenario in spec.scenarios]
    weights = InequityParams(spec.inequity_advantageous, spec.inequity_disadvantageous)
    setups = [(_belief_columns(spec, variant, variant == "tomaga"),
               weights if variant == "inequity" else None) for variant in spec.variants]
    lanes, slots = [], []
    for _, scen_idx, var_idx, seed_idx, base_seed in payloads:
        columns, inequity = setups[var_idx]
        learners = tuple(GridLearner(PolicyParams(table), inequity) for _ in range(2))
        lanes.append((learners, grids[scen_idx], _rng_for(base_seed, scen_idx, var_idx, seed_idx)))
        slots += columns, columns
    return lanes, Beliefs({name: [slot[name] for slot in slots] for name in slots[0]})


def _gridworld_block(payloads) -> tuple[list[tuple], Counter]:
    """The gridworld.csv rows of a block of runs played in lockstep, in payload order,
    and the block's count of episodes by how they ended, and of their steps."""
    spec = payloads[0][0]
    ends: Counter = Counter()
    labels_by_iteration = []
    for batch in run_lanes(*gridworld_lanes(payloads), spec.iterations):
        labels = batch.labels
        labels_by_iteration.append(list(zip(labels[::2], labels[1::2])))
        ends.update(batch.kinds)
        ends["steps"] += sum(batch.lengths)
    rows = []
    for (_, scen_idx, var_idx, seed_idx, _), history in zip(payloads, zip(*labels_by_iteration)):
        reached = iterations_to_threshold(history, spec.window, spec.threshold)
        labels = [label for pair in history[-spec.window :] for label in pair]
        c_prop, u_prop = (labels.count(label) / len(labels) for label in (C, U))
        rows.append((
            spec.scenarios[scen_idx], spec.variants[var_idx], seed_idx,
            -1 if reached is None else reached,
            c_prop, u_prop, 1.0 - c_prop - u_prop,
        ))
    return rows, ends


def run_gridworld_comparison(spec: GridworldSpec, base_seed: int = 0, jobs: int = 1) -> RunResult:
    """Every (scenario, variant, seed) run, in lockstep blocks, one per
    MIN_GRID_BLOCK_LANE_ITERATIONS lane-iterations (see _deal).

    Runs are dealt round-robin, so that each block mixes cheap and costly ones.
    The telemetry gives how many episodes ended in each way, their mean
    length, and the deal.
    """
    payloads = [
        (spec, scen_idx, var_idx, seed_idx, base_seed)
        for scen_idx in range(len(spec.scenarios))
        for var_idx in range(len(spec.variants))
        for seed_idx in range(spec.seeds)
    ]
    lane_iterations = len(payloads) * spec.iterations
    rows, ends, telemetry = _deal(_gridworld_block, payloads, jobs, lane_iterations,
                                  MIN_GRID_BLOCK_LANE_ITERATIONS)
    return RunResult(GRIDWORLD_COLUMNS, rows, spec, {
        "episode_ends": {kind: ends[kind] for kind in ("stag_joint", "hare", "timeout")},
        "episode_length_mean": ends["steps"] / lane_iterations,
        **telemetry,
    })


GRIDWORLD_DETAIL_COLUMNS = (
    "iteration", "episode_length", "label_0", "label_1", "reward_0", "reward_1",
    "phi_0", "psy_0", "shaped_0", "phi_1", "psy_1", "shaped_1",
    "c_prop_0", "c_prop_1",
    "b0_0", "b1_0", "conf_0", "b0_1", "b1_1", "conf_1",
)


def gridworld_run(spec: GridworldSpec, scenario: str, variant: str, seed_index) -> tuple:
    """The (scenario, variant, seed) indices of one run of spec's comparison, or ValueError."""
    if scenario in spec.scenarios and variant in spec.variants and (
            isinstance(seed_index, int) and seed_index in range(spec.seeds)):
        return spec.scenarios.index(scenario), spec.variants.index(variant), seed_index
    raise ValueError(
        f"{scenario} {variant} {seed_index!r} is not a run of this comparison: scenarios "
        f"{list(spec.scenarios)}, variants {list(spec.variants)}, seeds 0 to {spec.seeds - 1}"
    )


def run_gridworld_detail(
    spec: GridworldSpec,
    scenario: str,
    variant: str,
    seed_index: int,
    base_seed: int = 0,
    episode_log: list | None = None,
) -> RunResult:
    """Replay a single comparison run, logging every iteration.

    Uses the identical seeding path as run_gridworld_comparison, so the
    logged run is the same one that produced the aggregate row; a run that
    is not part of the comparison is a ValueError. Pass a list as episode_log
    to also capture each episode's transition rows.
    """
    run = gridworld_run(spec, scenario, variant, seed_index)
    history: list = []
    rows: list[tuple] = []
    lanes, beliefs = gridworld_lanes([(spec, *run, base_seed)])
    steps: list = []
    logs = None if episode_log is None else [steps]
    for it, batch in enumerate(run_lanes(lanes, beliefs, spec.iterations, logs)):
        labels = tuple(batch.labels)
        history.append(labels)
        chunk = history[-spec.window :]
        c_props = tuple(
            sum(1 for pair in chunk if pair[i] is C) / len(chunk) for i in range(2)
        )
        # each agent's b0, b1 and conf, from its slot
        agent_0, agent_1 = np.vstack((beliefs.b, beliefs.conf)).T.tolist()
        rows.append((
            it, batch.lengths[0], str(labels[0]), str(labels[1]), *batch.rewards,
            batch.phi[0], batch.psy[0], batch.shaped[0],
            batch.phi[1], batch.psy[1], batch.shaped[1],
            c_props[0], c_props[1], *agent_0, *agent_1,
        ))
        if episode_log is not None:
            episode_log.extend((it, *row) for row in episode_transition_rows(
                lanes[0][1].width, steps, batch.rewards))
            steps.clear()
    return RunResult(GRIDWORLD_DETAIL_COLUMNS, rows)


def gridworld_threshold_summary(result: RunResult) -> dict[tuple[str, str], dict]:
    """Per (scenario, variant): reach counts and the median iterations-to-threshold.

    Runs that never reach the threshold enter the median as one-past-budget
    so that "never" compares worse than any finite crossing.
    """
    groups: dict[tuple[str, str], list[int]] = {}
    budget = result.spec.iterations
    for scenario, variant, _seed, reached, *_rest in result.rows:
        groups.setdefault((scenario, variant), []).append(
            budget + 1 if reached < 0 else reached
        )
    out = {}
    for key, values in groups.items():
        out[key] = {
            "median_iterations": float(np.median(values)),
            "n_reached": sum(1 for v in values if v <= budget),
            "n_runs": len(values),
        }
    return out
