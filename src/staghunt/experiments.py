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
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .game import C, U, PayoffMatrix
from .gridworld import SCENARIOS, STAG_MOTIONS, episode_transition_rows, make_scenario
from .matrix_agents import (
    Exploration,
    MatrixAgentState,
    MatrixLanes,
    MatrixPlayer,
    PavlovState,
    values_for_cooperation_probability,
)
from .beliefs import ToMState, make_tom_state
from .policy_learner import (
    GridLearner,
    LearnerConfig,
    PolicyParams,
    PolicyTable,
    iterations_to_threshold,
    run_lanes,
)
from .shaping import Beliefs, GuiltParams, InequityParams

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


def _tom_state(params: AgentParams | GridworldSpec, tom_enabled: bool) -> ToMState:
    return make_tom_state(
        params.zero_order, params.first_order, params.confidence, params.learning_rate, tom_enabled
    )


def _guilt(variant: str, params: AgentParams | GridworldSpec) -> GuiltParams | None:
    return GuiltParams(params.theta) if variant in ("tomaga", "ga-no-tom") else None


def make_matrix_agent(
    variant: str, params: AgentParams, initial_p_cooperate: float = 0.5
) -> MatrixAgentState:
    """Build a matrix-form learner variant with its softmax P(C) preset."""
    if variant not in MATRIX_VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; expected one of {MATRIX_VARIANTS}")
    return MatrixAgentState(
        values=values_for_cooperation_probability(
            initial_p_cooperate, params.temperature, params.prob_clamp
        ),
        tom=_tom_state(params, tom_enabled=(variant != "ga-no-tom")),
        guilt=_guilt(variant, params),
        alpha=params.alpha,
        gamma=params.gamma,
        explore=Exploration(params.temperature, params.temperature_decay),
    )


def make_grid_learner(variant: str, spec: GridworldSpec) -> GridLearner:
    """Build a grid-world learner variant: its policy table's LearnerConfig, its
    beliefs, guilt and inequity all come from the spec."""
    if variant not in GRID_VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; expected one of {GRID_VARIANTS}")
    hyper = LearnerConfig(
        **{f.name: getattr(spec, f.name) for f in dataclasses.fields(LearnerConfig)}
    )
    guilt = _guilt(variant, spec)
    inequity = None
    if variant == "inequity":
        inequity = InequityParams(spec.inequity_advantageous, spec.inequity_disadvantageous)
    beliefs = Beliefs([_tom_state(spec, tom_enabled=(variant == "tomaga"))], [guilt])
    return GridLearner(PolicyParams(PolicyTable(hyper)), beliefs, guilt=guilt, inequity=inequity)


@dataclass(slots=True)
class RunResult:
    """A flat table of rows; an experiment's table also carries the spec it ran,
    and what it counted on the way for the manifest's telemetry."""

    columns: tuple[str, ...]
    rows: list[tuple] | list[str]
    spec: SweepSpec | TournamentSpec | GridworldSpec | None = None
    telemetry: dict = field(default_factory=dict)

    def write_csv(self, path: str | Path) -> None:
        """Write the header through csv.writer, then the rows.

        Rows that are str are finished CSV text, whole lines each ending in
        "\\r\\n" as csv.writer ends its own, and are written as they are;
        tuple rows go through csv.writer.
        """
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(self.columns)
            if self.rows and isinstance(self.rows[0], str):
                fh.writelines(self.rows)
            else:
                writer.writerows(self.rows)


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
    """[worker(p) for p in payloads]: here at jobs 1 or for one payload, else on a pool of
    min(jobs, payloads) workers, since under fork every worker starts at the first submit."""
    if jobs <= 1 or len(payloads) <= 1:
        return [worker(p) for p in payloads]
    with ProcessPoolExecutor(max_workers=min(jobs, len(payloads))) as pool:
        return list(pool.map(worker, payloads))


def _timed_block(block, payloads) -> tuple[list, Counter, float]:
    start = time.perf_counter()
    rows, counts = block(payloads)
    return rows, counts, time.perf_counter() - start


def _deal(block, payloads: list, jobs: int) -> tuple[list, Counter, list[dict]]:
    """Run the payloads in min(jobs, len(payloads), CPUs) blocks, one _pmap payload each.

    Payloads are dealt round-robin, so that each block mixes cheap and
    costly ones; one block runs in this process and starts no pool.
    block(block_payloads) returns (one row per payload, in order; a
    Counter). Returns every row in payload order, the Counters' sum, and
    one {"payloads", "wall_s"} per block, in deal order, timed in its worker.
    """
    n = max(1, min(jobs, len(payloads), _cpus()))
    blocks = _pmap(functools.partial(_timed_block, block), [payloads[b::n] for b in range(n)], jobs)
    rows: list = [None] * len(payloads)
    for b, (block_rows, _, _) in enumerate(blocks):
        rows[b::n] = block_rows
    deal = [{"payloads": len(block_rows), "wall_s": s} for block_rows, _, s in blocks]
    return rows, sum((counts for _, counts, _ in blocks), Counter()), deal


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

#: A sweep makes one block per this many lane-rounds (2 x matches x iterations),
#: up to jobs. A second block saves about 0.1 us a lane-round and its pool costs
#: about 0.03 s; they broke even at 0.22-0.29 M lane-rounds (BENCH_sweep_blocks.json),
#: so a sweep splits in two only from twice that.
MIN_BLOCK_LANE_ROUNDS = 250_000


def run_matches(
    pairs: Sequence[tuple[MatrixPlayer, MatrixPlayer]],
    matrix: PayoffMatrix,
    iterations: int,
    rngs: Sequence[np.random.Generator],
    traces: Sequence[list] | None = None,
) -> tuple[MatrixLanes, np.ndarray]:
    """Play every pair's repeated one-shot match in lockstep, pair k from rngs[k].

    Pair k's players are lanes k and len(pairs) + k of the returned
    MatrixLanes, which holds their final state. Also returns the actions:
    actions[t, lane] is True where that lane played C in iteration t. Each
    iteration takes two draws from the pair's generator, first player's
    first, exactly as the pair's match played alone. Pass one list per pair
    as traces to also collect one TRACE_COLUMNS row per iteration.
    """
    n = len(pairs)
    lanes = MatrixLanes([pair[0] for pair in pairs] + [pair[1] for pair in pairs])
    first = np.arange(n)
    second = first + n
    actions = np.empty((iterations, 2 * n), dtype=bool)
    for start in range(0, iterations, DRAW_CHUNK):
        stop = min(start + DRAW_CHUNK, iterations)
        draws = np.stack([rng.random((stop - start, 2)) for rng in rngs], axis=2)
        for t, (u_first, u_second) in enumerate(draws, start):
            c, _, phi, psychological = lanes.play(first, second, u_first, u_second, matrix)
            actions[t] = c
            if traces is not None:
                for k, trace in enumerate(traces):
                    trace.append(_trace_row(t, lanes, (k, n + k), c, phi, psychological, matrix))
    return lanes, actions


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
    pairs = [
        tuple(make_matrix_agent(variant, spec.agent_params, spec.probabilities[k]) for k in (i, j))
        for _, variant, i, j, _, _ in payloads
    ]
    rngs = [_rng_for(base_seed, i, j, rep) for _, _, i, j, rep, base_seed in payloads]
    lanes, actions = run_matches(pairs, spec.matrix, spec.iterations, rngs, traces)
    n = len(pairs)
    coop = lanes.p_cooperate()[:n].tolist()
    window = actions[-spec.measure_window :, :n]
    cooperated = window.sum(axis=0).tolist()
    probs = spec.probabilities
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

    One block per MIN_BLOCK_LANE_ROUNDS lane-rounds, at least one and at
    most jobs. The random stream for a grid cell depends only on (base_seed,
    cell, repetition), never on the variant, so variants face identical luck.
    """
    payloads = [
        (spec, variant, i, j, rep, base_seed)
        for variant in spec.variants
        for i in range(len(spec.probabilities))
        for j in range(len(spec.probabilities))
        for rep in range(spec.repetitions)
    ]
    lane_rounds = 2 * len(payloads) * spec.iterations
    jobs = min(jobs, max(1, lane_rounds // MIN_BLOCK_LANE_ROUNDS))
    rows, _, deal = _deal(_sweep_block, payloads, jobs)
    return RunResult(SWEEP_COLUMNS, rows, spec, {"blocks": deal})


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


def _make_group(composition: str, size: int, spec: TournamentSpec) -> list[MatrixPlayer]:
    pavlov = PavlovState(i_count=round(spec.pavlov_n * spec.pavlov_p0), n=spec.pavlov_n)
    if composition == "pavlov":
        return [pavlov for _ in range(size)]
    if composition == "tomaga":
        return [make_matrix_agent("tomaga", spec.agent_params) for _ in range(size)]
    if composition == "tom-no-guilt":
        return [make_matrix_agent("tom-no-guilt", spec.agent_params) for _ in range(size)]
    # heterogeneous: one guilt-averse ToM agent among Pavlov players
    return [make_matrix_agent("tomaga", spec.agent_params)] + [pavlov] * (size - 1)


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
    players: list[MatrixPlayer] = []
    for _, comp_idx, size_idx, rep, base_seed in payloads:
        size = spec.group_sizes[size_idx]
        groups.append((size, _rng_for(base_seed, comp_idx, size_idx, rep), len(players)))
        players += _make_group(spec.compositions[comp_idx], size, spec)
    lanes = MatrixLanes(players)
    # a round's rewards in pair order, actor then partner: group g's are bounds[g]:bounds[g + 1]
    bounds = list(itertools.accumulate((size - size % 2 for size, _, _ in groups), initial=0))
    window_from = spec.rounds - min(spec.report_window, spec.rounds)
    commons: list[list[float]] = [[] for _ in groups]
    for start in range(0, spec.rounds, DRAW_CHUNK):
        rounds = min(DRAW_CHUNK, spec.rounds - start)
        columns = []  # per group: its first players, second players and their draws
        for size, rng, lane0 in groups:
            matched = size - size % 2
            order = np.tile(np.arange(size), (rounds, 1))
            draws = np.empty((rounds, matched))
            for t in range(rounds):
                rng.shuffle(order[t])  # what rng.permutation(size) draws
                rng.random(out=draws[t])
            order += lane0
            columns.append(
                (order[:, 0:matched:2], order[:, 1:matched:2], draws[:, 0::2], draws[:, 1::2])
            )
        first, second, u_first, u_second = (np.concatenate(part, axis=1) for part in zip(*columns))
        for t in range(rounds):
            _, reward, _, _ = lanes.play(first[t], second[t], u_first[t], u_second[t], spec.matrix)
            if start + t < window_from:
                continue
            rewards = np.column_stack((reward[first[t]], reward[second[t]])).ravel().tolist()
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
    chosen agent sits out. Groups run in min(jobs, groups, CPUs) lockstep blocks.
    """
    payloads = [
        (spec, comp_idx, size_idx, rep, base_seed)
        for comp_idx in range(len(spec.compositions))
        for size_idx in range(len(spec.group_sizes))
        for rep in range(spec.repetitions)
    ]
    rows, _, deal = _deal(_tournament_block, payloads, jobs)
    return RunResult(TOURNAMENT_COLUMNS, rows, spec, {"blocks": deal})


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


GRIDWORLD_COLUMNS = (
    "scenario", "variant", "seed", "iterations_to_threshold",
    "final_c_prop", "final_u_prop", "final_unknown_prop",
)


def _gridworld_lane(
    spec: GridworldSpec, scen_idx: int, var_idx: int, seed_index: int, base_seed: int
):
    """One comparison run's learners, grid and generator, for policy_learner.run_lanes.

    The run's stream depends only on (base_seed, scenario, variant, seed
    index), so the aggregate row and its detail replay see the same run.
    """
    config = make_scenario(spec.scenarios[scen_idx])
    config = dataclasses.replace(config, stag_motion=spec.stag_motion)
    learners = tuple(make_grid_learner(spec.variants[var_idx], spec) for _ in range(2))
    return learners, config, _rng_for(base_seed, scen_idx, var_idx, seed_index)


def _gridworld_block(payloads) -> tuple[list[tuple], Counter]:
    """The gridworld.csv rows of a block of runs played in lockstep, in payload order,
    and the block's count of episodes by how they ended, and of their steps."""
    spec = payloads[0][0]
    lanes = [_gridworld_lane(*payload) for payload in payloads]
    ends: Counter = Counter()
    labels_by_iteration = []
    for played in run_lanes(lanes, spec.iterations):
        labels_by_iteration.append([record.labels for record, _ in played])
        for record, _ in played:
            ends[record.event.kind] += 1
            ends["steps"] += len(record.transitions)
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
    """Every (scenario, variant, seed) run, in min(jobs, runs, CPUs) lockstep blocks.

    Runs are dealt round-robin, so that each block mixes cheap and costly ones.
    The telemetry gives how many episodes ended in each way, their mean
    length, and the deal's blocks.
    """
    payloads = [
        (spec, scen_idx, var_idx, seed_idx, base_seed)
        for scen_idx in range(len(spec.scenarios))
        for var_idx in range(len(spec.variants))
        for seed_idx in range(spec.seeds)
    ]
    rows, ends, deal = _deal(_gridworld_block, payloads, jobs)
    return RunResult(GRIDWORLD_COLUMNS, rows, spec, {
        "episode_ends": {kind: ends[kind] for kind in ("stag_joint", "hare", "timeout")},
        "episode_length_mean": ends["steps"] / (len(payloads) * spec.iterations),
        "blocks": deal,
    })


GRIDWORLD_DETAIL_COLUMNS = (
    "iteration", "episode_length", "label_0", "label_1", "reward_0", "reward_1",
    "phi_0", "psy_0", "shaped_0", "phi_1", "psy_1", "shaped_1",
    "c_prop_0", "c_prop_1",
    "b0_0", "b1_0", "conf_0", "b0_1", "b1_1", "conf_1",
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
    logged run is the same one that produced the aggregate row. Pass a list
    as episode_log to also capture each episode's transition rows.
    """
    scen_idx = spec.scenarios.index(scenario)
    var_idx = spec.variants.index(variant)
    history: list = []
    rows: list[tuple] = []
    lane = _gridworld_lane(spec, scen_idx, var_idx, seed_index, base_seed)
    for it, [(record, details)] in enumerate(run_lanes([lane], spec.iterations)):
        history.append(record.labels)
        chunk = history[-spec.window :]
        c_props = tuple(
            sum(1 for pair in chunk if pair[i] is C) / len(chunk) for i in range(2)
        )
        toms = tuple(learner.tom for learner in lane[0])
        rows.append(
            (
                it, len(record.transitions),
                str(record.labels[0]), str(record.labels[1]),
                record.terminal_rewards[0], record.terminal_rewards[1],
                details[0].phi, details[0].psychological, details[0].shaped,
                details[1].phi, details[1].psychological, details[1].shaped,
                c_props[0], c_props[1],
                toms[0].zero_order.p_cooperative, toms[0].first_order.p_cooperative,
                toms[0].confidence,
                toms[1].zero_order.p_cooperative, toms[1].first_order.p_cooperative,
                toms[1].confidence,
            )
        )
        if episode_log is not None:
            episode_log.extend((it, *row) for row in episode_transition_rows(record))
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
