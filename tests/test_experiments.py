import dataclasses
import os
import re
import signal
import time
from collections import Counter

import numpy as np
import pytest

from engine_helpers import (
    belief_state,
    grid_learner,
    observation_key,
    outcomes,
    reference_detail,
    reference_lanes,
    run_episode,
)
from scalar_beliefs import beliefs_of, make_tom_state
from staghunt import PayoffMatrix, experiments, policy_learner
from staghunt.experiments import (
    DRAW_CHUNK,
    GRID_VARIANTS,
    AgentParams,
    GridworldSpec,
    RunResult,
    SweepSpec,
    TournamentSpec,
    _gridworld_block,
    _rng_for,
    gridworld_lanes,
    gridworld_threshold_summary,
    matrix_lanes,
    run_gridworld_comparison,
    run_gridworld_detail,
    run_sweep,
    run_tournament,
    sweep_cell_means,
    tournament_means,
)
from staghunt.gridworld import make_scenario
from staghunt.policy_learner import ACTIONS, N_ACTIONS, LearnerConfig, _softmax, run_lanes
from staghunt.shaping import Beliefs, InequityParams


# --- self-play sweep -----------------------------------------------------------


def small_sweep(**kwargs):
    defaults = dict(probabilities=(0.0, 1.0), iterations=120, repetitions=3)
    defaults.update(kwargs)
    return SweepSpec(**defaults)


def test_sweep_is_deterministic_in_spec_and_seed():
    spec = small_sweep(probabilities=(0.4, 0.6), iterations=30)
    first = run_sweep(spec, base_seed=42)
    second = run_sweep(spec, base_seed=42)
    assert first.rows == second.rows
    assert first.rows != run_sweep(spec, base_seed=43).rows


def test_sweep_from_certain_cooperation_stays_cooperative():
    spec = small_sweep(probabilities=(1.0,), variants=("tomaga",), iterations=500, repetitions=5)
    cells = sweep_cell_means(run_sweep(spec, base_seed=1))
    assert cells[("tomaga", 1.0, 1.0)] >= 0.95


def test_individual_learners_defect_from_certain_defection():
    spec = small_sweep(probabilities=(0.0,), variants=("individual",), iterations=500, repetitions=5)
    cells = sweep_cell_means(run_sweep(spec, base_seed=1))
    assert cells[("individual", 0.0, 0.0)] <= 0.2


def test_sweep_rows_schema():
    result = run_sweep(small_sweep(), base_seed=0)
    assert result.columns == (
        "variant", "p_init_0", "p_init_1", "repetition",
        "final_coop_softmax", "final_coop_freq",
    )
    variants = {row[0] for row in result.rows}
    assert variants == {"tomaga", "ga-no-tom"}
    for row in result.rows:
        assert 0.0 <= row[4] <= 1.0
        assert 0.0 <= row[5] <= 1.0


def test_sweep_block_rows_are_those_of_one_payload_blocks(monkeypatch):
    """A block makes one generator per stream (base seed, cell, repetition), and each
    match draws from its stream as if it played alone: with the cell's variants in one
    block, in blocks apart, or in any order."""
    sweep = small_sweep(probabilities=(0.0, 0.3, 1.0), iterations=DRAW_CHUNK + 20, repetitions=1,
                        variants=("tomaga", "individual", "ga-no-tom"))
    payloads = [(sweep, variant, i, j, 0, 5) for variant in sweep.variants
                for i in range(3) for j in range(3)]
    alone = {p: experiments._sweep_block([p])[0][0] for p in payloads}
    made = []
    rng_for = experiments._rng_for
    monkeypatch.setattr(experiments, "_rng_for", lambda *key: made.append(key) or rng_for(*key))
    # 9 cells a variant: dealt in two, a cell's neighbouring variants land in blocks apart
    for block in (payloads, payloads[::-1], payloads[0::2], payloads[1::2]):
        made.clear()
        assert experiments._sweep_block(block)[0] == [alone[p] for p in block]
        assert sorted(made) == sorted({(5, i, j, 0) for _, _, i, j, _, _ in block})


def test_sweep_spec_validation():
    with pytest.raises(ValueError):
        SweepSpec(probabilities=(0.5, 1.2))
    with pytest.raises(ValueError):
        SweepSpec(repetitions=0)
    with pytest.raises(ValueError, match="unknown variant 'pavlov-ish'"):
        matrix_lanes(["pavlov-ish"], [0.5], AgentParams(), None)


def test_sweep_parallel_jobs_match_serial():
    spec = small_sweep(iterations=40)
    serial = run_sweep(spec, base_seed=9, jobs=1)
    parallel = run_sweep(spec, base_seed=9, jobs=2)
    assert sorted(serial.rows) == sorted(parallel.rows)


# --- tournament ------------------------------------------------------------------


def test_fully_cooperative_pavlov_group_earns_h_forever():
    spec = TournamentSpec(
        group_sizes=(4,), rounds=60, report_window=20, repetitions=2,
        compositions=("pavlov",), pavlov_p0=1.0,
    )
    means = tournament_means(run_tournament(spec, base_seed=5))
    assert means[("pavlov", 4)] == pytest.approx(5.0)


def test_tomaga_pair_converges_to_mutual_cooperation():
    spec = TournamentSpec(
        group_sizes=(2,), rounds=800, report_window=100, repetitions=3,
        compositions=("tomaga",),
    )
    means = tournament_means(run_tournament(spec, base_seed=2))
    assert means[("tomaga", 2)] >= 4.9


def test_common_reward_lies_in_payoff_range():
    spec = TournamentSpec(
        group_sizes=(2, 3), rounds=50, report_window=10, repetitions=2,
        compositions=("heterogeneous", "pavlov"),
    )
    result = run_tournament(spec, base_seed=3)
    matrix = spec.matrix
    for _comp, _size, _rep, reward in result.rows:
        assert matrix.g <= reward <= matrix.h


def test_odd_group_sizes_sit_one_agent_out():
    spec = TournamentSpec(
        group_sizes=(3,), rounds=30, report_window=10, repetitions=1,
        compositions=("pavlov",),
    )
    result = run_tournament(spec, base_seed=1)
    assert len(result.rows) == 1  # runs without error; one agent idle per round


def test_tournament_reproducible():
    spec = TournamentSpec(group_sizes=(2,), rounds=100, report_window=20, repetitions=2)
    assert run_tournament(spec, base_seed=7).rows == run_tournament(spec, base_seed=7).rows


def test_tournament_spec_validation():
    with pytest.raises(ValueError):
        TournamentSpec(group_sizes=(1,))
    with pytest.raises(ValueError):
        TournamentSpec(compositions=("axelrod",))


# --- grid-world comparison ---------------------------------------------------------


# no value here is a GridworldSpec default
UNUSUAL = dict(
    theta=3.5, inequity_advantageous=0.25, inequity_disadvantageous=0.75,
    zero_order=0.2, first_order=0.7, confidence=0.9, learning_rate=0.3,
    step_size=0.4, gamma=0.95, clip_ratio=0.1, epochs=3, entropy_weight=0.02,
    time_bucket_width=5, stag_motion="random_walk",
)


@pytest.mark.parametrize("variant", GRID_VARIANTS)
def test_a_grid_learner_takes_every_setting_from_its_spec(variant):
    spec = GridworldSpec(variants=(variant,), **UNUSUAL)
    [(learners, _, _)], beliefs = gridworld_lanes([(spec, 0, 0, 0, 0)])
    for slot, learner in enumerate(learners):
        assert learner.policy.table.hyper == LearnerConfig(
            step_size=0.4, gamma=0.95, clip_ratio=0.1, epochs=3, entropy_weight=0.02,
            time_bucket_width=5,
        )
        assert learner.policy.rows == {}
        assert belief_state(beliefs, slot) == make_tom_state(
            0.2, 0.7, 0.9, 0.3, tom_enabled=(variant == "tomaga"))
        guilty = variant in ("tomaga", "ga-no-tom")
        assert beliefs.neg_theta[slot] == (-3.5 if guilty else 0.0)
        assert learner.inequity == (InequityParams(0.25, 0.75) if variant == "inequity" else None)


@pytest.mark.parametrize("settings", [
    UNUSUAL,
    # a config may give a belief, confidence or theta as an int (JSON 1)
    dict(theta=2, zero_order=1, first_order=0, confidence=1, learning_rate=0),
], ids=["floats", "ints"])
def test_gridworld_lanes_match_the_per_learner_setup_they_replace(settings):
    """A block of both layouts and all four variants: every column of its Beliefs,
    byte for byte, is that of a Beliefs built from each learner's own ToMState and
    GuiltParams; each learner's config and inequity, its lane's grid and its
    generator are the ones the per-learner setup gave it."""
    spec = GridworldSpec(seeds=2, **settings)
    payloads = _payloads(spec, 31)
    lanes, beliefs = gridworld_lanes(payloads)
    refs = [grid_learner(spec.variants[var_idx], spec) for _, _, var_idx, _, _ in payloads
            for _ in range(2)]
    expected = beliefs_of([ref.tom for ref in refs], [ref.guilt for ref in refs])
    for name in Beliefs.__slots__:
        ours, theirs = getattr(beliefs, name), getattr(expected, name)
        assert ours.dtype == theirs.dtype and ours.shape == theirs.shape, name
        assert ours.tobytes() == theirs.tobytes(), name
    learners = [learner for pair, _, _ in lanes for learner in pair]
    assert [learner.policy.table.hyper for learner in learners] == [ref.hyper for ref in refs]
    assert [learner.inequity for learner in learners] == [ref.inequity for ref in refs]
    for (_, config, rng), (_, scen_idx, var_idx, seed_idx, base_seed) in zip(lanes, payloads):
        layout = make_scenario(spec.scenarios[scen_idx])
        assert config == dataclasses.replace(layout, stag_motion=spec.stag_motion)
        assert (rng.bit_generator.state
                == _rng_for(base_seed, scen_idx, var_idx, seed_idx).bit_generator.state)


def test_gridworld_comparison_rows_and_summary():
    spec = GridworldSpec(
        scenarios=("near-stag",), variants=("individual", "tomaga"),
        seeds=2, iterations=40, window=10,
    )
    result = run_gridworld_comparison(spec, base_seed=0)
    assert len(result.rows) == 4
    for scenario, variant, seed, reached, c_prop, u_prop, unknown_prop in result.rows:
        assert scenario == "near-stag"
        assert variant in ("individual", "tomaga")
        assert reached == -1 or 0 <= reached < 40
        assert c_prop + u_prop + unknown_prop == pytest.approx(1.0)
    summary = gridworld_threshold_summary(result)
    assert summary[("near-stag", "tomaga")]["n_runs"] == 2


def test_gridworld_parallel_jobs_match_serial(monkeypatch):
    # 9 runs: at jobs 2 the round-robin blocks hold 5 and 4 of them, at jobs 3 three each
    monkeypatch.setattr(experiments, "_cpus", lambda: 3)
    monkeypatch.setattr(experiments, "MIN_GRID_BLOCK_LANE_ITERATIONS", 1)
    spec = GridworldSpec(scenarios=("near-stag",), variants=("individual", "inequity", "tomaga"),
                         seeds=3, iterations=40, window=10)
    serial = run_gridworld_comparison(spec, base_seed=17, jobs=1)
    for jobs, payloads in ((2, [5, 4]), (3, [3, 3, 3])):
        result = run_gridworld_comparison(spec, base_seed=17, jobs=jobs)
        assert result.rows == serial.rows
        assert [block["payloads"] for block in result.telemetry["blocks"]] == payloads


def _lane_trace(lanes, beliefs, iterations):
    """Per lane: every iteration's outcome, then its final beliefs and tables."""
    traces = [[] for _ in lanes]
    for batch in run_lanes(lanes, beliefs, iterations):
        for trace, (record, details) in zip(traces, outcomes(batch)):
            trace.append((record.labels, record.terminal_rewards, record.length, details))
    for lane, (trace, (learners, _, _)) in enumerate(zip(traces, lanes)):
        for i, learner in enumerate(learners):
            policy = learner.policy
            trace.append(belief_state(beliefs, 2 * lane + i))
            trace.append(sorted((k, policy.table.prefs[r].tolist(), policy.table.values[r])
                                for k, r in policy.rows.items()))
    return traces


def _payloads(spec, base_seed):
    return [
        (spec, scen_idx, var_idx, seed_idx, base_seed)
        for scen_idx in range(len(spec.scenarios))
        for var_idx in range(len(spec.variants))
        for seed_idx in range(spec.seeds)
    ]


@pytest.mark.parametrize("stag_motion", ["static", "random_walk"])
def test_lockstep_lanes_match_each_run_played_alone(stag_motion):
    """Sharing an update with other runs changes no bit of a run's results."""
    spec = GridworldSpec(seeds=2, iterations=60, stag_motion=stag_motion)
    payloads = _payloads(spec, 5)
    together = _lane_trace(*gridworld_lanes(payloads), spec.iterations)
    alone = [_lane_trace(*gridworld_lanes([p]), spec.iterations)[0] for p in payloads]
    assert together == alone
    rows, ends = _gridworld_block(payloads)
    alone_blocks = [_gridworld_block([p]) for p in payloads]
    assert rows == [block_rows[0] for block_rows, _ in alone_blocks]
    assert ends == sum((block_ends for _, block_ends in alone_blocks), Counter())


@pytest.mark.parametrize("stag_motion", ["static", "random_walk"])
def test_cached_distributions_are_the_per_row_ones_after_every_update(stag_motion):
    spec = GridworldSpec(seeds=1, iterations=40, stag_motion=stag_motion)
    lanes, beliefs = gridworld_lanes(_payloads(spec, 9))
    policies = [learner.policy for learners, _, _ in lanes for learner in learners]
    for _ in run_lanes(lanes, beliefs, spec.iterations):
        table = policies[0].table
        # every row an episode reached was updated, so every row has an entry
        assert len(table.dists) == sum(len(policy.rows) for policy in policies)
        assert None not in table.dists
        for policy in policies:
            for r in policy.rows.values():
                probs, cdf = table.dists[r]
                expected = _softmax(table.prefs[r])
                total = expected.cumsum()
                assert probs == expected.tolist()
                assert cdf == (total / total[-1]).tolist()


def _choice_policy(learners, config, behaviour_probs):
    """The per-row draw the cached one replaced: softmax of the current row (a zero
    row for an unseen key), then Generator.choice; logs each behaviour probability."""
    cells = config.width * config.height

    def joint_policy(state, agent_index, step_rng):
        policy = learners[agent_index].policy
        key = observation_key(state, agent_index, policy.table.hyper.time_bucket_width, cells)
        r = policy.rows.get(key)
        probs = _softmax(np.zeros(N_ACTIONS) if r is None else policy.table.prefs[r])
        idx = int(step_rng.choice(N_ACTIONS, p=probs))
        behaviour_probs[agent_index].append(float(probs[idx]))
        return ACTIONS[idx]

    return joint_policy


@pytest.mark.parametrize("stag_motion", ["static", "random_walk"])
def test_play_from_cached_distributions_matches_a_choice_reference(stag_motion, monkeypatch):
    """Every episode, replayed from the same generator state under the reference
    policy, takes the same steps with the same behaviour probabilities: checked
    as the block's update receives them, before the update."""
    spec = GridworldSpec(seeds=1, iterations=60, stag_motion=stag_motion)
    lanes, beliefs = gridworld_lanes(_payloads(spec, 13))
    logs = [[] for _ in lanes]
    states = [rng.bit_generator.state for _, _, rng in lanes]
    replays: list = []
    update = policy_learner.update_policies

    def replay_then_update(table, rows, actions, probs, returns):
        behaviour = iter(probs)
        for k, ((learners, config, rng), log) in enumerate(zip(lanes, logs)):
            replay_rng = np.random.default_rng()
            replay_rng.bit_generator.state = states[k]
            behaviour_probs = ([], [])
            replay = run_episode(config, _choice_policy(learners, config, behaviour_probs),
                                 replay_rng)
            assert replay.transitions == log
            assert [[next(behaviour) for _ in log] for _ in range(2)] == list(behaviour_probs)
            assert replay_rng.bit_generator.state == rng.bit_generator.state
            replays.append(replay)
            states[k] = rng.bit_generator.state
            log.clear()
        update(table, rows, actions, probs, returns)

    monkeypatch.setattr(policy_learner, "update_policies", replay_then_update)
    for batch in run_lanes(lanes, beliefs, spec.iterations, logs):
        assert [replay.labels for replay in replays] == [record.labels
                                                         for record, _ in outcomes(batch)]
        replays.clear()


def _bits(values) -> bytes:
    """The bytes of a sequence of floats, None as NaN: tells -0.0 from 0.0."""
    return np.array([np.nan if v is None else v for v in values], dtype=float).tobytes()


@pytest.mark.parametrize("stag_motion", ["static", "random_walk"])
def test_flat_batch_play_matches_the_reference_play_iteration(stag_motion):
    """Blocks of 1, 4 and 16 lanes, both layouts and all four variants: every
    iteration, each lane's labels, end kind, length, terminal and shaped rewards,
    phi and psychological reward are the per-episode reference's bytes, and so are
    the block's table and beliefs after the run; one run's detail rows and episode
    log are those of the reference's replay."""
    spec = GridworldSpec(seeds=2, iterations=60, stag_motion=stag_motion)
    payloads = _payloads(spec, 29)
    seen = Counter()
    for block in ([payloads[5]], payloads[::4], payloads):
        (ours, our_beliefs), (theirs, their_beliefs) = (gridworld_lanes(block) for _ in range(2))
        for batch, played in zip(run_lanes(ours, our_beliefs, spec.iterations),
                                 reference_lanes(theirs, their_beliefs, spec.iterations)):
            for (record, details), (ref, ref_details) in zip(outcomes(batch), played):
                assert record.labels == ref.labels
                assert (record.kind, record.length) == (ref.event.kind, len(ref.transitions))
                assert _bits(record.terminal_rewards) == _bits(ref.terminal_rewards)
                for detail, ref_detail in zip(details, ref_details):
                    assert (_bits((detail.phi, detail.psychological, detail.shaped))
                            == _bits((ref_detail.phi, ref_detail.psychological,
                                      ref_detail.shaped)))
                seen[record.kind] += 1
                seen["guilt"] += any(detail.phi is not None for detail in details)
        table, ref_table = (lanes[0][0][0].policy.table for lanes in (ours, theirs))
        assert table.prefs.tobytes() == ref_table.prefs.tobytes()
        assert _bits(table.values) == _bits(ref_table.values)
        assert table.dists == ref_table.dists
        assert ([learner.policy.rows for learners, _, _ in ours for learner in learners]
                == [learner.policy.rows for learners, _, _ in theirs for learner in learners])
        assert our_beliefs.b.tobytes() == their_beliefs.b.tobytes()
        assert our_beliefs.conf.tobytes() == their_beliefs.conf.tobytes()
    assert min(seen.values()) >= 20, seen
    episode_log, ref_log = [], []
    run = ("near-stag", "tomaga", 1)
    assert (run_gridworld_detail(spec, *run, base_seed=29, episode_log=episode_log).rows
            == reference_detail(spec, *run, base_seed=29, episode_log=ref_log).rows)
    assert episode_log == ref_log and len(ref_log) > spec.iterations


def _processes(result) -> int:
    """The blocks of a run, checking that block 0 ran here and every other in its own child."""
    pids = [block["pid"] for block in result.telemetry["blocks"]]
    assert pids[0] == os.getpid()
    assert len(set(pids)) == len(pids)
    return len(pids)


def test_pool_has_no_more_workers_than_payloads(monkeypatch):
    monkeypatch.setattr(experiments, "_cpus", lambda: 64)
    # the grid world and the tournament split at every lane-iteration and lane-round
    monkeypatch.setattr(experiments, "MIN_GRID_BLOCK_LANE_ITERATIONS", 1)
    monkeypatch.setattr(experiments, "MIN_TOURNAMENT_BLOCK_LANE_ROUNDS", 1)
    results = experiments._pmap(lambda x: (abs(x), os.getpid()), [-1, -2, -3], 64)
    assert [value for value, _ in results] == [1, 2, 3]
    pids = [pid for _, pid in results]
    assert pids[0] == os.getpid() and len(set(pids)) == 3
    spec = GridworldSpec(scenarios=("near-stag",), variants=("tomaga",), seeds=2,
                         iterations=5, window=5)
    result = run_gridworld_comparison(spec, base_seed=1, jobs=64)
    assert result.rows == run_gridworld_comparison(spec, base_seed=1, jobs=1).rows
    sweep = small_sweep(probabilities=(0.5,), iterations=5, repetitions=1, variants=("tomaga",))
    assert _processes(run_sweep(sweep, base_seed=1, jobs=8)) == 1  # one payload: no child
    # 72 matches of 5 iterations are 720 lane-rounds, far below MIN_BLOCK_LANE_ROUNDS: one
    # block, played here
    sweep = small_sweep(probabilities=(0.0, 0.5, 1.0), iterations=5, repetitions=4)
    split = run_sweep(sweep, base_seed=1, jobs=2)
    assert split.rows == run_sweep(sweep, base_seed=1).rows
    assert _processes(split) == 1
    # one payload per process: 6 groups at 3 jobs go as 3 blocks
    tournament = TournamentSpec(group_sizes=(2, 3), rounds=5, report_window=5, repetitions=3,
                                compositions=("pavlov",))
    assert [len(pids), _processes(result),
            _processes(run_tournament(tournament, base_seed=1, jobs=3))] == [3, 2, 3]


def test_deal_has_no_more_blocks_than_cpus(monkeypatch):
    if hasattr(os, "sched_getaffinity"):
        assert experiments._cpus() == len(os.sched_getaffinity(0))
        monkeypatch.delattr(os, "sched_getaffinity")
    assert experiments._cpus() == (os.cpu_count() or 1)
    monkeypatch.setattr(experiments, "MIN_TOURNAMENT_BLOCK_LANE_ROUNDS", 1)
    tournament = TournamentSpec(group_sizes=(2, 3), rounds=5, report_window=5, repetitions=3,
                                compositions=("pavlov",))
    serial = run_tournament(tournament, base_seed=1).rows
    monkeypatch.setattr(experiments, "_cpus", lambda: 2)
    result = run_tournament(tournament, base_seed=1, jobs=500)
    assert result.rows == serial
    assert [block["payloads"] for block in result.telemetry["blocks"]] == [3, 3]
    assert _processes(result) == 2
    monkeypatch.setattr(experiments, "_cpus", lambda: 1)  # one block, played here
    result = run_tournament(tournament, base_seed=1, jobs=500)
    assert result.rows == serial
    assert _processes(result) == 1


@pytest.mark.parametrize("jobs", [1, 2, 3])
def test_sweep_makes_one_block_per_min_block_lane_rounds(monkeypatch, jobs):
    monkeypatch.setattr(experiments, "_cpus", lambda: 64)
    # 4 matches of 5 iterations: 40 lane-rounds
    sweep = small_sweep(iterations=5, repetitions=1, variants=("tomaga",))
    monkeypatch.setattr(experiments, "MIN_BLOCK_LANE_ROUNDS", 41)
    result = run_sweep(sweep, jobs=jobs)
    assert [b["payloads"] for b in result.telemetry["blocks"]] == [4]
    assert _processes(result) == 1
    monkeypatch.setattr(experiments, "MIN_BLOCK_LANE_ROUNDS", 20)
    result = run_sweep(sweep, jobs=jobs)
    assert [b["payloads"] for b in result.telemetry["blocks"]] == ([4] if jobs == 1 else [2, 2])
    assert _processes(result) == (1 if jobs == 1 else 2)


def _open_fds():
    return sorted(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else None


@pytest.fixture
def leaves_nothing_open():
    """The test's forks leave no child behind and, where /proc lists them, no descriptor."""
    fds = _open_fds()
    yield
    assert _open_fds() == fds
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# each spec at iterations (rounds) 5 and 4: work_per_block 20 and 16 lane-rounds (4 matches),
# 25 and 20 (two groups of 2 and 3 lanes a repetition), 10 and 8 lane-iterations (4 runs)
@pytest.mark.parametrize("run, constant, spec, break_even", [
    (run_sweep, "MIN_BLOCK_LANE_ROUNDS",
     small_sweep(iterations=5, repetitions=1, variants=("tomaga",)), 20),
    (run_tournament, "MIN_TOURNAMENT_BLOCK_LANE_ROUNDS",
     TournamentSpec(group_sizes=(2, 3), rounds=5, report_window=4, repetitions=2,
                    compositions=("heterogeneous",)), 25),
    (run_gridworld_comparison, "MIN_GRID_BLOCK_LANE_ITERATIONS",
     GridworldSpec(scenarios=("near-stag",), variants=("individual", "tomaga"), seeds=2,
                   iterations=5, window=4), 10),
], ids=["sweep", "tournament", "gridworld"])
def test_jobs_2_plays_forked_blocks_only_from_the_break_even(monkeypatch, leaves_nothing_open,
                                                              run, constant, spec, break_even):
    """Below its break-even a run plays one block, here; from it, min(jobs, CPUs) blocks,
    each but the first forked; the rows are those of jobs 1 on both sides, and the
    telemetry's deal gives the inputs of the split."""
    monkeypatch.setattr(experiments, "_cpus", lambda: 2)
    monkeypatch.setattr(experiments, constant, break_even)
    rounds = "rounds" if isinstance(spec, TournamentSpec) else "iterations"
    below = dataclasses.replace(spec, **{rounds: 4})
    for case, work_per_block, blocks in ((below, 4 * break_even // 5, 1), (spec, break_even, 2)):
        result = run(case, base_seed=3, jobs=2)
        assert result.rows == run(case, base_seed=3, jobs=1).rows
        assert result.telemetry["deal"] == {"jobs": 2, "cpus": 2, "work_per_block": work_per_block,
                                            "break_even": break_even}
        assert _processes(result) == blocks


@pytest.mark.skipif(_open_fds() is None, reason="no /proc to list descriptors")
def test_forked_blocks_leave_no_descriptor_open(leaves_nothing_open):
    # each child's result is far larger than a pipe's buffer
    results = experiments._pmap(lambda x: [x] * 100_000, [0, 1, 2], 3)
    assert [len(r) for r in results] == [100_000] * 3
    assert [r[-1] for r in results] == [0, 1, 2]


def test_forked_block_exception_reaches_the_caller(leaves_nothing_open):
    def worker(x):
        if os.getpid() != caller:
            raise KeyError(f"payload {x}")
        return x

    caller = os.getpid()
    with pytest.raises(KeyError, match="payload 1"):
        experiments._pmap(worker, [0, 1, 2], 3)


def test_forked_caller_block_exception_does_not_wait_for_the_children(leaves_nothing_open):
    def worker(x):
        if x == 0:
            raise ValueError("the caller's block")
        time.sleep(60)
        return x

    start = time.perf_counter()
    with pytest.raises(ValueError, match="the caller's block"):
        experiments._pmap(worker, [0, 1, 2], 3)
    assert time.perf_counter() - start < 30


@pytest.mark.parametrize("worker, status", [
    (lambda x: lambda: x, 1),  # a lambda cannot be pickled
    (lambda x: os.kill(os.getpid(), signal.SIGKILL) if x else x, -signal.SIGKILL),
])
def test_forked_block_without_a_result_names_its_exit_status(leaves_nothing_open, worker,
                                                               status):
    with pytest.raises(RuntimeError, match=f"without a result, exit status {status}$"):
        experiments._pmap(worker, [0, 1], 2)


def test_blocks_without_fork_run_in_the_caller(monkeypatch, leaves_nothing_open):
    monkeypatch.setattr(experiments, "_cpus", lambda: 3)
    monkeypatch.setattr(experiments, "MIN_TOURNAMENT_BLOCK_LANE_ROUNDS", 1)
    tournament = TournamentSpec(group_sizes=(2, 3), rounds=5, report_window=5, repetitions=3,
                                compositions=("pavlov",))
    serial = run_tournament(tournament, base_seed=1).rows
    monkeypatch.delattr(os, "fork")
    result = run_tournament(tournament, base_seed=1, jobs=3)
    assert result.rows == serial
    assert [block["pid"] for block in result.telemetry["blocks"]] == [os.getpid()] * 3


@pytest.mark.parametrize("jobs", [2, 3])
def test_matrix_lockstep_rows_do_not_depend_on_jobs(monkeypatch, jobs):
    # every block a different mix of matches and groups, rows back in payload order
    monkeypatch.setattr(experiments, "_cpus", lambda: jobs)
    sweep = small_sweep(probabilities=(0.0, 0.3, 1.0), iterations=40, repetitions=2,
                        variants=("tomaga", "individual"))
    serial = run_sweep(sweep, base_seed=4).rows
    # 36 matches of 40 iterations: one block, played here, unless split at every lane-round
    result = run_sweep(sweep, base_seed=4, jobs=jobs)
    assert result.rows == serial
    assert [block["payloads"] for block in result.telemetry["blocks"]] == [36]
    monkeypatch.setattr(experiments, "MIN_BLOCK_LANE_ROUNDS", 1)
    result = run_sweep(sweep, base_seed=4, jobs=jobs)
    assert result.rows == serial
    assert [block["payloads"] for block in result.telemetry["blocks"]] == [36 // jobs] * jobs
    tournament = TournamentSpec(group_sizes=(2, 3, 4), rounds=40, report_window=10,
                                repetitions=2, compositions=("heterogeneous", "tom-no-guilt"))
    monkeypatch.setattr(experiments, "MIN_TOURNAMENT_BLOCK_LANE_ROUNDS", 1)
    result = run_tournament(tournament, base_seed=4, jobs=jobs)
    assert result.rows == run_tournament(tournament, base_seed=4).rows
    assert _processes(result) == jobs


def test_gridworld_telemetry_counts_every_episode_by_its_end(monkeypatch):
    # two blocks at jobs 2, so that the count is the sum of both blocks' counts
    monkeypatch.setattr(experiments, "MIN_GRID_BLOCK_LANE_ITERATIONS", 1)
    spec = GridworldSpec(scenarios=("near-stag", "near-hares"), variants=("individual", "tomaga"),
                         seeds=2, iterations=30, window=10, stag_motion="random_walk")
    telemetry = run_gridworld_comparison(spec, base_seed=8, jobs=2).telemetry
    ends = telemetry["episode_ends"]
    assert sum(ends.values()) == 8 * spec.iterations  # runs x iterations
    # the same counts from each run's detail log: joint capture labels both C,
    # a timeout neither C nor U, and a hare leaves a U
    from staghunt.experiments import run_gridworld_detail

    kinds: Counter = Counter()
    lengths = []
    for scenario in spec.scenarios:
        for variant in spec.variants:
            for seed in range(spec.seeds):
                for row in run_gridworld_detail(spec, scenario, variant, seed, base_seed=8).rows:
                    labels = (row[2], row[3])
                    kinds["stag_joint" if labels == ("C", "C") else
                          "timeout" if labels == ("unknown", "unknown") else "hare"] += 1
                    lengths.append(row[1])
    assert ends == dict(kinds)
    assert min(ends.values()) > 0
    assert telemetry["episode_length_mean"] == pytest.approx(sum(lengths) / len(lengths))


def test_gridworld_comparison_reproducible():
    spec = GridworldSpec(scenarios=("near-hares",), variants=("tomaga",), seeds=2,
                         iterations=30, window=10)
    first = run_gridworld_comparison(spec, base_seed=21)
    second = run_gridworld_comparison(spec, base_seed=21)
    assert first.rows == second.rows


# --- result output --------------------------------------------------------------


def test_write_csv_round_trip(tmp_path):
    import csv

    result = run_sweep(small_sweep(iterations=10, repetitions=1), base_seed=0)
    path = tmp_path / "sweep.csv"
    result.write_csv(path)
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert tuple(rows[0]) == result.columns
    assert len(rows) == len(result.rows) + 1


@pytest.mark.parametrize("n_blocks, n_lines", [(1, 1), (500, 3), (1, 5000)],
                         ids=["one-block", "many-blocks", "block-of-many-lines"])
def test_write_csv_writes_str_rows_as_writelines_would(tmp_path, n_blocks, n_lines):
    """Str rows are blocks of whole lines; the file holds them line for line."""
    import csv

    lines = [[f"{b},{k * 0.1!r}\r\n" for k in range(n_lines)] for b in range(n_blocks)]
    RunResult(("k", "x"), ["".join(block) for block in lines]).write_csv(tmp_path / "blocks.csv")
    with open(tmp_path / "lines.csv", "w", newline="") as fh:
        csv.writer(fh).writerow(("k", "x"))
        fh.writelines(line for block in lines for line in block)
    assert (tmp_path / "blocks.csv").read_bytes() == (tmp_path / "lines.csv").read_bytes()


@pytest.mark.parametrize("seed_index", [99, -1, 1.5])
def test_gridworld_detail_rejects_a_run_outside_the_comparison(seed_index):
    from staghunt.experiments import run_gridworld_detail

    spec = GridworldSpec(seeds=2, iterations=5)
    run = re.escape(f"near-stag tomaga {seed_index!r} is not a run of this comparison")
    with pytest.raises(ValueError, match=f"{run}.*seeds 0 to 1"):
        run_gridworld_detail(spec, "near-stag", "tomaga", seed_index)
    assert len(run_gridworld_detail(spec, "near-stag", "tomaga", 1).rows) == 5


def test_gridworld_detail_matches_comparison_run():
    """The detail log replays the exact run the aggregate row came from."""
    from staghunt.experiments import run_gridworld_detail

    spec = GridworldSpec(scenarios=("near-stag",), variants=("tomaga",), seeds=1,
                         iterations=25, window=10)
    aggregate = run_gridworld_comparison(spec, base_seed=13)
    episode_log: list = []
    detail = run_gridworld_detail(spec, "near-stag", "tomaga", 0, base_seed=13,
                                  episode_log=episode_log)
    assert len(detail.rows) == 25
    # c-proportions in the last detail row equal the aggregate's tail stats
    _, _, _, reached, c_prop, _, _ = aggregate.rows[0]
    last = detail.rows[-1]
    assert (last[12] + last[13]) / 2 == pytest.approx(c_prop)
    assert len(episode_log) == sum(row[1] for row in detail.rows)
    # guilt diagnostics only appear on episodes where both labels are known
    for row in detail.rows:
        labels_known = row[2] in ("C", "U") and row[3] in ("C", "U")
        assert (row[6] is not None) == labels_known


def test_near_hares_individual_learners_defect_early():
    """Unshaped learners lock onto hare-hunting almost immediately near the hares."""
    spec = GridworldSpec(
        scenarios=("near-hares",), variants=("individual",), seeds=3,
        iterations=150, window=50,
    )
    result = run_gridworld_comparison(spec, base_seed=31)
    defecting = sum(1 for row in result.rows if row[5] >= 0.8)  # final U proportion
    assert defecting >= 2  # majority of seeds
