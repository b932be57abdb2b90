"""The block's one PolicyTable: run_lanes plays a block on one table and one
Beliefs and refuses lanes it cannot play as one block, and the table grows by
doubling. The update itself is held to the per-item reference in
test_policy_learner.py."""

import dataclasses

import pytest

from engine_helpers import new_policy, preferences
from staghunt.experiments import GridworldSpec, gridworld_lanes
from staghunt.gridworld import config_from_dict
from staghunt.policy_learner import LearnerConfig, run_lanes


def test_run_lanes_rejects_policies_of_two_tables():
    """Two blocks built apart have equal configs but a table each: run_lanes refuses
    to play them as one block, before anything is played."""
    spec = GridworldSpec(variants=("individual",))
    (first, beliefs), (second, _) = (gridworld_lanes([(spec, 0, 0, seed, 0)]) for seed in (0, 1))
    with pytest.raises(ValueError, match="one PolicyTable"):
        next(run_lanes(first + second, beliefs, 1))
    assert not any(learner.policy.rows for pair, _, _ in first + second for learner in pair)


def test_run_lanes_puts_a_block_on_one_table_and_checks_its_config_once():
    """gridworld_lanes builds a block's one PolicyTable, under the spec's config, and
    its one Beliefs, agent i of lane k in slot 2k + i; run_lanes plays the block on
    those two stores and moves nothing between stores."""
    spec = GridworldSpec(seeds=2, iterations=4, epochs=2)
    payloads = [(spec, s, v, seed, 0) for s in range(2) for v in range(4) for seed in range(2)]
    lanes, beliefs = gridworld_lanes(payloads)
    learners = [learner for pair, _, _ in lanes for learner in pair]
    table = learners[0].policy.table
    assert table.hyper == LearnerConfig(step_size=0.5, gamma=0.99, clip_ratio=0.2, epochs=2,
                                        entropy_weight=0.03, time_bucket_width=32)
    assert len({id(learner.policy) for learner in learners}) == 2 * len(lanes)
    assert all(learner.policy.table is table for learner in learners)
    assert [field.name for field in dataclasses.fields(learners[0])] == ["policy", "inequity"]
    assert beliefs.b.shape == (2, 2 * len(lanes))
    before = beliefs.b
    for _ in run_lanes(lanes, beliefs, spec.iterations):
        assert all(learner.policy.table is table for learner in learners)
    assert len(table.values) == sum(len(learner.policy.rows) for learner in learners)
    # the guilt learners' beliefs moved on the block's Beliefs, and no other's did
    moved = (beliefs.b != before).any(axis=0)
    assert moved.any() and not moved[beliefs.neg_theta == 0.0].any()


def test_run_lanes_needs_grids_of_one_label_payoff_table():
    """A block's one guilt step takes one label payoff table: a layout whose
    rewards give another is rejected before anything is played."""
    spec = GridworldSpec(variants=("tomaga",), seeds=2)
    lanes, beliefs = gridworld_lanes([(spec, 0, 0, seed, 0) for seed in range(2)])
    layout = dict(stag_start=[1, 0], agent_starts=[[0, 0], [2, 0]], hare_cells=[[0, 3], [3, 3]])
    other = config_from_dict({**layout, "rewards": {"stag_joint": 5.0}})
    with pytest.raises(ValueError, match="one label payoff table"):
        next(run_lanes([lanes[0], (lanes[1][0], other, lanes[1][2])], beliefs, 1))
    assert not any(learner.policy.rows for pair, _, _ in lanes for learner in pair)


def test_the_table_grows_by_doubling_and_keeps_its_rows():
    policy = new_policy()
    for key in range(20):
        r = policy.row(key)  # before naming table.prefs: a new row may replace the array
        policy.table.prefs[r] = key
    assert len(policy.table.prefs) == 32
    assert preferences(policy)[:, 0].tolist() == list(range(20))
    assert not policy.table.prefs[20:].any()
