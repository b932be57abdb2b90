import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from staghunt.game import C, U, UNKNOWN
from staghunt.gridworld import (
    GridAction,
    GridConfig,
    GridState,
    StepEvent,
    config_from_dict,
    initial_state,
    label_episode,
    make_scenario,
    run_episode,
    step,
)


def simple_config(**overrides) -> GridConfig:
    base = dict(
        width=4,
        height=4,
        obstacles=frozenset({(2, 2)}),
        hare_cells=frozenset({(0, 3), (3, 3)}),
        stag_start=(1, 0),
        agent_starts=((0, 0), (2, 0)),
        t_max=20,
        stag_motion="static",
    )
    base.update(overrides)
    return GridConfig(**base)


# --- movement and termination mechanics ---------------------------------------


def test_joint_move_onto_static_stag_captures_it():
    config = simple_config()
    state = initial_state(config)
    new, event = step(state, config, (GridAction.RIGHT, GridAction.LEFT), np.random.default_rng(0))
    assert new.terminated
    assert event.kind == "stag_joint"
    assert event.rewards == (4.0, 4.0)


def test_lone_hare_capture_pays_three_and_zero():
    config = simple_config(agent_starts=((0, 2), (3, 0)))
    state = initial_state(config)
    new, event = step(state, config, (GridAction.DOWN, GridAction.STAY), np.random.default_rng(0))
    assert event.kind == "hare"
    assert event.rewards == (3.0, 0.0)
    assert event.hare_captors == (True, False)


def test_simultaneous_hare_capture_pays_two_each():
    config = simple_config(agent_starts=((0, 2), (3, 2)))
    state = initial_state(config)
    new, event = step(state, config, (GridAction.DOWN, GridAction.DOWN), np.random.default_rng(0))
    assert event.rewards == (2.0, 2.0)


def test_boundary_move_resolves_to_stay():
    config = simple_config()
    state = initial_state(config)
    new, event = step(state, config, (GridAction.LEFT, GridAction.UP), np.random.default_rng(0))
    assert new.agent_positions == ((0, 0), (2, 0))


def test_obstacle_move_resolves_to_stay():
    config = simple_config(agent_starts=((2, 1), (3, 0)))
    state = initial_state(config)
    new, _ = step(state, config, (GridAction.DOWN, GridAction.STAY), np.random.default_rng(0))
    assert new.agent_positions[0] == (2, 1)


def test_timeout_after_t_max_steps():
    config = simple_config(t_max=3)
    state = initial_state(config)
    rng = np.random.default_rng(0)
    events = []
    for _ in range(3):
        state, event = step(state, config, (GridAction.STAY, GridAction.STAY), rng)
        events.append(event)
    assert events[:2] == [None, None]
    assert events[2].kind == "timeout"
    assert events[2].rewards == (0.0, 0.0)
    assert state.terminated


def test_stepping_a_terminated_state_raises():
    config = simple_config(t_max=1)
    state = initial_state(config)
    state, _ = step(state, config, (GridAction.STAY, GridAction.STAY), np.random.default_rng(0))
    with pytest.raises(ValueError):
        step(state, config, (GridAction.STAY, GridAction.STAY), np.random.default_rng(0))


def test_agents_may_share_a_cell():
    config = simple_config(agent_starts=((1, 1), (1, 3)))
    state = initial_state(config)
    new, _ = step(state, config, (GridAction.DOWN, GridAction.UP), np.random.default_rng(0))
    assert new.agent_positions == ((1, 2), (1, 2))


def test_random_walk_stag_stays_on_free_cells():
    config = simple_config(stag_motion="random_walk", obstacles=frozenset({(1, 1), (2, 2)}))
    rng = np.random.default_rng(42)
    state = initial_state(config)
    for _ in range(200):
        if state.terminated:
            state = initial_state(config)
        state, _ = step(state, config, (GridAction.STAY, GridAction.STAY), rng)
        assert config.is_free(state.stag_position)


# --- labelling ------------------------------------------------------------------


def test_joint_stag_capture_labels_both_cooperative():
    event = StepEvent("stag_joint", (4.0, 4.0), (False, False), (True, True))
    assert label_episode(event) == (C, C)


def test_lone_hare_against_wanderer_is_u_and_unknown():
    event = StepEvent("hare", (3.0, 0.0), (True, False), (False, False))
    assert label_episode(event) == (U, UNKNOWN)


def test_hare_against_agent_on_stag_is_u_and_c():
    event = StepEvent("hare", (3.0, 0.0), (True, False), (False, True))
    assert label_episode(event) == (U, C)


def test_both_hares_label_both_uncooperative():
    event = StepEvent("hare", (2.0, 2.0), (True, True), (False, False))
    assert label_episode(event) == (U, U)


def test_timeout_labels_both_unknown():
    event = StepEvent("timeout", (0.0, 0.0), (False, False), (False, False))
    assert label_episode(event) == (UNKNOWN, UNKNOWN)


# --- configuration validation -----------------------------------------------


def test_config_rejects_out_of_bounds_and_overlaps():
    with pytest.raises(ValueError):
        simple_config(stag_start=(4, 0))
    with pytest.raises(ValueError):
        simple_config(agent_starts=((2, 2), (0, 0)))  # on an obstacle
    with pytest.raises(ValueError):
        simple_config(agent_starts=((0, 3), (2, 0)))  # on a hare
    with pytest.raises(ValueError):
        simple_config(stag_motion="teleport")


def test_reward_levels_must_form_a_stag_hunt():
    with pytest.raises(ValueError):
        simple_config(reward_hare_alone=5.0)  # would exceed the joint stag reward


def test_label_payoffs_expose_the_reward_table():
    payoffs = simple_config().label_payoffs()
    assert (payoffs.h, payoffs.c, payoffs.m, payoffs.g) == (4.0, 3.0, 2.0, 0.0)


# --- shipped scenarios ---------------------------------------------------------


def chebyshev(a, b) -> int:
    """Moves needed between two cells, counting a diagonal as one."""
    return max(abs(a[0] - b[0]), abs(a[1] - b[1]))


def test_near_stag_scenario_distances():
    config = make_scenario("near-stag")
    for start in config.agent_starts:
        d_stag = chebyshev(start, config.stag_start)
        d_hare = min(chebyshev(start, hare) for hare in config.hare_cells)
        assert d_stag < d_hare


def test_near_hares_scenario_distances():
    config = make_scenario("near-hares")
    for start in config.agent_starts:
        d_stag = chebyshev(start, config.stag_start)
        d_hare = min(chebyshev(start, hare) for hare in config.hare_cells)
        assert d_hare < d_stag


def test_scenarios_validate_and_accept_underscore_names():
    assert make_scenario("near_stag") == make_scenario("near-stag")
    with pytest.raises(ValueError):
        make_scenario("island")


def test_scenario_files_load_from_path(tmp_path):
    import json
    from importlib import resources

    raw = json.loads(resources.files("staghunt.data").joinpath("near_stag.json").read_text())
    path = tmp_path / "layout.json"
    path.write_text(json.dumps(raw))
    assert config_from_dict(json.loads(path.read_text())) == make_scenario("near-stag")


# --- episode-level invariants ----------------------------------------------------


def random_policy(state, agent_index, rng):
    return list(GridAction)[rng.integers(5)]


def test_episode_replay_is_bit_identical():
    config = make_scenario("near-hares")
    first = run_episode(config, random_policy, np.random.default_rng(77))
    second = run_episode(config, random_policy, np.random.default_rng(77))
    assert first.transitions == second.transitions
    assert first.terminal_rewards == second.terminal_rewards
    assert first.labels == second.labels


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_episode_rewards_and_labels_are_consistent(seed):
    """Exactly one termination; rewards only at the end; labels match rewards."""
    config = make_scenario("near-hares")
    record = run_episode(config, random_policy, np.random.default_rng(seed))
    *body, last = record.transitions
    assert all(rewards == (0.0, 0.0) for _, _, rewards, _ in body)
    assert last[3].terminated
    assert record.terminal_rewards in {
        (4.0, 4.0), (2.0, 2.0), (3.0, 0.0), (0.0, 3.0), (0.0, 0.0)
    }
    if all(l in (C, U) for l in record.labels):
        table = config.label_payoffs()
        expected = (
            table.payoff(record.labels[0], record.labels[1]),
            table.payoff(record.labels[1], record.labels[0]),
        )
        assert record.terminal_rewards == expected
    assert UNKNOWN not in record.labels or record.event.kind in ("hare", "timeout")


def test_episode_transition_rows_flatten_the_record():
    from staghunt.gridworld import EPISODE_LOG_COLUMNS, episode_transition_rows

    config = make_scenario("near-hares")
    record = run_episode(config, random_policy, np.random.default_rng(5))
    rows = episode_transition_rows(record)
    assert len(rows) == len(record.transitions)
    assert len(rows[0]) == len(EPISODE_LOG_COLUMNS)
    assert rows[0][0] == 0
    assert rows[-1][-1] is True  # last transition terminates
    assert rows[-1][9:11] == record.terminal_rewards
