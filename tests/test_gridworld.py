import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from engine_helpers import StepEvent, label_episode, record_rows, run_episode
from staghunt.game import C, U, UNKNOWN
from staghunt.gridworld import (
    GridAction,
    GridConfig,
    config_from_dict,
    episode_end,
    make_scenario,
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


def play(config, *moves, seed=0):
    """An episode whose agents play moves[t] = (action 0, action 1) at step t, then stay."""

    def policy(state, agent_index, rng):
        t = state[3]
        return moves[t][agent_index] if t < len(moves) else GridAction.STAY

    return run_episode(config, policy, np.random.default_rng(seed))


def xy(config, cell):
    return (cell % config.width, cell // config.width)


def is_free(config, cell):
    return config.in_bounds(cell) and cell not in config.obstacles


def positions_before(record, step):
    """Both agents' (x, y) cells before the given step."""
    a0, a1, _, _ = record.transitions[step][0]
    return (xy(record.config, a0), xy(record.config, a1))


# --- movement and termination mechanics ---------------------------------------


def test_joint_move_onto_static_stag_captures_it():
    record = play(simple_config(), (GridAction.RIGHT, GridAction.LEFT))
    assert len(record.transitions) == 1
    assert record.event.kind == "stag_joint"
    assert record.event.rewards == (4.0, 4.0)


def test_lone_hare_capture_pays_three_and_zero():
    record = play(simple_config(agent_starts=((0, 2), (3, 0))), (GridAction.DOWN, GridAction.STAY))
    assert record.event.kind == "hare"
    assert record.event.rewards == (3.0, 0.0)
    assert record.event.hare_captors == (True, False)


def test_simultaneous_hare_capture_pays_two_each():
    record = play(simple_config(agent_starts=((0, 2), (3, 2))), (GridAction.DOWN, GridAction.DOWN))
    assert record.event.rewards == (2.0, 2.0)


def test_boundary_move_resolves_to_stay():
    record = play(simple_config(), (GridAction.LEFT, GridAction.UP))
    assert positions_before(record, 1) == ((0, 0), (2, 0))


def test_obstacle_move_resolves_to_stay():
    record = play(simple_config(agent_starts=((2, 1), (3, 0))), (GridAction.DOWN, GridAction.STAY))
    assert positions_before(record, 1)[0] == (2, 1)


def test_timeout_after_t_max_steps():
    record = play(simple_config(t_max=3))
    rows = record_rows(record)
    assert [row[-1] for row in rows] == [False, False, True]
    assert record.event.kind == "timeout"
    assert record.event.rewards == (0.0, 0.0)


def test_an_episode_is_never_stepped_past_its_end():
    calls = []

    def policy(state, agent_index, rng):
        calls.append(state)
        return GridAction.STAY

    record = run_episode(simple_config(t_max=1), policy, np.random.default_rng(0))
    assert len(record.transitions) == 1
    assert len(calls) == 2  # one query per agent, for the only step


def test_agents_may_share_a_cell():
    record = play(simple_config(agent_starts=((1, 1), (1, 3))), (GridAction.DOWN, GridAction.UP))
    assert positions_before(record, 1) == ((1, 2), (1, 2))


def test_random_walk_stag_stays_on_free_cells():
    config = simple_config(stag_motion="random_walk", obstacles=frozenset({(1, 1), (2, 2)}))
    rng = np.random.default_rng(42)
    steps = 0
    while steps < 200:
        record = run_episode(config, lambda state, i, r: GridAction.STAY, rng)
        steps += len(record.transitions)
        for (_, _, stag, _), _, _ in record.transitions:
            assert is_free(config, xy(config, stag))


# --- labelling ------------------------------------------------------------------


def end_of(on_stag, on_hare):
    return episode_end(GridConfig(), on_stag, on_hare)


def test_joint_stag_capture_labels_both_cooperative():
    assert end_of((True, True), (False, False)).labels == (C, C)


def test_lone_hare_against_wanderer_is_u_and_unknown():
    assert end_of((False, False), (True, False)).labels == (U, UNKNOWN)


def test_hare_against_agent_on_stag_is_u_and_c():
    assert end_of((False, True), (True, False)).labels == (U, C)


def test_both_hares_label_both_uncooperative():
    assert end_of((False, False), (True, True)).labels == (U, U)


def test_timeout_labels_both_unknown():
    assert end_of((False, False), (False, False)).labels == (UNKNOWN, UNKNOWN)


@pytest.mark.parametrize("scenario", ["near-stag", "near-hares"])
def test_every_end_is_the_step_event_rule(scenario):
    """The compiled ends, at every agents' and stag's cells an episode can stop on,
    are the kind, rewards and labels of the per-episode StepEvent rule."""
    config = make_scenario(scenario)
    grid = config.grid
    cells = range(config.width * config.height)
    for a0 in cells:
        for a1 in cells:
            for stag in cells:
                on_stag, on_hare = (a0 == stag, a1 == stag), (grid.hare[a0], grid.hare[a1])
                alone, out = config.reward_hare_alone, config.reward_left_out
                if all(on_stag):
                    event = StepEvent("stag_joint", (config.reward_stag_joint,) * 2, (False, False),
                                      on_stag)
                elif any(on_hare):
                    rewards = (config.reward_hare_shared,) * 2 if all(on_hare) else (
                        (alone, out) if on_hare[0] else (out, alone))
                    event = StepEvent("hare", rewards, on_hare, on_stag)
                else:
                    event = StepEvent("timeout", (0.0, 0.0), (False, False), on_stag)
                end = grid.ends[grid.end_index(a0, a1, stag)]
                assert end == (event.kind, event.rewards, label_episode(event)), (a0, a1, stag)


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


@pytest.mark.parametrize("name", ["width", "height", "t_max"])
@pytest.mark.parametrize("value", [4.0, 2.5, True, 0, -1])
def test_config_rejects_a_size_or_horizon_that_is_not_a_positive_int(name, value):
    with pytest.raises(ValueError, match=f"GridConfig.{name} must be an integer >= 1"):
        GridConfig(**{name: value})


@pytest.mark.parametrize(
    "overrides",
    [
        dict(obstacles=frozenset({(2, 2), (9, 9)})),
        dict(obstacles=frozenset({(-1, 0)})),
        dict(agent_starts=((0, 0),)),
        dict(agent_starts=((0, 0), (2, 0), (3, 0))),
    ],
    ids=["obstacle-at-9-9", "obstacle-at-minus-1", "one-agent-start", "three-agent-starts"],
)
def test_config_rejects_a_bad_obstacle_or_agent_count(overrides):
    with pytest.raises(ValueError, match="obstacle out of bounds|agent_starts must hold 2"):
        simple_config(**overrides)


@pytest.mark.parametrize(
    "raw, unknown",
    [
        ({"hare_cell": [[0, 3]]}, "hare_cell"),
        ({"rewards": {"stag": 9}}, "stag"),
    ],
    ids=["typo-hare-cell", "unknown-reward"],
)
def test_config_from_dict_rejects_unknown_keys(raw, unknown):
    base = {"stag_start": [1, 0], "agent_starts": [[0, 0], [2, 0]]}
    config_from_dict(base)  # the base layout alone is valid
    with pytest.raises(ValueError, match=f"unknown grid.*'{unknown}'"):
        config_from_dict({**base, **raw})


def test_a_layout_takes_grid_config_defaults_for_the_keys_it_leaves_out():
    raw = {"stag_start": [3, 2], "agent_starts": [[0, 0], [2, 0]]}
    assert config_from_dict(raw) == GridConfig(stag_start=(3, 2), agent_starts=((0, 0), (2, 0)))
    rewards = {"rewards": {"hare_alone": 3.5}}
    assert config_from_dict({**raw, **rewards}) == GridConfig(
        stag_start=(3, 2), agent_starts=((0, 0), (2, 0)), reward_hare_alone=3.5
    )


def test_reward_levels_must_form_a_stag_hunt():
    with pytest.raises(ValueError):
        simple_config(reward_hare_alone=5.0)  # would exceed the joint stag reward


def test_label_payoffs_expose_the_reward_table():
    payoffs = simple_config().grid.label_payoffs
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


def test_scenarios_validate_and_reject_underscore_names():
    for name in ("island", "near_stag"):
        with pytest.raises(ValueError, match="unknown scenario"):
            make_scenario(name)


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
    *body, last = record_rows(record)
    assert all(row[9:] == (0.0, 0.0, False) for row in body)
    assert last[11] is True
    assert record.terminal_rewards in {
        (4.0, 4.0), (2.0, 2.0), (3.0, 0.0), (0.0, 3.0), (0.0, 0.0)
    }
    if all(l in (C, U) for l in record.labels):
        table = config.grid.label_payoffs
        expected = (
            table.payoff(record.labels[0], record.labels[1]),
            table.payoff(record.labels[1], record.labels[0]),
        )
        assert record.terminal_rewards == expected
    assert UNKNOWN not in record.labels or record.event.kind in ("hare", "timeout")


@pytest.mark.parametrize("stag_motion", ["static", "random_walk"])
@pytest.mark.parametrize("scenario", ["near-stag", "near-hares"])
def test_other_terminal_reward_is_the_label_payoff_whenever_both_labels_are_known(
    scenario, stag_motion
):
    """The grid world's guilt step takes the other's terminal reward as the
    other's material reward; with both labels known that is
    label_payoffs.payoff(other, own), at every end kind that reveals them."""
    config = dataclasses.replace(make_scenario(scenario), stag_motion=stag_motion)
    table = config.grid.label_payoffs
    rng = np.random.default_rng(31)
    seen = set()
    for _ in range(3000):
        record = run_episode(config, random_policy, rng)
        labels, rewards = record.labels, record.terminal_rewards
        seen.add((record.event.kind, labels))
        if UNKNOWN in labels:
            continue
        for own in range(2):
            assert rewards[1 - own] == table.payoff(labels[1 - own], labels[own])
    kinds = {kind for kind, labels in seen if UNKNOWN not in labels}
    assert kinds == {"stag_joint", "hare"}
    assert {labels for _, labels in seen} >= {(C, C), (U, U), (U, C), (C, U)}
    assert ("timeout", (UNKNOWN, UNKNOWN)) in seen


def test_episode_transition_rows_flatten_the_record():
    from staghunt.gridworld import EPISODE_LOG_COLUMNS

    config = make_scenario("near-hares")
    record = run_episode(config, random_policy, np.random.default_rng(5))
    rows = record_rows(record)
    assert len(rows) == len(record.transitions)
    assert len(rows[0]) == len(EPISODE_LOG_COLUMNS)
    assert rows[0][0] == 0
    assert rows[-1][-1] is True  # last transition terminates
    assert rows[-1][9:11] == record.terminal_rewards


# --- differential check against the tuple stepper ---------------------------------
#
# The stepper the integer engine replaced, kept as it was apart from its
# names, GridConfig.is_free (now is_free above) and the record it returns:
# every cell a tuple, a frozen state per step. run_episode must replay it
# exactly, draw for draw.


@dataclasses.dataclass(frozen=True, slots=True)
class TupleState:
    agent_positions: tuple
    stag_position: tuple
    timestep: int
    terminated: bool


def tuple_initial_state(config):
    return TupleState(config.agent_starts, config.stag_start, 0, False)


def _tuple_resolve_move(config, cell, action):
    dx, dy = action.delta
    target = (cell[0] + dx, cell[1] + dy)
    return target if is_free(config, target) else cell


def _tuple_move_stag(config, stag, rng):
    if config.stag_motion == "static":
        return stag
    options = [stag]
    for action in (GridAction.LEFT, GridAction.UP, GridAction.DOWN, GridAction.RIGHT):
        dx, dy = action.delta
        target = (stag[0] + dx, stag[1] + dy)
        if is_free(config, target):
            options.append(target)
    return options[rng.integers(len(options))]


def tuple_step(state, config, actions, rng):
    if state.terminated:
        raise ValueError("cannot step a terminated episode")

    positions = tuple(
        _tuple_resolve_move(config, pos, act) for pos, act in zip(state.agent_positions, actions)
    )
    stag = _tuple_move_stag(config, state.stag_position, rng)
    timestep = state.timestep + 1

    on_stag = tuple(pos == stag for pos in positions)
    on_hare = tuple(pos in config.hare_cells for pos in positions)

    event = None
    if all(on_stag):
        event = StepEvent(
            kind="stag_joint",
            rewards=(config.reward_stag_joint, config.reward_stag_joint),
            hare_captors=(False, False),
            on_stag=(True, True),
        )
    elif any(on_hare):
        if all(on_hare):
            rewards = (config.reward_hare_shared, config.reward_hare_shared)
        elif on_hare[0]:
            rewards = (config.reward_hare_alone, config.reward_left_out)
        else:
            rewards = (config.reward_left_out, config.reward_hare_alone)
        event = StepEvent(kind="hare", rewards=rewards, hare_captors=on_hare, on_stag=on_stag)
    elif timestep >= config.t_max:
        event = StepEvent(
            kind="timeout", rewards=(0.0, 0.0), hare_captors=(False, False), on_stag=on_stag
        )

    new_state = TupleState(positions, stag, timestep, event is not None)
    return new_state, event


def tuple_run_episode(config, policy, rng):
    """(transitions, event, labels) with the policy queried on TupleStates."""
    transitions, event = [], None
    state = tuple_initial_state(config)
    while not state.terminated:
        actions = (policy(state, 0, rng), policy(state, 1, rng))
        new_state, event = tuple_step(state, config, actions, rng)
        rewards = event.rewards if event is not None else (0.0, 0.0)
        transitions.append((state, actions, rewards, new_state))
        state = new_state
    return transitions, event, label_episode(event)


def tuple_rows(transitions):
    """The tuple stepper's transitions as episode_transition_rows flattens them."""
    return [
        (k, *state.agent_positions[0], *state.agent_positions[1], *state.stag_position,
         actions[0].name.lower(), actions[1].name.lower(), *rewards, after.terminated)
        for k, (state, actions, rewards, after) in enumerate(transitions)
    ]


@pytest.mark.parametrize("stag_motion", ["random_walk", "static"])
@pytest.mark.parametrize("scenario", ["near-stag", "near-hares"])
def test_integer_engine_replays_the_tuple_stepper(scenario, stag_motion):
    config = dataclasses.replace(make_scenario(scenario), stag_motion=stag_motion)
    kinds = set()
    for seed in range(250):
        ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        record = run_episode(config, random_policy, ours)
        transitions, event, labels = tuple_run_episode(config, random_policy, theirs)
        assert record_rows(record) == tuple_rows(transitions), seed
        # the state after the last step shows only through the event
        assert record.event == event
        assert record.labels == labels
        assert record.terminal_rewards == event.rewards
        assert ours.bit_generator.state == theirs.bit_generator.state
        kinds.add(event.kind)
    assert kinds == {"stag_joint", "hare", "timeout"}


# --- independent check: exact episode ends under uniform play ---------------------


def exact_end_probabilities(config):
    """P(stag_joint), P(hare), P(timeout) of one episode under uniform play, static stag.

    Forward recursion over the agents' joint positions, on (x, y) cells and
    the config's fields alone: each step every one of the 25 joint actions
    has probability 1/25, and a move into a wall or an obstacle stays put.
    """
    assert config.stag_motion == "static"
    stag = config.stag_start
    ends = {"stag_joint": 0.0, "hare": 0.0, "timeout": 0.0}
    alive = {config.agent_starts: 1.0}
    for t in range(1, config.t_max + 1):
        nxt = {}
        for (p0, p1), prob in alive.items():
            for a0 in GridAction:
                for a1 in GridAction:
                    q0 = _tuple_resolve_move(config, p0, a0)
                    q1 = _tuple_resolve_move(config, p1, a1)
                    share = prob / 25
                    if q0 == stag == q1:
                        ends["stag_joint"] += share
                    elif q0 in config.hare_cells or q1 in config.hare_cells:
                        ends["hare"] += share
                    elif t == config.t_max:
                        ends["timeout"] += share
                    else:
                        nxt[q0, q1] = nxt.get((q0, q1), 0.0) + share
        alive = nxt
    return ends


EXACT_ENDS = {  # rounded to 3 places
    "near-stag": {"stag_joint": 0.222, "hare": 0.406, "timeout": 0.372},
    "near-hares": {"stag_joint": 0.008, "hare": 0.932, "timeout": 0.060},
}


@pytest.mark.parametrize("scenario", ["near-stag", "near-hares"])
def test_monte_carlo_episode_ends_match_the_exact_probabilities(scenario):
    """Each end frequency over n uniform-play episodes lies within 4 binomial
    standard errors of its exact probability (a false alarm about 6e-5 of the
    time per kind)."""
    config = dataclasses.replace(make_scenario(scenario), stag_motion="static")
    exact = exact_end_probabilities(config)
    assert sum(exact.values()) == pytest.approx(1.0, abs=1e-12)
    assert {kind: round(p, 3) for kind, p in exact.items()} == EXACT_ENDS[scenario]
    n = 20_000
    rng = np.random.default_rng(2026)
    counts = dict.fromkeys(exact, 0)
    for _ in range(n):
        counts[run_episode(config, random_policy, rng).event.kind] += 1
    for kind, p in exact.items():
        bound = 4 * math.sqrt(p * (1 - p) / n)
        assert abs(counts[kind] / n - p) <= bound, (kind, counts[kind] / n, p, bound)
