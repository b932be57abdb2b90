import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from engine_helpers import (
    Exploration,
    MatrixAgentState,
    PavlovState,
    cooperation_probability,
    lane_state,
    lanes_of,
    make_matrix_agent,
    pairing,
    run_match,
    td1_update,
)
from scalar_beliefs import belief_step, beliefs_of, expected_payoffs, make_tom_state
from staghunt import C, U, GuiltParams, PayoffMatrix, guilt_threshold_f
from staghunt.experiments import (
    COMPOSITIONS,
    DRAW_CHUNK,
    MATRIX_VARIANTS,
    AgentParams,
    SweepSpec,
    TournamentSpec,
    _make_group,
    matrix_lanes,
    run_matches,
    run_sweep,
    run_tournament,
)
from staghunt import matrix_agents
from staghunt.matrix_agents import _COLUMNS, MatrixLanes, values_for_cooperation_probability
from staghunt.shaping import Beliefs, guilt_reward, phi_from_beliefs, shape_reward

Q1 = PayoffMatrix(40, 30, 20, 0)


# --- the scalar engine the lanes replaced, kept as their reference -------------


def _logistic(x: float) -> float:
    if x >= 0.0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


class MatrixLearner:
    """One value learner on plain floats, updated in place."""

    def __init__(self, agent: MatrixAgentState):
        tom, explore = agent.tom, agent.explore
        self.v_c = agent.values[C]
        self.v_u = agent.values[U]
        self.b0 = tom.zero_order.p_cooperative
        self.b1 = tom.first_order.p_cooperative
        self.conf = tom.confidence
        self.temp = explore.temperature
        self.learning_rate = tom.learning_rate
        self.tom_enabled = tom.tom_enabled
        self.guilt = agent.guilt
        self.alpha = agent.alpha
        self.gamma = agent.gamma
        self.decay = explore.temperature_decay

    def p_cooperate(self) -> float:
        return _logistic((self.v_c - self.v_u) / self.temp)

    def act(self, u: float):
        return C if u < self.p_cooperate() else U

    def learn(self, own, other, matrix: PayoffMatrix) -> tuple[float, float, float]:
        """Beliefs, then shaping, then TD(1), then decay; returns (phi, psychological, shaped)."""
        self.b0, self.b1, self.conf = belief_step(
            self.b0, self.b1, self.conf, self.learning_rate, self.tom_enabled, other, own, matrix
        )
        phi = phi_from_beliefs(self.b0, self.b1, matrix)
        guilt = self.guilt
        psychological = guilt_reward(guilt, phi, matrix.payoff(other, own)) if guilt else 0.0
        shaped = shape_reward(matrix.payoff(own, other), psychological)
        target = shaped + self.gamma * max(expected_payoffs(self.b0, matrix))
        if own is C:
            self.v_c += self.alpha * (target - self.v_c)
        else:
            self.v_u += self.alpha * (target - self.v_u)
        self.temp *= self.decay
        return phi, psychological, shaped


class PavlovLearner:
    def __init__(self, state: PavlovState):
        self.i_count = state.i_count
        self.n = state.n

    def p_cooperate(self) -> float:
        return self.i_count / self.n

    def act(self, u: float):
        return C if u < self.i_count / self.n else U

    def learn(self, own, other, matrix: PayoffMatrix):
        if own is other:
            self.i_count = min(self.i_count + 1, self.n)
        else:
            self.i_count = max(self.i_count - 1, 0)
        return None, None, None


def learner_for(player):
    return PavlovLearner(player) if isinstance(player, PavlovState) else MatrixLearner(player)


def play_learners(first, second, matrix: PayoffMatrix, u0: float, u1: float):
    a0 = first.act(u0)
    a1 = second.act(u1)
    return a0, a1, first.learn(a0, a1, matrix), second.learn(a1, a0, matrix)


# --- helpers on the engine -----------------------------------------------------


def play(lanes, rng, matrix=Q1):
    """One round between lanes 0 and 1, each drawing its uniform in turn.

    Returns (actions, material rewards, per-player (phi, psychological,
    shaped) records).
    """
    u0, u1 = rng.random(), rng.random()
    u, opponent, playing = pairing(2, [0], [1], [u0], [u1])
    c, reward, phi, psychological = lanes.play(u, opponent, matrix, playing)
    actions = tuple(C if c[k] else U for k in (0, 1))
    records = tuple(
        (phi[k], psychological[k], reward[k] + psychological[k]) for k in (0, 1)
    )
    return actions, (reward[0], reward[1]), records


def pavlov_learn(state, own, other):
    """state after one round in which it played own against other."""
    partner = PavlovState(i_count=10 if other is C else 0, n=10)
    lanes = lanes_of([state, partner])
    draws = [0.0 if label is C else 1.0 for label in (own, other)]  # C needs P(C) > 0
    u, opponent, playing = pairing(2, [0], [1], draws[:1], draws[1:])
    lanes.play(u, opponent, Q1, playing)
    return lane_state(lanes, 0)


def make_agent(values=None, guilt_theta=200.0, tom_enabled=True, alpha=0.1, gamma=0.9,
               explore=None, zero_order=0.5, first_order=0.5):
    return MatrixAgentState(
        values=dict(values) if values else {C: 0.0, U: 0.0},
        tom=make_tom_state(zero_order=zero_order, first_order=first_order,
                           tom_enabled=tom_enabled),
        guilt=GuiltParams(guilt_theta) if guilt_theta else None,
        alpha=alpha,
        gamma=gamma,
        explore=explore or Exploration(),
    )


# --- action selection --------------------------------------------------------


def test_equal_values_give_even_odds():
    agent = make_agent(values={C: 3.0, U: 3.0})
    assert cooperation_probability(agent) == pytest.approx(0.5)


def test_softmax_probability_from_value_gap():
    agent = make_agent(values={C: math.log(3), U: 0.0}, explore=Exploration(temperature=1.0))
    assert cooperation_probability(agent) == pytest.approx(0.75)


def test_value_initialisation_matches_target_probability():
    for p in (0.1, 0.5, 0.9):
        agent = make_agent(values=values_for_cooperation_probability(p, temperature=1.0, clamp=1e-3))
        assert cooperation_probability(agent) == pytest.approx(p)


def test_extreme_targets_are_clamped_not_infinite():
    values = values_for_cooperation_probability(0.0, temperature=1.0, clamp=1e-3)
    assert all(math.isfinite(v) for v in values.values())
    agent = make_agent(values=values)
    assert cooperation_probability(agent) == pytest.approx(1e-3)


@given(gap=st.floats(-50, 50), shift=st.floats(-100, 100))
def test_argmax_invariant_to_constant_shift(gap, shift):
    base = make_agent(values={C: gap, U: 0.0})
    shifted = make_agent(values={C: gap + shift, U: shift})
    assert cooperation_probability(base) == pytest.approx(
        cooperation_probability(shifted), abs=1e-9
    )


@given(lo=st.floats(-20, 20), bump=st.floats(0, 20))
def test_softmax_monotone_in_value_gap(lo, bump):
    worse = make_agent(values={C: lo, U: 0.0})
    better = make_agent(values={C: lo + bump, U: 0.0})
    assert cooperation_probability(better) >= cooperation_probability(worse)


# --- TD(1) update ------------------------------------------------------------


def test_td_gamma_zero_is_plain_average_toward_reward():
    agent = make_agent(values={C: 4.0, U: 0.0}, gamma=0.0, alpha=0.25)
    updated = td1_update(agent, C, 12.0, Q1)
    assert updated.values[C] == pytest.approx(4.0 + 0.25 * (12.0 - 4.0))
    assert updated.values[U] == 0.0


def test_td_full_overwrite_at_alpha_one_gamma_zero():
    agent = make_agent(values={C: 0.0, U: 0.0}, alpha=1.0, gamma=0.0)
    assert td1_update(agent, C, 40.0, Q1).values[C] == pytest.approx(40.0)


def test_td_hand_computed_delta_with_lookahead():
    """alpha=.1, gamma=.9, certain-cooperator belief: delta = 40 + 36 - 0 = 76."""
    agent = make_agent(values={C: 0.0, U: 0.0}, alpha=0.1, gamma=0.9, zero_order=1.0)
    updated = td1_update(agent, C, 40.0, Q1)
    assert updated.values[C] == pytest.approx(7.6)


def test_td_lookahead_uses_belief_weighted_best_material_payoff():
    # zero_order = point mass on U: candidates are g=0 (play C) and m=20 (play U)
    agent = make_agent(values={C: 0.0, U: 5.0}, alpha=1.0, gamma=1.0, zero_order=0.0)
    updated = td1_update(agent, U, 0.0, Q1)
    assert updated.values[U] == pytest.approx(0.0 + 20.0)


def test_agent_state_validation():
    with pytest.raises(ValueError):
        make_agent(alpha=0.0)
    with pytest.raises(ValueError):
        make_agent(gamma=1.5)
    with pytest.raises(ValueError):
        Exploration(temperature=0.0)


# --- Pavlov -------------------------------------------------------------------


def test_pavlov_extremes_are_deterministic():
    rng = np.random.default_rng(0)
    always, never = lanes_of(
        [PavlovState(i_count=10, n=10), PavlovState(i_count=0, n=10)]
    ).p_cooperate()
    assert all(rng.random() < always for _ in range(20))
    assert not any(rng.random() < never for _ in range(20))


def test_pavlov_half_probability_sampling():
    rng = np.random.default_rng(1234)
    p = lanes_of([PavlovState(i_count=1, n=2)]).p_cooperate()[0]
    draws = 10_000
    heads = sum(rng.random() < p for _ in range(draws))
    sigma = math.sqrt(draws * 0.25)
    assert abs(heads - draws / 2) < 3 * sigma


def test_pavlov_update_steps_and_clamps():
    assert pavlov_learn(PavlovState(10, 10), C, C).i_count == 10
    assert pavlov_learn(PavlovState(3, 10), C, U).i_count == 2
    assert pavlov_learn(PavlovState(0, 10), U, C).i_count == 0
    assert pavlov_learn(PavlovState(4, 10), U, U).i_count == 5


def test_pavlov_state_validation():
    with pytest.raises(ValueError):
        PavlovState(i_count=11, n=10)
    with pytest.raises(ValueError):
        PavlovState(i_count=0, n=0)


@given(
    starts=st.tuples(st.integers(0, 10), st.integers(0, 10)),
    draws=st.lists(st.tuples(st.floats(0, 1, exclude_max=True), st.floats(0, 1, exclude_max=True)),
                   max_size=100),
)
def test_pavlov_count_stays_in_range(starts, draws):
    lanes = lanes_of([PavlovState(i_count=start, n=10) for start in starts])
    for u0, u1 in draws:
        u, opponent, playing = pairing(2, [0], [1], [u0], [u1])
        lanes.play(u, opponent, Q1, playing)
        assert all(0 <= i <= 10 for i in lanes.i_count.tolist())


# --- one round on the engine --------------------------------------------------


def test_individual_pair_has_no_psychological_component():
    lanes = lanes_of([make_agent(values={C: -10.0, U: 10.0}, guilt_theta=None)] * 2)
    rng = np.random.default_rng(0)
    actions, rewards, records = play(lanes, rng)
    assert actions == (U, U)
    assert rewards == (20.0, 20.0)
    assert records[0][1] == 0.0 and records[1][1] == 0.0  # psychological
    assert records[0][2] == 20.0  # shaped


def test_guilt_pair_with_certain_beliefs_defecting_together():
    """Both believe in mutual cooperation, both defect: shaped reward -3980 each.

    Zero confidence with a zero belief learning rate freezes the beliefs, so
    phi stays at h=40 through the update and guilt = -200 * (40 - 20).
    """
    agent = MatrixAgentState(
        values={C: -100.0, U: 100.0},
        tom=make_tom_state(zero_order=1.0, first_order=1.0, confidence=0.0, learning_rate=0.0),
        guilt=GuiltParams(200.0),
        alpha=0.1,
        gamma=0.9,
        explore=Exploration(),
    )
    rng = np.random.default_rng(0)
    actions, rewards, records = play(lanes_of([agent, agent]), rng)
    assert actions == (U, U)
    assert records[0][0] == pytest.approx(40.0)  # phi
    assert records[0][2] == pytest.approx(-3980.0)  # shaped
    assert records[1][2] == pytest.approx(-3980.0)


def test_mixed_pair_runs_without_sharing_internals():
    trace: list = []
    agents, _ = run_match((make_agent(), PavlovState(i_count=5, n=10)), Q1, 30,
                          np.random.default_rng(7), trace=trace)
    assert isinstance(agents[0], MatrixAgentState)
    assert isinstance(agents[1], PavlovState)
    assert trace[-1][7] is None  # Pavlov has no phi
    assert trace[-1][5] is not None


def test_guilt_off_trajectory_identical_to_individual_learner():
    """A belief-tracking agent with guilt off IS the individual learner, bit for bit."""

    def run(variant):
        params = AgentParams()
        lanes = lanes_of([
            make_matrix_agent(variant, params, initial_p_cooperate=0.6),
            make_matrix_agent(variant, params, initial_p_cooperate=0.3),
        ])
        rng = np.random.default_rng(99)
        trail = []
        for _ in range(200):
            actions, rewards, _ = play(lanes, rng)
            trail.append((*actions, rewards))
        return trail, [lane_state(lanes, k) for k in (0, 1)]

    trail_tng, agents_tng = run("tom-no-guilt")
    trail_ind, agents_ind = run("individual")
    assert trail_tng == trail_ind
    assert agents_tng[0].values == agents_ind[0].values
    assert agents_tng[0].tom == agents_ind[0].tom


def test_temperature_decays_each_iteration():
    lanes = lanes_of([make_agent(), make_agent()])
    rng = np.random.default_rng(3)
    play(lanes, rng)
    assert lane_state(lanes, 0).explore.temperature == pytest.approx(0.995)
    play(lanes, rng)
    assert lane_state(lanes, 0).explore.temperature == pytest.approx(0.995**2)


def test_first_mutual_defection_clears_tom_guilt_but_not_frozen_belief_guilt():
    """The two phi bounds behind the sweep's Observation 1 check, by hand.

    From the default beliefs (b0 = b1 = conf = 0.5) on Q1, (U,U) is the
    predicted outcome, so conf -> 0.55 and b0 -> 0.45 * 0.5 = 0.225. ToMAGA
    also moves b1 to 0.225, giving phi = 2.025 + 5.23125 + 12.0125 =
    19.26875 <= m: no guilt, and (U,U) survives. The frozen b1 = 0.5 gives
    phi = 25 - 5 * 0.225 = 23.875 > f(200) = 20.1, so guilt is
    -200 * 3.875 = -775.
    """
    params = AgentParams()
    assert params.theta == 200.0

    def first_uu(variant):
        lanes = lanes_of([make_matrix_agent(variant, params, 0.0)] * 2)
        actions, _, records = play(lanes, np.random.default_rng(0))
        assert actions == (U, U)
        return lane_state(lanes, 0).tom, records[0]

    tom, (phi, psychological, _) = first_uu("tomaga")
    assert (tom.zero_order.p_cooperative, tom.first_order.p_cooperative) == pytest.approx(
        (0.225, 0.225)
    )
    assert tom.confidence == pytest.approx(0.55)
    assert phi == pytest.approx(19.26875) and phi <= Q1.m
    assert psychological == 0.0

    frozen, (phi, psychological, _) = first_uu("ga-no-tom")
    assert frozen.zero_order.p_cooperative == pytest.approx(0.225)
    assert frozen.first_order.p_cooperative == 0.5
    assert phi == pytest.approx(23.875)
    assert phi > guilt_threshold_f(Q1, 200.0)
    assert psychological == pytest.approx(-775.0)


# --- the lanes against the scalar reference, bit for bit -------------------------


def _bits(x) -> bytes:
    """A float's bytes: tells -0.0 from 0.0, and one NaN equals another."""
    return struct.pack("<d", float(x))


# edge values first: probabilities at the clamp and signed zeros
_probability = st.one_of(st.sampled_from([0.0, -0.0, 1.0, 0.5]), st.floats(0, 1))
_value = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-1e6, 1e6))

_value_learner = st.builds(
    MatrixAgentState,
    values=st.builds(lambda c, u: {C: c, U: u}, _value, _value),
    tom=st.builds(make_tom_state, _probability, _probability, _probability, _probability,
                  st.booleans()),
    guilt=st.one_of(st.none(), st.builds(GuiltParams, st.floats(1e-9, 1e6))),
    alpha=st.one_of(st.just(1.0), st.floats(1e-9, 1.0)),
    gamma=_probability,
    explore=st.builds(Exploration, st.floats(0.05, 100.0),
                      st.one_of(st.just(1.0), st.floats(0.9, 1.0))),
)
_pavlov = st.integers(1, 10).flatmap(
    lambda n: st.builds(PavlovState, st.integers(0, n), st.just(n))
)
_matrix = st.one_of(
    st.sampled_from([Q1, PayoffMatrix(5.0, 4.0, 2.0, 1.0)]),
    st.lists(st.floats(-100, 100), min_size=4, max_size=4, unique=True).map(
        lambda xs: PayoffMatrix(*sorted(xs, reverse=True))
    ),
)


def _reference_state(ref) -> tuple[bytes, ...]:
    if isinstance(ref, PavlovLearner):
        return (ref.i_count,)
    return tuple(map(_bits, (ref.v_c, ref.v_u, ref.b0, ref.b1, ref.conf)))


def _lane_state(lanes, k) -> tuple[bytes, ...]:
    if lanes.pavlov[k]:
        return (int(lanes.i_count[k]),)
    b, conf = lanes.beliefs.b, lanes.beliefs.conf
    return tuple(map(_bits, (lanes.v_c[k], lanes.v_u[k], b[0, k], b[1, k], conf[k])))


@settings(max_examples=150, deadline=None)
@given(
    players=st.lists(st.one_of(_value_learner, _pavlov), min_size=1, max_size=9),
    matrix=_matrix,
    seed=st.integers(0, 2**32 - 1),
    rounds=st.integers(1, 8),
)
@example(  # every variant's softmax learner with Pavlov, each lane in play every round
    players=[make_matrix_agent(v, AgentParams(), p) for v, p in (
        ("tomaga", 0.0), ("ga-no-tom", 1.0), ("individual", 0.3), ("tom-no-guilt", 0.9),
    )] + [PavlovState(9, 10), PavlovState(0, 10)],
    matrix=Q1, seed=1, rounds=8,
)
@example(  # int payoffs and signed zeros: beliefs, confidence, values and gamma at -0.0
    players=[
        MatrixAgentState(
            values={C: -0.0, U: 0.0}, tom=make_tom_state(-0.0, -0.0, -0.0, 0.5, tom),
            guilt=GuiltParams(2.0), alpha=0.5, gamma=-0.0, explore=Exploration(),
        )
        for tom in (True, False)
    ] + [PavlovState(1, 2)],
    matrix=PayoffMatrix(5, 4, 2, 1), seed=3, rounds=8,
)
def test_lanes_match_the_scalar_reference_bit_for_bit(players, matrix, seed, rounds):
    """Random disjoint pairs each round, with lanes sitting out: every action,
    reward (of the payoffs' own type: int payoffs give ints), phi,
    psychological reward and state as the scalar learners give."""
    lanes = lanes_of(players)
    refs = [learner_for(player) for player in players]
    rng = np.random.default_rng(seed)
    for _ in range(rounds):
        p = lanes.p_cooperate()
        assert [_bits(x) for x in p] == [_bits(ref.p_cooperate()) for ref in refs]
        order = rng.permutation(len(players))
        n_pairs = int(rng.integers(0, len(players) // 2 + 1))
        first, second = order[0 : 2 * n_pairs : 2], order[1 : 2 * n_pairs : 2]
        u_first, u_second = rng.random(n_pairs), rng.random(n_pairs)
        u, opponent, playing = pairing(len(players), first, second, u_first, u_second)
        c, reward, phi, psychological = lanes.play(u, opponent, matrix, playing)
        rewards = reward.tolist()
        for k in range(n_pairs):
            a0, a1, *records = play_learners(
                refs[first[k]], refs[second[k]], matrix, u_first[k], u_second[k]
            )
            for lane, action, other, (ref_phi, ref_psy, ref_shaped) in zip(
                (first[k], second[k]), (a0, a1), (a1, a0), records
            ):
                assert c[lane] == (action is C)
                payoff = matrix.payoff(action, other)
                assert rewards[lane] == payoff and type(rewards[lane]) is type(payoff)
                if ref_phi is not None:
                    assert _bits(phi[lane]) == _bits(ref_phi)
                    assert _bits(psychological[lane]) == _bits(ref_psy)
                    assert _bits(reward[lane] + psychological[lane]) == _bits(ref_shaped)
        for k, ref in enumerate(refs):
            assert _lane_state(lanes, k) == _reference_state(ref)
            if isinstance(ref, MatrixLearner):
                assert _bits(lanes.temp[k]) == _bits(ref.temp)
    for k, ref in enumerate(refs):
        state = lane_state(lanes, k)
        if isinstance(ref, PavlovLearner):
            assert state == PavlovState(ref.i_count, ref.n)
        else:
            assert _bits(state.values[C]) == _bits(ref.v_c)
            assert _bits(state.tom.confidence) == _bits(ref.conf)
            assert state.explore.temperature == ref.temp


@settings(max_examples=60, deadline=None)
@given(
    players=st.lists(st.one_of(_value_learner, _pavlov), min_size=1, max_size=9),
    matrix=_matrix,
    seed=st.integers(0, 2**32 - 1),
    rounds=st.integers(1, 8),
)
def test_lanes_step_their_beliefs_as_a_grid_store_steps(players, matrix, seed, rounds):
    """A grid world Beliefs built from the players' ToMStates and GuiltParams, a
    Pavlov lane's being an inert state (learning rate 0) with no guilt, and
    stepped as _shape_guilt steps one, with the round's labels, the other's
    rewards and who played as the mask, holds the lanes' beliefs' bytes."""
    inert = (make_tom_state(learning_rate=0.0), None)
    learners = [inert if isinstance(player, PavlovState) else (player.tom, player.guilt)
                for player in players]
    grid = beliefs_of([tom for tom, _ in learners], [guilt for _, guilt in learners])
    lanes = lanes_of(players)
    n = len(players)
    rng = np.random.default_rng(seed)
    for _ in range(rounds):
        order = rng.permutation(n)
        n_pairs = int(rng.integers(0, n // 2 + 1))
        first, second = order[0 : 2 * n_pairs : 2], order[1 : 2 * n_pairs : 2]
        u, opponent, playing = pairing(n, first, second, rng.random(n_pairs), rng.random(n_pairs))
        c, reward, phi, psychological = lanes.play(u, opponent, matrix, playing)
        opponent, playing = np.arange(n), np.zeros(n, dtype=bool)
        opponent[first], opponent[second] = second, first
        playing[first] = playing[second] = True
        grid_phi, grid_psy = grid.step(c, c[opponent], reward[opponent], matrix, playing)
        for name in Beliefs.__slots__:
            assert getattr(lanes.beliefs, name).tobytes() == getattr(grid, name).tobytes(), name
        assert phi[playing].tobytes() == grid_phi[playing].tobytes()
        assert psychological[playing].tobytes() == grid_psy[playing].tobytes()


def test_state_round_trips_every_lane():
    players = [
        make_matrix_agent("tomaga", AgentParams(), 0.3),
        PavlovState(4, 7),
        MatrixAgentState(
            values={C: 0.5, U: -0.0},
            tom=make_tom_state(0.7, 0.4, 0.3, tom_enabled=False),
            guilt=None, alpha=0.2, gamma=0.8,
            explore=Exploration(temperature=2.5, temperature_decay=0.9),
        ),
    ]
    lanes = lanes_of(players)
    assert [lane_state(lanes, k) for k in range(len(players))] == players


# --- lanes built from the spec against lanes of the frozen players -------------------

_KINDS = (*MATRIX_VARIANTS, "pavlov")
# at and past the clamp, signed and int zeros, an int one (as a config gives them), repeats
_P_INIT = (0.0, 1.0, 0.5, 0.5, 0.02, 0.0, -0.0, 0, 1, 0.3)


@pytest.mark.parametrize("params", [
    AgentParams(),
    AgentParams(theta=3.5, alpha=0.25, gamma=0.7, learning_rate=0.2, confidence=0.3,
                zero_order=0.6, first_order=0.1, temperature=2, temperature_decay=0.99,
                prob_clamp=0.05),
], ids=["default", "custom"])
@pytest.mark.parametrize("spec", [TournamentSpec(), TournamentSpec(pavlov_n=7, pavlov_p0=0.5)],
                         ids=["pavlov-9-of-10", "pavlov-4-of-7"])
def test_matrix_lanes_match_the_lanes_of_the_players_they_replace(params, spec):
    """Every column and every Beliefs slot of matrix_lanes' lanes, byte for byte and
    dtype for dtype, as lanes_of gives for make_matrix_agent's learners and a
    tournament's Pavlov players; and the same kinds rejected."""
    pavlov = (round(spec.pavlov_n * spec.pavlov_p0), spec.pavlov_n)
    for kinds in ([kind for _ in _P_INIT for kind in _KINDS], list(MATRIX_VARIANTS) * 3):
        p_init = [p for p in _P_INIT for _ in _KINDS][: len(kinds)]
        built = matrix_lanes(kinds, p_init, params, pavlov if "pavlov" in kinds else None)
        reference = lanes_of([
            PavlovState(*pavlov) if kind == "pavlov" else make_matrix_agent(kind, params, p)
            for kind, p in zip(kinds, p_init)
        ])
        assert built.any_pavlov == reference.any_pavlov
        columns = [(getattr(built, name), getattr(reference, name), name) for name in _COLUMNS]
        columns += [(getattr(built.beliefs, name), getattr(reference.beliefs, name), name)
                    for name in Beliefs.__slots__]
        for ours, theirs, name in columns:
            assert ours.dtype == theirs.dtype, name
            assert ours.tobytes() == theirs.tobytes(), name
    for kind in ("pavlov-ish", "inequity", "heterogeneous"):
        with pytest.raises(ValueError, match="unknown variant"):
            make_matrix_agent(kind, params)
        with pytest.raises(ValueError, match=f"unknown variant {kind!r}"):
            matrix_lanes(["tomaga", kind], [0.5, 0.5], params, pavlov)


# --- whole matches and tournaments against the reference -------------------------


def _reference_match(agents, matrix, iterations, rng):
    learners = [learner_for(agent) for agent in agents]
    history = []
    for u0, u1 in rng.random((iterations, 2)).tolist():
        a0, a1, _, _ = play_learners(*learners, matrix, u0, u1)
        history.append((a0, a1))
    return learners, history


def test_run_matches_plays_each_pair_as_the_reference_plays_it_alone():
    params = AgentParams()
    hot = MatrixAgentState(
        values={C: 0.5, U: 1.0}, tom=make_tom_state(0.7, 0.4, 0.3), guilt=GuiltParams(3.0),
        alpha=0.2, gamma=0.8, explore=Exploration(temperature=2.5, temperature_decay=0.9),
    )
    pairs = [
        (make_matrix_agent("tomaga", params, 0.2), make_matrix_agent("tomaga", params, 0.7)),
        (make_matrix_agent("ga-no-tom", params, 0.1), make_matrix_agent("individual", params, 0.4)),
        (make_matrix_agent("tom-no-guilt", params, 0.9), PavlovState(6, 10)),
        (PavlovState(3, 4), PavlovState(0, 4)),
        (hot, make_matrix_agent("tomaga", params, 0.5)),
    ]
    matrix = PayoffMatrix(5.0, 4.0, 2.0, 1.0)
    iterations = 2 * DRAW_CHUNK + 17  # crosses two draw chunks
    lanes = lanes_of([pair[0] for pair in pairs] + [pair[1] for pair in pairs])
    rngs = [np.random.default_rng(50 + k) for k in range(len(pairs))]
    actions = run_matches(lanes, matrix, iterations, rngs, range(len(pairs)))
    n = len(pairs)
    for k, pair in enumerate(pairs):
        rng = np.random.default_rng(50 + k)
        learners, history = _reference_match(pair, matrix, iterations, rng)
        labels = [(C if a else U, C if b else U) for a, b in actions[:, [k, n + k]].tolist()]
        assert labels == history
        for lane, ref in zip((k, n + k), learners):
            assert _lane_state(lanes, lane) == _reference_state(ref)


def _reference_tournament_row(spec, comp_idx, size_idx, rep, base_seed):
    """A tournament.csv row from the group played alone on the reference learners."""
    composition, size = spec.compositions[comp_idx], spec.group_sizes[size_idx]
    rng = np.random.default_rng(np.random.SeedSequence([base_seed, comp_idx, size_idx, rep]))
    pavlov = PavlovState(round(spec.pavlov_n * spec.pavlov_p0), spec.pavlov_n)
    group = [learner_for(pavlov if kind == "pavlov" else make_matrix_agent(kind, spec.agent_params))
             for kind in _make_group(composition, size)]
    matrix = spec.matrix
    common = []
    for _ in range(spec.rounds):
        order = rng.permutation(size).tolist()
        draws = rng.random(size - size % 2).tolist()  # actor, partner, actor, ...
        round_rewards = []
        for k in range(0, size - 1, 2):
            a, b, _, _ = play_learners(
                group[order[k]], group[order[k + 1]], matrix, draws[k], draws[k + 1]
            )
            round_rewards += (matrix.payoff(a, b), matrix.payoff(b, a))
        common.append(sum(round_rewards) / len(round_rewards))
    window = common[-spec.report_window :]
    return (composition, size, rep, sum(window) / len(window))


def test_tournament_lanes_give_each_group_the_rows_it_gets_alone():
    # h dwarfs the other payoffs (1e16 + 1 rounds back to 1e16), so a round's
    # sum shows the order of its additions; odd sizes sit one out
    spec = TournamentSpec(
        group_sizes=(2, 3, 5, 8), rounds=2 * DRAW_CHUNK + 30, report_window=70, repetitions=2,
        compositions=COMPOSITIONS, matrix=PayoffMatrix(1e16, 3.0, 1.0, 0.1),
    )
    expected = [
        _reference_tournament_row(spec, comp_idx, size_idx, rep, 11)
        for comp_idx in range(len(spec.compositions))
        for size_idx in range(len(spec.group_sizes))
        for rep in range(spec.repetitions)
    ]
    assert run_tournament(spec, base_seed=11).rows == expected


def test_int_payoffs_are_summed_as_ints():
    """A tournament on int payoffs sums each round's int rewards as the reference
    does. h = 2**53 + 1 has no float, so rewards taken from a float payoff table
    would round it and move these rows."""
    spec = TournamentSpec(
        group_sizes=(2, 4), rounds=DRAW_CHUNK + 20, report_window=40, repetitions=2,
        compositions=COMPOSITIONS, matrix=PayoffMatrix(2**53 + 1, 3, 1, 0),
    )
    expected = [
        _reference_tournament_row(spec, comp_idx, size_idx, rep, 5)
        for comp_idx in range(len(spec.compositions))
        for size_idx in range(len(spec.group_sizes))
        for rep in range(spec.repetitions)
    ]
    assert run_tournament(spec, base_seed=5).rows == expected


def test_a_negative_zero_payoff_keeps_its_sign_after_its_positive_twin():
    """PayoffMatrix(4.0, 3.0, 2.0, -0.0) equals its +0.0 twin, yet a cooperator
    meeting a defector gets its own g, sign and all, whichever matrix ran before."""
    player = MatrixAgentState(
        values={C: 0.0, U: 0.0}, tom=make_tom_state(0.5, 0.5, 0.5), guilt=GuiltParams(1.0),
        alpha=0.5, gamma=0.5, explore=Exploration(),
    )
    for g in (0.0, -0.0, 0.0, -0.0):
        matrix = PayoffMatrix(4.0, 3.0, 2.0, g)
        # u = 0.0 is below P(C) = 0.5 and u = 1.0 above it: lane 0 plays C, lane 1 U
        u, opponent, playing = pairing(2, [0], [1], [0.0], [1.0])
        c, reward, _, _ = lanes_of([player, player]).play(u, opponent, matrix, playing)
        assert c.tolist() == [True, False]
        assert (_bits(reward[0]), _bits(reward[1])) == (_bits(g), _bits(matrix.c))


# --- actions from numpy's exp, ties from libm's -------------------------------


def _moved_exp(monkeypatch, ulps: int) -> None:
    """Patch np.exp, which matrix_agents looks up on each call, to return its results
    moved ulps ulp up (or down, not below 0)."""
    exp = np.exp

    def moved(x):
        out = exp(x)
        for _ in range(abs(ulps)):
            out = np.nextafter(out, np.inf if ulps > 0 else 0.0)
        return out

    monkeypatch.setattr(matrix_agents.np, "exp", moved)


def _tie_players() -> list:
    """Value learners whose P(C) is 1.0 (saturated), 0.0 (underflow), denormal, tiny,
    even and 200 gaps between, and a Pavlov lane at every i/n of n = 10 (5/10 twice,
    for an even lane count)."""
    gaps = [800.0, 40.0, -800.0, -720.0, -40.0, 0.0, *np.random.default_rng(7).normal(0, 8, 200)]
    learners = [
        MatrixAgentState(
            values={C: gap / 2, U: -gap / 2}, tom=make_tom_state(), guilt=GuiltParams(2.0),
            alpha=0.1, gamma=0.9, explore=Exploration(temperature=1.0),
        )
        for gap in gaps
    ]
    return learners + [PavlovState(i, 10) for i in range(11)] + [PavlovState(5, 10)]


@pytest.mark.parametrize("ulps", [-2, 0, 2])
@pytest.mark.parametrize("tie", ["at", "below", "above"])
def test_actions_at_ties_are_those_of_the_exact_p_cooperate(monkeypatch, ulps, tie):
    """A draw equal to, or one ulp either side of, each lane's exact P(C) (libm's exp)
    gives the action u < P(C) of that P(C), lane by lane, whatever numpy's exp rounds to."""
    _moved_exp(monkeypatch, ulps)
    players = _tie_players()
    p = lanes_of(players).p_cooperate()
    assert p[0] == 1.0 and p[2] == 0.0 and 0.0 < p[3] < np.finfo(float).tiny
    u = {"at": p, "below": np.nextafter(p, 0.0), "above": np.nextafter(p, 1.0)}[tie]
    c, *_ = lanes_of(players).play(u, np.arange(len(players)) ^ 1, Q1)
    assert c.tolist() == (u < p).tolist()


def _small_runs(base_seed: int) -> tuple[list, list]:
    sweep = SweepSpec(probabilities=(0.0, 0.3, 1.0), iterations=DRAW_CHUNK + 20,
                      repetitions=2, variants=MATRIX_VARIANTS)
    tournament = TournamentSpec(group_sizes=(2, 3), rounds=DRAW_CHUNK + 20, report_window=40,
                                repetitions=2, compositions=COMPOSITIONS)
    return run_sweep(sweep, base_seed).rows, run_tournament(tournament, base_seed).rows


@pytest.mark.parametrize("ulps", [-2, 2])
@pytest.mark.parametrize("near", [matrix_agents.NEAR, 1.0])
def test_rows_do_not_depend_on_the_bits_of_numpy_exp(monkeypatch, ulps, near):
    """A sweep's and a tournament's rows are the same bytes with numpy's exp moved 2 ulp,
    whether each round decides on it (NEAR) or every lane on the exact P(C) (1.0)."""
    expected = repr(_small_runs(3))
    _moved_exp(monkeypatch, ulps)
    monkeypatch.setattr(matrix_agents, "NEAR", near)
    calls = []
    exact = MatrixLanes.p_cooperate
    monkeypatch.setattr(MatrixLanes, "p_cooperate", lambda lanes: calls.append(1) or exact(lanes))
    assert repr(_small_runs(3)) == expected
    if near == 1.0:  # every round of both runs, and the sweep's final_coop_softmax
        assert len(calls) == 2 * (DRAW_CHUNK + 20) + 1
