import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from staghunt import C, U, GuiltParams, PayoffMatrix, guilt_threshold_f, make_tom_state
from staghunt.experiments import AgentParams, make_matrix_agent
from staghunt.matrix_agents import (
    Exploration,
    MatrixAgentState,
    MatrixLearner,
    PavlovLearner,
    PavlovState,
    cooperation_probability,
    learner_for,
    play_learners,
    td1_update,
    values_for_cooperation_probability,
)

Q1 = PayoffMatrix(40, 30, 20, 0)


def play(learners, rng):
    """One round between two learners, each drawing its uniform in turn.

    Returns (actions, material rewards, per-player (phi, psychological,
    shaped) records).
    """
    a0, a1, rec0, rec1 = play_learners(*learners, Q1, rng.random(), rng.random())
    return (a0, a1), (Q1.payoff(a0, a1), Q1.payoff(a1, a0)), (rec0, rec1)


def pavlov_learn(state, own, other):
    learner = PavlovLearner(state)
    learner.learn(own, other, Q1)
    return learner.state()


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


def test_epsilon_zero_is_pure_exploitation():
    agent = make_agent(values={C: 1.0, U: 0.0}, explore=Exploration(kind="epsilon", epsilon=0.0))
    rng = np.random.default_rng(0)
    learner = MatrixLearner(agent)
    assert all(learner.act(rng.random()) is C for _ in range(50))


def test_softmax_probability_from_value_gap():
    agent = make_agent(values={C: math.log(3), U: 0.0}, explore=Exploration(temperature=1.0))
    assert cooperation_probability(agent) == pytest.approx(0.75)


def test_value_initialisation_matches_target_probability():
    for p in (0.1, 0.5, 0.9):
        agent = make_agent(values=values_for_cooperation_probability(p, temperature=1.0))
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
        Exploration(kind="greedy")


# --- Pavlov -------------------------------------------------------------------


def test_pavlov_extremes_are_deterministic():
    rng = np.random.default_rng(0)
    always = PavlovLearner(PavlovState(i_count=10, n=10))
    never = PavlovLearner(PavlovState(i_count=0, n=10))
    assert all(always.act(rng.random()) is C for _ in range(20))
    assert all(never.act(rng.random()) is U for _ in range(20))


def test_pavlov_half_probability_sampling():
    rng = np.random.default_rng(1234)
    learner = PavlovLearner(PavlovState(i_count=1, n=2))
    draws = 10_000
    heads = sum(learner.act(rng.random()) is C for _ in range(draws))
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
    start=st.integers(0, 10),
    plays=st.lists(st.tuples(st.sampled_from([C, U]), st.sampled_from([C, U])), max_size=100),
)
def test_pavlov_count_stays_in_range(start, plays):
    learner = PavlovLearner(PavlovState(i_count=start, n=10))
    for own, other in plays:
        learner.learn(own, other, Q1)
        assert 0 <= learner.i_count <= 10


# --- one round on the engine --------------------------------------------------


def test_individual_pair_has_no_psychological_component():
    learners = (
        MatrixLearner(make_agent(values={C: -10.0, U: 10.0}, guilt_theta=None)),
        MatrixLearner(make_agent(values={C: -10.0, U: 10.0}, guilt_theta=None)),
    )
    rng = np.random.default_rng(0)
    actions, rewards, records = play(learners, rng)
    assert actions == (U, U)
    assert rewards == (20.0, 20.0)
    assert records[0][1] == 0.0 and records[1][1] == 0.0  # psychological
    assert records[0][2] == 20.0  # shaped


def test_guilt_pair_with_certain_beliefs_defecting_together():
    """Both believe in mutual cooperation, both defect: shaped reward -3980 each.

    Zero confidence with a zero belief learning rate freezes the beliefs, so
    phi stays at h=40 through the update and guilt = -200 * (40 - 20).
    """
    learners = tuple(
        MatrixLearner(MatrixAgentState(
            values={C: -100.0, U: 100.0},
            tom=make_tom_state(zero_order=1.0, first_order=1.0, confidence=0.0,
                               learning_rate=0.0),
            guilt=GuiltParams(200.0),
            alpha=0.1,
            gamma=0.9,
            explore=Exploration(),
        ))
        for _ in range(2)
    )
    rng = np.random.default_rng(0)
    actions, rewards, records = play(learners, rng)
    assert actions == (U, U)
    assert records[0][0] == pytest.approx(40.0)  # phi
    assert records[0][2] == pytest.approx(-3980.0)  # shaped
    assert records[1][2] == pytest.approx(-3980.0)


def test_mixed_pair_runs_without_sharing_internals():
    learners = (learner_for(make_agent()), learner_for(PavlovState(i_count=5, n=10)))
    rng = np.random.default_rng(7)
    for _ in range(30):
        actions, rewards, records = play(learners, rng)
    assert isinstance(learners[0].state(), MatrixAgentState)
    assert isinstance(learners[1].state(), PavlovState)
    assert records[1][0] is None  # Pavlov has no phi


def test_guilt_off_trajectory_identical_to_individual_learner():
    """A belief-tracking agent with guilt off IS the individual learner, bit for bit."""

    def run(variant):
        params = AgentParams()
        learners = (
            MatrixLearner(make_matrix_agent(variant, params, initial_p_cooperate=0.6)),
            MatrixLearner(make_matrix_agent(variant, params, initial_p_cooperate=0.3)),
        )
        rng = np.random.default_rng(99)
        trail = []
        for _ in range(200):
            actions, rewards, _ = play(learners, rng)
            trail.append((*actions, rewards))
        return trail, [learner.state() for learner in learners]

    trail_tng, agents_tng = run("tom-no-guilt")
    trail_ind, agents_ind = run("individual")
    assert trail_tng == trail_ind
    assert agents_tng[0].values == agents_ind[0].values
    assert agents_tng[0].tom == agents_ind[0].tom


def test_temperature_decays_each_iteration():
    learners = (MatrixLearner(make_agent()), MatrixLearner(make_agent()))
    rng = np.random.default_rng(3)
    play(learners, rng)
    assert learners[0].state().explore.temperature == pytest.approx(0.995)
    play(learners, rng)
    assert learners[0].state().explore.temperature == pytest.approx(0.995**2)


@given(
    gap=st.one_of(st.just(0.0), st.floats(1e-6, 50), st.floats(-50, -1e-6)),
    shift=st.floats(-100, 100),
)
def test_epsilon_greedy_invariant_to_constant_shift(gap, shift):
    # gaps tiny enough to be absorbed by the shift are excluded: the
    # invariance is about the argmax, not float addition at ties
    explore = Exploration(kind="epsilon", epsilon=0.2)
    base = make_agent(values={C: gap, U: 0.0}, explore=explore)
    shifted = make_agent(values={C: gap + shift, U: shift}, explore=explore)
    assert cooperation_probability(base) == cooperation_probability(shifted)


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
        learners = tuple(MatrixLearner(make_matrix_agent(variant, params, 0.0)) for _ in range(2))
        actions, _, records = play(learners, np.random.default_rng(0))
        assert actions == (U, U)
        return learners[0].state().tom, records[0]

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
