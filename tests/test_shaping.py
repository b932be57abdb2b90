import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scalar_beliefs import (
    belief_step,
    beliefs_of,
    expected_other_value,
    make_tom_state,
    update_beliefs,
)
from staghunt import (
    C,
    U,
    GuiltParams,
    InequityParams,
    PayoffMatrix,
    guilt_reward,
    inequity_reward,
    shape_reward,
)
from staghunt.shaping import Beliefs, phi_from_beliefs

Q1 = PayoffMatrix(40, 30, 20, 0)


# --- expected value of the other agent ---------------------------------------


def test_certain_mutual_cooperation_expects_h():
    state = make_tom_state(zero_order=1.0, first_order=1.0)
    assert expected_other_value(state, Q1) == pytest.approx(40.0)


def test_uniform_beliefs_average_all_four_cells():
    state = make_tom_state(zero_order=0.5, first_order=0.5)
    assert expected_other_value(state, Q1) == pytest.approx(22.5)


def test_other_defecting_against_my_cooperation_expects_c():
    state = make_tom_state(zero_order=0.0, first_order=1.0)
    assert expected_other_value(state, Q1) == pytest.approx(30.0)


@given(z=st.floats(0, 1), f=st.floats(0, 1))
def test_expected_value_bounded_by_g_and_h(z, f):
    state = make_tom_state(zero_order=z, first_order=f)
    phi = expected_other_value(state, Q1)
    assert Q1.g - 1e-12 <= phi <= Q1.h + 1e-12


@given(z=st.floats(0, 1), f=st.floats(0, 1), t=st.floats(0, 1))
def test_expected_value_bilinear_in_zero_order(z, f, t):
    """phi is linear in each belief coordinate separately."""
    lo = make_tom_state(zero_order=0.0, first_order=f)
    hi = make_tom_state(zero_order=1.0, first_order=f)
    mid = make_tom_state(zero_order=t, first_order=f)
    blended = (1 - t) * expected_other_value(lo, Q1) + t * expected_other_value(hi, Q1)
    assert expected_other_value(mid, Q1) == pytest.approx(blended)


# --- guilt ---------------------------------------------------------------------


def test_no_guilt_when_expectation_met():
    assert guilt_reward(GuiltParams(200), 40.0, 40.0) == 0.0


def test_guilt_scales_with_shortfall():
    assert guilt_reward(GuiltParams(200), 40.0, 0.0) == pytest.approx(-8000.0)
    assert guilt_reward(GuiltParams(2), 25.0, 20.0) == pytest.approx(-10.0)


def test_guilt_params_require_positive_theta():
    with pytest.raises(ValueError):
        GuiltParams(0.0)
    with pytest.raises(ValueError):
        GuiltParams(-1.0)


@given(
    theta=st.floats(0.001, 1000),
    phi=st.floats(-100, 100),
    actual=st.floats(-100, 100),
)
# a subnormal shortfall: theta * (phi - actual) underflows, so guilt reads -0.0
@example(theta=0.5, phi=5e-324, actual=0.0)
def test_guilt_sign_and_zero_condition(theta, phi, actual):
    value = guilt_reward(GuiltParams(theta), phi, actual)
    assert value <= 0.0
    assert (value == 0.0) == (actual >= phi or theta * (phi - actual) == 0.0)


@given(
    theta=st.floats(0.001, 100),
    k=st.floats(0.01, 50),
    phi=st.floats(-50, 50),
    actual=st.floats(-50, 50),
)
def test_guilt_scales_linearly_in_theta(theta, k, phi, actual):
    base = guilt_reward(GuiltParams(theta), phi, actual)
    scaled = guilt_reward(GuiltParams(theta * k), phi, actual)
    assert scaled == pytest.approx(base * k, rel=1e-9, abs=1e-12)


@given(
    theta=st.floats(0.001, 100),
    phi_lo=st.floats(-50, 50),
    bump=st.floats(0, 50),
    actual=st.floats(-50, 50),
)
def test_guilt_monotone_in_phi_and_actual(theta, phi_lo, bump, actual):
    params = GuiltParams(theta)
    assert guilt_reward(params, phi_lo + bump, actual) <= guilt_reward(params, phi_lo, actual)
    assert guilt_reward(params, phi_lo, actual + bump) >= guilt_reward(params, phi_lo, actual)


# --- shaping -------------------------------------------------------------------


def test_shape_reward_is_plain_sum():
    assert shape_reward(40.0, 0.0) == 40.0
    assert shape_reward(30.0, -8000.0) == -7970.0
    assert shape_reward(20.0, -10.0) == 10.0


# --- inequity baseline ----------------------------------------------------------


def test_equal_rewards_carry_no_inequity():
    assert inequity_reward(InequityParams(1.0, 2.0), 3.0, 3.0) == 0.0


def test_advantageous_inequity():
    assert inequity_reward(InequityParams(1.0, 2.0), 3.0, 0.0) == pytest.approx(-3.0)


def test_disadvantageous_inequity():
    assert inequity_reward(InequityParams(1.0, 2.0), 0.0, 3.0) == pytest.approx(-6.0)


def test_inequity_validation():
    with pytest.raises(ValueError):
        InequityParams(-0.1, 1.0)


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_non_finite_sensitivities_are_rejected(value):
    # each would shape to NaN: inf * 0.0 when a gap or a shortfall is 0
    with pytest.raises(ValueError, match="guilt sensitivity must be finite and > 0"):
        GuiltParams(value)
    with pytest.raises(ValueError, match="inequity sensitivities must be finite and >= 0"):
        InequityParams(value, 1.0)
    with pytest.raises(ValueError, match="inequity sensitivities must be finite and >= 0"):
        InequityParams(1.0, value)


def test_a_grid_learner_with_an_infinite_theta_is_rejected():
    from staghunt.experiments import GridworldSpec

    with pytest.raises(ValueError, match=r"GridworldSpec\.theta must be finite"):
        GridworldSpec(theta=math.inf)


@given(own=st.floats(-50, 50), other=st.floats(-50, 50))
# a subnormal gap: 0.5 * 5e-324 underflows, so the reward reads -0.0 though the rewards differ
@example(own=0.0, other=-5e-324)
def test_inequity_zero_iff_all_equal(own, other):
    value = inequity_reward(InequityParams(0.5, 1.5), own, other)
    assert value <= 0.0
    # a nonzero gap is never 0 (gradual underflow), but its weighted value can round to 0
    underflows = 0.5 * max(own - other, 0.0) == 0.0 and 1.5 * max(other - own, 0.0) == 0.0
    assert (value == 0.0) == (own == other or underflows)


@given(z=st.floats(0, 1), f=st.floats(0, 1), t=st.floats(0, 1))
def test_expected_value_bilinear_in_first_order(z, f, t):
    lo = make_tom_state(zero_order=z, first_order=0.0)
    hi = make_tom_state(zero_order=z, first_order=1.0)
    mid = make_tom_state(zero_order=z, first_order=t)
    blended = (1 - t) * expected_other_value(lo, Q1) + t * expected_other_value(hi, Q1)
    assert expected_other_value(mid, Q1) == pytest.approx(blended)


# --- the lane rule against the scalar rule, bit for bit --------------------------


def _bits(x) -> bytes:
    """A float's bytes: tells -0.0 from 0.0."""
    return struct.pack("<d", float(x))


def _triple(b0, b1, conf) -> tuple[bytes, ...]:
    return tuple(map(_bits, (b0, b1, conf)))


def _state_bits(state) -> tuple[bytes, ...]:
    return _triple(state.zero_order.p_cooperative, state.first_order.p_cooperative,
                   state.confidence)


# edge values first: probabilities at the clamp and signed zeros
_probability = st.one_of(st.sampled_from([0.0, -0.0, 1.0, 0.5]), st.floats(0, 1))
_matrix = st.one_of(
    st.sampled_from([Q1, PayoffMatrix(4.0, 3.0, 2.0, 0.0), PayoffMatrix(5.0, 4.0, 2.0, 1.0)]),
    st.lists(st.floats(-100, 100), min_size=4, max_size=4, unique=True).map(
        lambda xs: PayoffMatrix(*sorted(xs, reverse=True))
    ),
)
_learner = st.tuples(
    st.builds(make_tom_state, _probability, _probability, _probability, _probability,
              st.booleans()),
    st.one_of(st.none(), st.builds(GuiltParams, st.floats(1e-9, 1e6))),
    st.sampled_from([C, U]),  # own label
    st.sampled_from([C, U]),  # other's label
    st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-1e3, 1e3)),  # other's reward
    st.booleans(),  # stepped this time
)


# a config may give any setting as an int (JSON 0 or 1), and a reward too
_setting = st.one_of(_probability, st.sampled_from([0, 1]))
_int_learner = st.tuples(
    st.builds(make_tom_state, _setting, _setting, _setting, _setting, st.booleans()),
    st.one_of(st.none(), st.builds(GuiltParams, st.integers(1, 1000))),
    st.sampled_from([C, U]),
    st.sampled_from([C, U]),
    st.integers(-100, 100),
    st.booleans(),
)


@settings(max_examples=150, deadline=None)
@given(learners=st.lists(st.one_of(_learner, _int_learner), min_size=1, max_size=12),
       matrix=_matrix, at_payoff=st.booleans(), steps=st.integers(1, 3))
@example(  # frozen first-order belief, at the clamp, an exact zero shortfall
    learners=[(make_tom_state(1.0, 1.0, 1.0, 1.0, False), GuiltParams(2.0), C, C, 4.0, True),
              (make_tom_state(-0.0, 0.0, -0.0, -0.0), GuiltParams(1.0), U, C, -0.0, True),
              (make_tom_state(0.3, 0.6, 0.2, 0.4), None, C, U, 3.0, False)],
    matrix=PayoffMatrix(4.0, 3.0, 2.0, 0.0), at_payoff=False, steps=1,
)
@example(  # int payoffs and int other rewards, -0.0 beliefs, every slot stepped
    learners=[(make_tom_state(-0.0, -0.0, -0.0, 0.25, tom), GuiltParams(3.0), own, other, 0, True)
              for tom, own, other in ((True, C, U), (False, U, C), (True, U, U))],
    matrix=PayoffMatrix(4, 3, 2, 0), at_payoff=True, steps=1,
)
@example(  # unstepped slots at -0.0 beside a stepped one, int settings and rewards, two steps
    learners=[(make_tom_state(-0.0, -0.0, -0.0, 0.5, tom), GuiltParams(2), C, U, 0, stepped)
              for tom, stepped in ((True, False), (False, False), (True, True))],
    matrix=PayoffMatrix(4, 3, 2, 0), at_payoff=False, steps=2,
)
@example(  # phi is -0.0 (h is -0.0, beliefs at 1) and the reward +0.0: a -0.0 shortfall
    learners=[(make_tom_state(1.0, 1.0, 1.0, 0.0), GuiltParams(2.0), C, C, 0.0, True)],
    matrix=PayoffMatrix(-0.0, -1.0, -2.0, -3.0), at_payoff=False, steps=1,
)
def test_guilt_step_matches_the_scalar_rule_bit_for_bit(learners, matrix, at_payoff, steps):
    """Beliefs.step (masked to the stepped slots), repeated with the same labels, and
    update_beliefs (one lane) give each learner the scalar rule's beliefs, phi and
    guilt after every step; the slots not stepped keep theirs."""
    if at_payoff:  # the other's reward is the label payoff, as in the grid world
        learners = [(state, guilt, own, other, matrix.payoff(other, own), stepped)
                    for state, guilt, own, other, _, stepped in learners]
    beliefs = beliefs_of([l[0] for l in learners], [l[1] for l in learners])
    states = [l[0] for l in learners]
    for _ in range(steps):
        phi, psychological = beliefs.step(
            np.array([l[2] is C for l in learners]), np.array([l[3] is C for l in learners]),
            np.array([l[4] for l in learners]), matrix, np.array([l[5] for l in learners]),
        )
        for k, (state, (_, guilt, own, other, reward, stepped)) in enumerate(zip(states, learners)):
            b0, b1, conf = belief_step(
                state.zero_order.p_cooperative, state.first_order.p_cooperative,
                state.confidence, state.learning_rate, state.tom_enabled, other, own, matrix,
            )
            assert _state_bits(update_beliefs(state, other, own, matrix)) == _triple(b0, b1, conf)
            lane = _triple(beliefs.b[0, k], beliefs.b[1, k], beliefs.conf[k])
            if not stepped:
                assert lane == _state_bits(state)
                continue
            assert lane == _triple(b0, b1, conf)
            ref_phi = phi_from_beliefs(b0, b1, matrix)
            ref_psy = guilt_reward(guilt, ref_phi, reward) if guilt else 0.0
            assert (_bits(phi[k]), _bits(psychological[k])) == (_bits(ref_phi), _bits(ref_psy))
            states[k] = make_tom_state(b0, b1, conf, state.learning_rate, state.tom_enabled)


def test_a_guilt_off_slot_is_shaped_by_plus_zero():
    """theta 0.0 (guilt off) makes a slot's neg_theta +0.0, not -0.0, so its
    psychological reward is +0.0 whatever its shortfall."""
    beliefs = Beliefs(dict(b0=[0.5, 0.5], b1=[0.5, 0.5], conf=[0.5, 0.5], lr=[0.1, 0.1],
                           tom=[True, True], theta=[0.0, 2.0]))
    assert _bits(beliefs.neg_theta[0]) == _bits(0.0)
    _, psychological = beliefs.step(np.array([True, True]), np.array([False, False]),
                                    np.array([0.0, 0.0]), Q1)
    assert _bits(psychological[0]) == _bits(0.0)
    assert psychological[1] < 0.0  # the same shortfall, with guilt on
