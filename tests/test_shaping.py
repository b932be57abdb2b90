import math

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from staghunt import (
    GuiltParams,
    InequityParams,
    PayoffMatrix,
    expected_other_value,
    guilt_reward,
    inequity_reward,
    make_tom_state,
    shape_reward,
)

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
    assert inequity_reward(InequityParams(1.0, 2.0), 3.0, [3.0]) == 0.0


def test_advantageous_inequity():
    assert inequity_reward(InequityParams(1.0, 2.0), 3.0, [0.0]) == pytest.approx(-3.0)


def test_disadvantageous_inequity():
    assert inequity_reward(InequityParams(1.0, 2.0), 0.0, [3.0]) == pytest.approx(-6.0)


def test_inequity_rejects_empty_others():
    with pytest.raises(ValueError):
        inequity_reward(InequityParams(1.0, 1.0), 3.0, [])


def test_inequity_validation():
    with pytest.raises(ValueError):
        InequityParams(-0.1, 1.0)
    with pytest.raises(ValueError):
        InequityParams(1.0, 1.0, n_agents=1)


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
    from staghunt.policy_learner import make_grid_learner

    with pytest.raises(ValueError, match="guilt sensitivity"):
        make_grid_learner("tomaga", theta=math.inf)


@given(
    own=st.floats(-50, 50),
    others=st.lists(st.floats(-50, 50), min_size=1, max_size=6),
)
# a subnormal gap: 0.5 * 5e-324 underflows, so the reward reads -0.0 though the rewards differ
@example(own=0.0, others=[-5e-324])
def test_inequity_zero_iff_all_equal(own, others):
    params = InequityParams(0.5, 1.5, n_agents=len(others) + 1)
    value = inequity_reward(params, own, others)
    assert value <= 0.0
    # a nonzero gap is never 0 (gradual underflow), but its weighted sum can round to 0
    advantage = sum(max(own - r, 0.0) for r in others)
    disadvantage = sum(max(r - own, 0.0) for r in others)
    n1 = len(others)
    underflows = 0.5 / n1 * advantage == 0.0 and 1.5 / n1 * disadvantage == 0.0
    assert (value == 0.0) == (all(r == own for r in others) or underflows)


@given(z=st.floats(0, 1), f=st.floats(0, 1), t=st.floats(0, 1))
def test_expected_value_bilinear_in_first_order(z, f, t):
    lo = make_tom_state(zero_order=z, first_order=0.0)
    hi = make_tom_state(zero_order=z, first_order=1.0)
    mid = make_tom_state(zero_order=z, first_order=t)
    blended = (1 - t) * expected_other_value(lo, Q1) + t * expected_other_value(hi, Q1)
    assert expected_other_value(mid, Q1) == pytest.approx(blended)
