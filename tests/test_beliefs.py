import dataclasses

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scalar_beliefs import Belief, make_tom_state, update_beliefs
from staghunt import C, U, PayoffMatrix


Q1 = PayoffMatrix(40, 30, 20, 0)
# the update predicts the other's label from the first-order belief; on Q1
# these first-order beliefs make it predict C and U
PREDICTS = {C: 1.0, U: 0.0}


def predicted(first_order, matrix=Q1):
    """The label the update predicts: at a fixed full confidence the
    zero-order belief moves all the way to it."""
    state = make_tom_state(0.5, first_order, confidence=1.0, learning_rate=0.0)
    zero_order = update_beliefs(state, U, U, matrix).zero_order.p_cooperative
    return C if zero_order == 1.0 else U


def confidence_after(confidence, learning_rate, observed, predicted_label):
    state = make_tom_state(0.5, PREDICTS[predicted_label], confidence, learning_rate)
    return update_beliefs(state, observed, U, Q1).confidence


def integrated(zero_order, confidence, predicted_label):
    """The zero-order belief after integration; a zero learning rate keeps the confidence."""
    state = make_tom_state(zero_order, PREDICTS[predicted_label], confidence, 0.0)
    return update_beliefs(state, U, U, Q1).zero_order.p_cooperative


# --- prediction -------------------------------------------------------------


def test_predict_point_mass_on_c_predicts_c():
    # other's candidate values: C scores h=40, U scores c=30
    assert predicted(first_order=1.0) is C


def test_predict_point_mass_on_u_predicts_u():
    # other's candidate values: C scores g=0, U scores m=20
    assert predicted(first_order=0.0) is U


def test_predict_uniform_first_order_prefers_u_on_q1_payoffs():
    # 0.5*40 + 0.5*0 = 20 against 0.5*30 + 0.5*20 = 25
    assert predicted(first_order=0.5) is U


def test_predict_tie_breaks_toward_c():
    # (5,4,2,1) with uniform first order: both candidates score 3
    assert predicted(first_order=0.5, matrix=PayoffMatrix(5, 4, 2, 1)) is C


# --- confidence -------------------------------------------------------------


def test_confidence_moves_up_on_correct_prediction():
    assert confidence_after(0.5, 0.1, observed=U, predicted_label=U) == pytest.approx(0.55)


def test_confidence_moves_down_on_wrong_prediction():
    assert confidence_after(0.5, 0.1, observed=C, predicted_label=U) == pytest.approx(0.45)


def test_zero_learning_rate_freezes_confidence():
    assert confidence_after(0.37, 0.0, observed=C, predicted_label=C) == 0.37
    assert confidence_after(0.37, 0.0, observed=C, predicted_label=U) == 0.37


def test_confidence_closed_form_after_k_correct_predictions():
    """k correct predictions from c0: confidence = 1 - (1-lam)^k (1-c0)."""
    lam, c0, k = 0.2, 0.3, 17
    state = make_tom_state(0.5, PREDICTS[U], c0, lam)
    for _ in range(k):
        # observing U, as predicted; the own U keeps the prediction at U
        state = update_beliefs(state, U, U, Q1)
    assert state.confidence == pytest.approx(1 - (1 - lam) ** k * (1 - c0))


# --- belief integration -----------------------------------------------------


def test_full_confidence_collapses_to_prediction():
    assert integrated(0.2, confidence=1.0, predicted_label=C) == 1.0
    assert integrated(0.2, confidence=1.0, predicted_label=U) == 0.0


def test_zero_confidence_keeps_prior():
    assert integrated(0.3, confidence=0.0, predicted_label=C) == pytest.approx(0.3)


def test_integration_blends_prior_and_prediction():
    assert integrated(0.3, confidence=0.5, predicted_label=C) == pytest.approx(0.65)


# --- full update pipeline ---------------------------------------------------


def test_update_beliefs_hand_worked_sequence():
    """Mutual defection from uniform beliefs: the four formulas chained by hand."""
    state = make_tom_state(zero_order=0.5, first_order=0.5, confidence=0.5, learning_rate=0.1)
    new = update_beliefs(state, observed_other=U, observed_self=U, matrix=Q1)
    assert new.confidence == pytest.approx(0.55)  # prediction U was correct
    assert new.zero_order.p_cooperative == pytest.approx(0.225)
    assert new.first_order.p_cooperative == pytest.approx(0.225)


def test_tom_disabled_freezes_first_order():
    state = make_tom_state(first_order=0.5, tom_enabled=False)
    for observed in [(C, C), (U, C), (C, U), (U, U)]:
        state = update_beliefs(state, *observed, matrix=Q1)
    assert state.first_order.p_cooperative == 0.5
    assert state.zero_order.p_cooperative != 0.5


def test_full_confidence_makes_first_order_point_mass_on_self_label():
    state = make_tom_state(first_order=0.2, confidence=1.0, learning_rate=0.0)
    new = update_beliefs(state, observed_other=U, observed_self=C, matrix=Q1)
    assert new.first_order.p_cooperative == 1.0


def test_update_beliefs_rejects_unknown():
    from staghunt import UNKNOWN

    state = make_tom_state()
    with pytest.raises(ValueError):
        update_beliefs(state, UNKNOWN, C, Q1)


def test_belief_validation():
    with pytest.raises(ValueError):
        Belief(1.2)
    with pytest.raises(ValueError):
        Belief(-0.01)
    with pytest.raises(ValueError):
        make_tom_state(confidence=1.5)


# --- range-preservation properties -------------------------------------------


label_seq = st.lists(
    st.tuples(st.sampled_from([C, U]), st.sampled_from([C, U])), min_size=1, max_size=60
)


@settings(max_examples=200)
@given(
    z=st.floats(0, 1),
    f=st.floats(0, 1),
    conf=st.floats(0, 1),
    lam=st.floats(0, 1),
    observations=label_seq,
)
def test_updates_preserve_ranges(z, f, conf, lam, observations):
    state = make_tom_state(zero_order=z, first_order=f, confidence=conf, learning_rate=lam)
    for other, own in observations:
        state = update_beliefs(state, other, own, Q1)
        assert 0.0 <= state.zero_order.p_cooperative <= 1.0
        assert 0.0 <= state.first_order.p_cooperative <= 1.0
        assert 0.0 <= state.confidence <= 1.0


@settings(max_examples=500)
@given(w=st.floats(0, 1), x=st.floats(0, 1), target=st.sampled_from([0.0, 1.0]))
# just below 0.5, where 1 - w rounds; the smallest and largest weights below 1
@example(w=0.49999999999999994, x=1.0, target=1.0)
@example(w=5e-324, x=1.0, target=1.0)
@example(w=1.0 - 2**-53, x=1.0, target=1.0)
def test_a_blend_of_unit_values_needs_no_clamp(w, x, target):
    """Why step_beliefs has no clamp: the scalar rule's blend (1 - w) * x + w * t,
    rounded in its order, stays in [0, 1], so its clamp never moves a value."""
    assert 0.0 <= (1.0 - w) * x + w * target <= 1.0


@given(observations=label_seq)
def test_lambda_zero_keeps_confidence_fixed(observations):
    state = make_tom_state(confidence=0.4, learning_rate=0.0)
    for other, own in observations:
        state = update_beliefs(state, other, own, Q1)
        assert state.confidence == 0.4


def test_states_are_values_not_mutated():
    state = make_tom_state()
    frozen = dataclasses.replace(state)
    update_beliefs(state, U, U, Q1)
    assert state == frozen
