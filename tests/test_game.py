import math
import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from staghunt import C, U, UNKNOWN, PayoffMatrix
from staghunt.gridworld import GridConfig


Q1_MATRIX = PayoffMatrix(40, 30, 20, 0)


def test_payoff_table_q1_values():
    assert Q1_MATRIX.payoff(C, C) == 40
    assert Q1_MATRIX.payoff(U, C) == 30
    assert Q1_MATRIX.payoff(U, U) == 20
    assert Q1_MATRIX.payoff(C, U) == 0


def test_payoff_cooperator_against_defector_gets_g():
    m = PayoffMatrix(10.0, 7.5, 3.0, -1.0)
    assert m.payoff(C, U) == m.g


def test_payoff_rejects_unknown_labels():
    with pytest.raises(ValueError):
        Q1_MATRIX.payoff(UNKNOWN, C)
    with pytest.raises(ValueError):
        Q1_MATRIX.payoff(C, UNKNOWN)


@pytest.mark.parametrize("values", [(5, 4, 2, 1), (40, 30, 20, 0), (4.0, 3.0, 2.0, 0.0)])
def test_validate_payoffs_accepts_strict_orderings(values):
    m = PayoffMatrix(*values)
    assert (m.h, m.c, m.m, m.g) == values


@pytest.mark.parametrize(
    "values", [(4, 4, 2, 1), (5, 4, 4, 1), (5, 4, 2, 2), (1, 2, 3, 4), (5, 6, 2, 1)]
)
def test_validate_payoffs_rejects_violations(values):
    with pytest.raises(ValueError):
        PayoffMatrix(*values)


def test_ordering_error_names_the_offending_pair():
    with pytest.raises(ValueError, match="c > m"):
        PayoffMatrix(5, 4, 4, 1)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("position", range(4))
def test_a_non_finite_payoff_is_rejected_by_name(position, bad):
    """inf > c orders, but phi and the TD lookahead would then make NaN (0 * inf)."""
    values = [40.0, 30.0, 20.0, 0.0]
    values[position] = bad
    name = "hcmg"[position]
    with pytest.raises(ValueError, match=f"payoff {name} must be finite, got {name}={bad!r}"):
        PayoffMatrix(*values)


@pytest.mark.parametrize("field", ["reward_stag_joint", "reward_hare_alone",
                                   "reward_hare_shared", "reward_left_out"])
def test_a_grid_with_a_non_finite_reward_is_rejected(field):
    """A grid's four reward levels are its label PayoffMatrix, which checks them."""
    with pytest.raises(ValueError, match="must be finite"):
        GridConfig(**{field: math.inf})


@st.composite
def matrices(draw):
    g = draw(st.floats(-100, 100, allow_nan=False))
    steps = [draw(st.floats(0.01, 100)) for _ in range(3)]
    m = g + steps[0]
    mid = m + steps[1]
    h = mid + steps[2]
    return PayoffMatrix(h=h, c=mid, m=m, g=g)


@given(matrices())
def test_payoff_total_and_symmetric(matrix):
    """Swapping arguments turns the row player's payoff into the column player's."""
    for own in (C, U):
        for other in (C, U):
            mine = matrix.payoff(own, other)
            theirs = matrix.payoff(other, own)
            assert matrix.payoff_pair(own, other) == (mine, theirs)
    assert matrix.payoff(C, C) == matrix.h
    assert matrix.payoff(U, U) == matrix.m


def test_equal_int_and_float_payoffs_keep_their_own_reward_types():
    """Each matrix holds its own numpy payoffs: PayoffMatrix(40, 30, 20, 0) equals
    its float twin, but its rewards stay ints, as payoff() gives them, and so
    they stay after a pickle round trip (a payload sent to a worker)."""
    twins = PayoffMatrix(40.0, 30.0, 20.0, 0.0), PayoffMatrix(40, 30, 20, 0)
    for matrix in twins + twins[::-1] + tuple(pickle.loads(pickle.dumps(twins))):
        *floats, table = matrix.arrays()
        assert [x.dtype.kind for x in floats] == ["f"] * 4
        assert [type(x) for x in table.tolist()] == [type(matrix.h)] * 4
        assert table.tolist() == [matrix.m, matrix.c, matrix.g, matrix.h]
