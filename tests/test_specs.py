"""Experiment specs reject invalid fields when they are built, naming the field."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from staghunt.experiments import (
    COMPOSITIONS,
    MATRIX_VARIANTS,
    GridworldSpec,
    SweepSpec,
    TournamentSpec,
)
from staghunt.gridworld import SCENARIOS
from staghunt.policy_learner import VARIANTS as GRID_VARIANTS

# every property below is parametrised over many fields; 30 examples each
# keep the file to a few seconds
few = settings(max_examples=30)

COUNTS = [
    (SweepSpec, "iterations"), (SweepSpec, "repetitions"), (SweepSpec, "measure_window"),
    (TournamentSpec, "rounds"), (TournamentSpec, "report_window"),
    (TournamentSpec, "repetitions"), (TournamentSpec, "pavlov_n"),
    (GridworldSpec, "seeds"), (GridworldSpec, "iterations"), (GridworldSpec, "window"),
    (GridworldSpec, "epochs"), (GridworldSpec, "time_bucket_width"),
]
NAMES = [
    (SweepSpec, "variants", MATRIX_VARIANTS),
    (TournamentSpec, "compositions", COMPOSITIONS),
    (GridworldSpec, "scenarios", SCENARIOS),
    (GridworldSpec, "variants", GRID_VARIANTS),
]
PROBABILITIES = [
    (TournamentSpec, "pavlov_p0"),
    *((GridworldSpec, name) for name in
      ("threshold", "zero_order", "first_order", "confidence", "learning_rate")),
]


@pytest.mark.parametrize("cls, name", COUNTS)
@few
@given(value=st.integers(-1000, 0))
def test_counts_below_one_are_rejected(cls, name, value):
    with pytest.raises(ValueError, match=name):
        cls(**{name: value})


@pytest.mark.parametrize("cls, name", COUNTS)
@few
@given(value=st.integers(1, 1000))
def test_counts_of_one_or_more_are_accepted(cls, name, value):
    assert getattr(cls(**{name: value}), name) == value


@pytest.mark.parametrize("cls, name, allowed", NAMES)
@few
@given(data=st.data())
def test_unknown_names_are_rejected(cls, name, allowed, data):
    known = data.draw(st.lists(st.sampled_from(allowed), max_size=3))
    stranger = data.draw(st.text(max_size=12).filter(lambda s: s not in allowed))
    with pytest.raises(ValueError, match=name):
        cls(**{name: (*known, stranger)})


@pytest.mark.parametrize("cls, name, allowed", NAMES)
@few
@given(data=st.data())
def test_known_names_are_accepted(cls, name, allowed, data):
    chosen = tuple(data.draw(st.lists(st.sampled_from(allowed), min_size=1, unique=True)))
    assert getattr(cls(**{name: chosen}), name) == chosen


@pytest.mark.parametrize("cls, name", PROBABILITIES)
@few
@given(value=st.one_of(st.floats(max_value=-1e-9), st.floats(min_value=1 + 1e-9), st.just(float("nan"))))
def test_probabilities_outside_the_unit_interval_are_rejected(cls, name, value):
    with pytest.raises(ValueError, match=name):
        cls(**{name: value})


@pytest.mark.parametrize("cls, name", PROBABILITIES)
@few
@given(value=st.floats(0.0, 1.0))
def test_probabilities_in_the_unit_interval_are_accepted(cls, name, value):
    assert getattr(cls(**{name: value}), name) == value


@few
@given(theta=st.one_of(st.floats(max_value=0.0), st.just(float("nan"))))
def test_gridworld_theta_must_be_positive(theta):
    with pytest.raises(ValueError, match="theta"):
        GridworldSpec(theta=theta)


def test_gridworld_stag_motion_must_be_known():
    for motion in (None, "static", "random_walk"):
        assert GridworldSpec(stag_motion=motion).stag_motion == motion
    with pytest.raises(ValueError, match="stag_motion"):
        GridworldSpec(stag_motion="teleport")


EMPTIES = [
    (SweepSpec, "probabilities"), (SweepSpec, "variants"),
    (TournamentSpec, "group_sizes"), (TournamentSpec, "compositions"),
    (GridworldSpec, "scenarios"), (GridworldSpec, "variants"),
]


@pytest.mark.parametrize("cls, name", EMPTIES)
def test_empty_grids_are_rejected(cls, name):
    with pytest.raises(ValueError, match=name):
        cls(**{name: ()})
