"""Experiment specs reject invalid fields when they are built, naming the field."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from staghunt.config import build_spec
from staghunt.experiments import (
    COMPOSITIONS,
    GRID_VARIANTS,
    MATRIX_VARIANTS,
    AgentParams,
    GridworldSpec,
    SweepSpec,
    TournamentSpec,
)
from staghunt.gridworld import SCENARIOS, STAG_MOTIONS

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
      ("threshold", "zero_order", "first_order", "confidence", "learning_rate", "gamma")),
    *((AgentParams, name) for name in
      ("gamma", "learning_rate", "confidence", "zero_order", "first_order")),
]
NAN = float("nan")
# (cls, name): values rejected, values accepted, for fields bounded other than by [0, 1]
BOUNDS = {
    (AgentParams, "theta"): ((0.0, -1.0, NAN, None, "200"), (1e-9, 200.0, 1e6)),
    (AgentParams, "temperature"): ((0.0, -1.0, NAN), (1e-9, 1.0, 50.0)),
    (AgentParams, "alpha"): ((0.0, -0.1, 1.0 + 1e-9, NAN), (1e-9, 0.5, 1.0)),
    (AgentParams, "temperature_decay"): ((0.0, -0.5, 1.5, NAN), (1e-9, 0.995, 1.0)),
    (AgentParams, "prob_clamp"): ((0.0, 0.5, 0.7, -1e-3, NAN), (1e-9, 1e-3, 0.49)),
    (GridworldSpec, "step_size"): ((0.0, -1.0, NAN), (1e-9, 0.5, 5.0)),
    (GridworldSpec, "clip_ratio"): ((-0.5, -1e-9, NAN, None, "0.2"), (0.0, 0.2, 2.0)),
    (GridworldSpec, "entropy_weight"): ((-3.0, -1e-9, NAN), (0.0, 0.03, 1.0)),
    (GridworldSpec, "inequity_advantageous"): ((-1.0, NAN), (0.0, 1.0)),
    (GridworldSpec, "inequity_disadvantageous"): ((-1.0, NAN), (0.0, 1.0)),
}


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


@pytest.mark.parametrize("cls, name", COUNTS)
@pytest.mark.parametrize("value", [2.5, 1000.0, True])
def test_counts_that_are_not_integers_are_rejected(cls, name, value):
    """A float count fails later in the run, or is truncated; True would count as 1."""
    with pytest.raises(ValueError, match=rf"{cls.__name__}\.{name} must be an integer >= 1"):
        cls(**{name: value})


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


@pytest.mark.parametrize("cls, name", list(BOUNDS))
def test_bounded_fields_reject_values_outside_their_interval(cls, name):
    rejected, accepted = BOUNDS[cls, name]
    for value in rejected:
        with pytest.raises(ValueError, match=rf"{cls.__name__}\.{name} must"):
            cls(**{name: value})
    for value in accepted:
        assert getattr(cls(**{name: value}), name) == value


# each of these makes NaN at inf, through -inf * 0.0 or inf - inf
NON_FINITE = [
    (AgentParams, "theta"), (AgentParams, "temperature"),
    *((GridworldSpec, name) for name in ("theta", "step_size", "entropy_weight",
                                         "inequity_advantageous", "inequity_disadvantageous")),
]


@pytest.mark.parametrize("cls, name", NON_FINITE)
@pytest.mark.parametrize("value", [float("inf"), NAN])
def test_non_finite_weights_are_rejected(cls, name, value):
    with pytest.raises(ValueError, match=rf"{cls.__name__}\.{name} must be finite"):
        cls(**{name: value})


@few
@given(theta=st.one_of(st.floats(max_value=0.0), st.just(float("nan"))))
def test_gridworld_theta_must_be_positive(theta):
    with pytest.raises(ValueError, match="theta"):
        GridworldSpec(theta=theta)


def test_gridworld_stag_motion_must_be_known():
    for motion in STAG_MOTIONS:
        assert GridworldSpec(stag_motion=motion).stag_motion == motion
    for motion in ("teleport", None):
        with pytest.raises(ValueError, match=r"GridworldSpec\.stag_motion must be one of"):
            GridworldSpec(stag_motion=motion)


EMPTIES = [
    (SweepSpec, "probabilities"), (SweepSpec, "variants"),
    (TournamentSpec, "group_sizes"), (TournamentSpec, "compositions"),
    (GridworldSpec, "scenarios"), (GridworldSpec, "variants"),
]


@pytest.mark.parametrize("cls, name", EMPTIES)
def test_empty_grids_are_rejected(cls, name):
    with pytest.raises(ValueError, match=name):
        cls(**{name: ()})


# a repeated axis value would be a second run under the same CSV key, and its
# rows would be merged into one summary cell
REPEATS = {
    (SweepSpec, "probabilities"): (0.5, 1.0, 0.5),
    (SweepSpec, "variants"): ("tomaga", "tomaga"),
    (TournamentSpec, "group_sizes"): (2, 4, 2),
    (TournamentSpec, "compositions"): ("pavlov", "tomaga", "pavlov"),
    (GridworldSpec, "scenarios"): ("near-stag", "near-stag"),
    (GridworldSpec, "variants"): ("tomaga", "individual", "tomaga"),
}


@pytest.mark.parametrize("cls, name", list(REPEATS))
def test_repeated_axis_values_are_rejected(cls, name):
    repeated = REPEATS[cls, name]
    with pytest.raises(ValueError, match=rf"{cls.__name__}\.{name} must not repeat a value"):
        cls(**{name: repeated})
    distinct = tuple(dict.fromkeys(repeated))
    assert getattr(cls(**{name: distinct}), name) == distinct


def test_default_specs_repeat_no_value():
    for cls, name in REPEATS:
        values = getattr(cls(), name)
        assert len(set(values)) == len(values)


# (spec, config section, that section): a tuple field given a scalar or a string
NOT_LISTS = [
    (SweepSpec, "sweep", {"variants": "tomaga"}),
    (SweepSpec, "sweep", {"probabilities": 0.5}),
    (TournamentSpec, "tournament", {"group_sizes": 4}),
    (GridworldSpec, "gridworld", {"scenarios": "near-stag"}),
]


@pytest.mark.parametrize("cls, section, raw", NOT_LISTS)
def test_config_lists_given_a_scalar_or_a_string_are_rejected(cls, section, raw):
    (name, value), = raw.items()
    with pytest.raises(ValueError, match=rf"^{section}\.{name} must be a list, got {value!r}$"):
        build_spec(cls, section, {section: raw})


def test_a_probability_of_the_wrong_type_is_a_value_error():
    with pytest.raises(ValueError, match=r"SweepSpec\.probabilities must lie in \[0, 1\]"):
        build_spec(SweepSpec, "sweep", {"sweep": {"probabilities": [0.5, "x"]}})
    with pytest.raises(ValueError, match=r"SweepSpec\.probabilities must lie in \[0, 1\]"):
        SweepSpec(probabilities=(0.5, 1.5))


@pytest.mark.parametrize("probability", [True, False])
def test_a_bool_probability_is_rejected(probability):
    # 0 <= True <= 1, so only its type tells it from 1.0
    with pytest.raises(ValueError, match=r"SweepSpec\.probabilities must lie in \[0, 1\]"):
        build_spec(SweepSpec, "sweep", {"sweep": {"probabilities": [probability, 0.5]}})


@pytest.mark.parametrize("size", [2.5, 4.0, True, "4", 1, 0])
def test_a_group_size_must_be_an_integer_of_at_least_2(size):
    with pytest.raises(ValueError, match=r"TournamentSpec\.group_sizes must be integers >= 2"):
        TournamentSpec(group_sizes=(size,), rounds=5, repetitions=1, compositions=("pavlov",))
