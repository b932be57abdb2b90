import csv
import io
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from engine_helpers import unique_cc_fraction_by_theta
from staghunt import C, U, PayoffMatrix, guilt_threshold_f, pure_nash, transform_game
from staghunt import equilibrium
from staghunt.equilibrium import (
    _ne_flags_grid,
    equilibrium_grid_rows,
    observation1_mismatches,
    verify_observation1,
)

Q1 = PayoffMatrix(40, 30, 20, 0)
Q2 = PayoffMatrix(5, 4, 2, 1)


def frange(lo, hi, step):
    n = round((hi - lo) / step)
    return [round(lo + k * step, 10) for k in range(1, n + 1)]


# --- game transformation -----------------------------------------------------


def test_transform_full_expectation_high_sensitivity():
    game = transform_game(Q1, phi_row=40, phi_col=40, theta_row=200, theta_col=200)
    assert game.cells[(C, C)] == (40, 40)
    assert game.cells[(C, U)] == (-2000, -7970)
    assert game.cells[(U, C)] == (-7970, -2000)
    assert game.cells[(U, U)] == (-3980, -3980)


def test_transform_at_phi_g_is_identity():
    game = transform_game(Q1, phi_row=0, phi_col=0, theta_row=123, theta_col=7)
    for row in (C, U):
        for col in (C, U):
            assert game.cells[(row, col)] == Q1.payoff_pair(row, col)


def test_transform_uu_cell_with_moderate_expectation():
    game = transform_game(Q1, phi_row=25, phi_col=25, theta_row=2, theta_col=2)
    assert game.cells[(U, U)][0] == pytest.approx(10.0)


def test_transform_rejects_phi_out_of_range():
    with pytest.raises(ValueError):
        transform_game(Q1, phi_row=41, phi_col=40, theta_row=1, theta_col=1)
    with pytest.raises(ValueError):
        transform_game(Q1, phi_row=40, phi_col=-1, theta_row=1, theta_col=1)


def test_transform_psychological_component_never_positive():
    for phi in (0, 10, 20, 25, 30, 40):
        game = transform_game(Q1, phi, phi, 3.0, 3.0)
        for (row, col), (rv, cv) in game.cells.items():
            material_row, material_col = Q1.payoff_pair(row, col)
            assert rv <= material_row + 1e-12
            assert cv <= material_col + 1e-12


# --- pure equilibrium enumeration ---------------------------------------------


def test_high_guilt_leaves_only_mutual_cooperation():
    report = pure_nash(transform_game(Q1, 40, 40, 200, 200))
    assert report.pure_equilibria == ((C, C),)
    assert report.is_unique_cc
    assert report.c1_holds and report.c2_holds


def test_untransformed_game_has_the_two_classic_equilibria():
    report = pure_nash(transform_game(Q1, 0, 0, 5, 5))
    assert set(report.pure_equilibria) == {(C, C), (U, U)}
    assert not report.is_unique_cc


def test_threshold_boundary_theta_keeps_risk_dominant_equilibrium():
    # phi=25 in (m, c]: the bound is (m-g)/(phi-m) = 4
    at_bound = pure_nash(transform_game(Q1, 25, 25, 4.0, 4.0))
    assert (U, U) in at_bound.pure_equilibria
    assert not at_bound.is_unique_cc
    above = pure_nash(transform_game(Q1, 25, 25, 5.0, 5.0))
    assert above.pure_equilibria == ((C, C),)
    assert above.is_unique_cc


def test_report_threshold_value():
    report = pure_nash(transform_game(Q1, 25, 25, 4.0, 4.0))
    assert report.threshold_theta == pytest.approx(4.0)
    below_m = pure_nash(transform_game(Q1, 15, 15, 4.0, 4.0))
    assert math.isinf(below_m.threshold_theta)


def test_is_unique_cc_matches_equilibria_list():
    for phi in (0.0, 20.0, 22.0, 30.0, 40.0):
        for theta in (0.5, 2.0, 4.0, 10.0):
            report = pure_nash(transform_game(Q1, phi, phi, theta, theta))
            assert report.is_unique_cc == (report.pure_equilibria == ((C, C),))


# --- threshold function f ------------------------------------------------------


def test_guilt_threshold_examples():
    assert guilt_threshold_f(Q1, 200) == pytest.approx(20.1)
    assert guilt_threshold_f(Q2, 1) == pytest.approx(3.0)


def test_guilt_threshold_limit_is_m():
    assert guilt_threshold_f(Q1, 1e9) == pytest.approx(20.0, abs=1e-6)


def test_guilt_threshold_strictly_decreasing():
    thetas = [0.1 * k for k in range(1, 1001)]
    values = [guilt_threshold_f(Q1, t) for t in thetas]
    assert all(a > b for a, b in zip(values, values[1:]))


# --- observation 1: formula vs brute force --------------------------------------


def test_observation1_on_q1_grid():
    assert verify_observation1(Q1, frange(20, 40, 0.5), frange(0, 50, 0.1))


def test_observation1_on_q2_grid():
    assert verify_observation1(Q2, frange(2, 5, 0.05), frange(0, 50, 0.1))


def test_observation1_vacuous_when_phi_below_m():
    assert verify_observation1(Q1, [5.0, 10.0, 20.0], frange(0, 10, 0.5))


def test_observation1_mismatch_count_is_zero_on_q1():
    assert observation1_mismatches(Q1, frange(20, 40, 0.5), frange(0, 20, 0.25)) == 0


def test_c1_holds_across_the_feasible_region():
    """C1 is structural in the Stag Hunt: check a full grid for two matrices."""
    for matrix in (Q1, Q2):
        for phi in frange(matrix.g, matrix.h, (matrix.h - matrix.g) / 40):
            for theta in (0.01, 0.5, 5.0, 50.0, 500.0):
                report = pure_nash(transform_game(matrix, phi, phi, theta, theta))
                assert report.c1_holds
                assert (C, C) in report.pure_equilibria


@settings(max_examples=150, deadline=None)
@given(
    phi=st.floats(0, 40),
    theta=st.floats(0.01, 60),
)
def test_vectorised_flags_agree_with_scalar_enumeration(phi, theta):
    flags = _ne_flags_grid(Q1, np.array([phi]), np.array([theta]))
    report = pure_nash(transform_game(Q1, phi, phi, theta, theta))
    assert bool(flags["unique_cc"][0, 0]) == report.is_unique_cc
    assert int(flags["n_pure"][0, 0]) == len(report.pure_equilibria)


def test_unique_cc_fraction_non_decreasing_in_theta():
    frac = unique_cc_fraction_by_theta(Q1, frange(20, 40, 0.25), frange(0, 50, 0.25))
    assert np.all(np.diff(frac) >= 0)


def test_grid_rows_schema_and_threshold_column():
    # (phi, theta, n_pure_ne, unique_cc, threshold_theta); threshold (m-g)/(phi-m) = 4
    assert list(equilibrium_grid_rows(Q1, [25.0], [3.0, 5.0])) == [
        "25.0,3.0,2,False,4.0\r\n25.0,5.0,1,True,4.0\r\n",
    ]


@pytest.mark.parametrize("phi_grid, theta_grid", [([25.0], []), ([], [3.0])])
def test_grid_rows_of_an_empty_grid_are_empty(phi_grid, theta_grid):
    assert list(equilibrium_grid_rows(Q1, phi_grid, theta_grid)) == []


def _typed_grid_rows(matrix, phi_grid, theta_grid):
    """The typed per-cell rows that equilibrium_grid_rows once yielded for csv.writer."""
    phi = np.asarray(list(phi_grid), dtype=np.float64)
    theta = np.asarray(list(theta_grid), dtype=np.float64)
    flags = _ne_flags_grid(matrix, phi, theta)
    for i, p in enumerate(phi):
        threshold = (
            (matrix.m - matrix.g) / (min(p, matrix.c) - matrix.m) if p > matrix.m else math.inf
        )
        for j, t in enumerate(theta):
            yield (
                float(p),
                float(t),
                int(flags["n_pure"][i, j]),
                bool(flags["unique_cc"][i, j]),
                threshold,
            )


def _csv_text(rows) -> str:
    buffer = io.StringIO()
    csv.writer(buffer).writerows(rows)
    return buffer.getvalue()


@pytest.mark.parametrize(
    "matrix, phi_grid, theta_grid",
    [
        # phi below m, at m (inf thresholds) and above c, on integer matrix fields
        (Q1, [0.0, 12.5, 20.0, 20.05, 25.0, 30.0, 35.0, 40.0], [0.05, 1.0, 4.0, 4.5, 50.0]),
        (Q2, frange(1, 5, 0.25), frange(0, 10, 0.5)),
        # steps with no exact binary form: 0.1 * 3 = 0.30000000000000004
        (Q1, [20 + k * 0.1 for k in range(-5, 120)], [k * 0.3 for k in range(1, 60)]),
        (Q2, [k * 0.3 for k in range(3, 17)], [k * 0.1 for k in range(1, 80)]),
        (Q1, [25.0], [3.0]),
        # one theta column: one run of equal flags per row
        (Q1, frange(0, 40, 0.5), [3.0]),
        # flags change at the first and at the last theta column (threshold 4 at phi 25)
        (Q1, [25.0, 21.0], [3.0, 5.0, 6.0, 3.5, 25.0]),
        # each row's threshold (5, 4, 2) is on the theta grid: a tie is not unique (C,C)
        (Q1, [24.0, 25.0, 30.0], [2.0, 3.0, 4.0, 5.0, 6.0]),
        # flags change at every column, ties included
        (Q1, [25.0], [3.0, 5.0, 4.0, 6.0, 2.0, 7.0]),
    ],
    ids=["q1-inf-and-above-c", "q2", "q1-step-0.1-0.3", "q2-step-0.3-0.1", "single-cell",
         "single-theta", "change-at-first-and-last-theta", "threshold-ties",
         "change-at-every-theta"],
)
def test_grid_lines_match_csv_writer_on_the_typed_rows(matrix, phi_grid, theta_grid):
    blocks = list(equilibrium_grid_rows(matrix, phi_grid, theta_grid))
    assert len(blocks) == len(phi_grid)
    assert all(block.count("\r\n") == len(theta_grid) for block in blocks)
    assert "".join(blocks) == _csv_text(_typed_grid_rows(matrix, phi_grid, theta_grid))


# 7 phi rows: chunks of 1 and 3 rows end inside the grid and at its last row
CHUNK_PHI = [0.0, 20.0, 21.0, 24.0, 25.0, 30.0, 40.0]
CHUNK_THETA = [0.05, 2.0, 3.0, 4.0, 5.0, 50.0]


@pytest.mark.parametrize("chunk_cells", [1, len(CHUNK_THETA), 3 * len(CHUNK_THETA),
                                         3 * len(CHUNK_THETA) + 1, 7 * len(CHUNK_THETA)])
def test_grid_lines_do_not_depend_on_the_flag_chunk(monkeypatch, chunk_cells):
    monkeypatch.setattr(equilibrium, "FLAG_CHUNK_CELLS", chunk_cells)
    blocks = list(equilibrium_grid_rows(Q1, CHUNK_PHI, CHUNK_THETA))
    assert len(blocks) == len(CHUNK_PHI)
    assert "".join(blocks) == _csv_text(_typed_grid_rows(Q1, CHUNK_PHI, CHUNK_THETA))


def test_grid_rows_compute_a_chunk_only_when_its_first_block_is_asked_for(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return _ne_flags_grid(*args)

    monkeypatch.setattr(equilibrium, "_ne_flags_grid", counted)
    monkeypatch.setattr(equilibrium, "FLAG_CHUNK_CELLS", 2 * len(CHUNK_THETA))  # 2 phi rows
    blocks = equilibrium_grid_rows(Q1, CHUNK_PHI, CHUNK_THETA)
    assert calls == []
    next(blocks)
    assert len(calls) == 1
    next(blocks)
    assert len(calls) == 1
    next(blocks)
    assert len(calls) == 2
    assert len(list(blocks)) == len(CHUNK_PHI) - 3
    assert len(calls) == 4


def _streamed_peak(phi_grid, theta_grid):
    """The traced peak while the blocks are consumed one at a time, the lines and the
    characters they held."""
    lines = size = 0
    tracemalloc.start()
    try:
        for block in equilibrium_grid_rows(Q1, phi_grid, theta_grid):
            lines += block.count("\r\n")
            size += len(block)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, lines, size


def test_grid_rows_peak_memory_stays_near_the_text_they_return():
    """On the default analyze grid (400 x 1,000 cells) a consumer that drops each
    block holds one chunk of flags and one block at a time: the traced peak is
    under a quarter of the text yielded, and the same at 40 phi rows."""
    theta_grid = frange(0, 50, 0.05)
    peak, lines, size = _streamed_peak(frange(20, 40, 0.05), theta_grid)
    assert lines == 400 * 1000
    assert peak < size / 4  # ASCII: one byte a character
    small_peak, small_lines, _ = _streamed_peak(frange(20, 22, 0.05), theta_grid)
    assert small_lines == 40 * 1000
    assert abs(peak - small_peak) <= 2**20
