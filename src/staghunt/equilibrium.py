"""Guilt-transformed Stag Hunt games and pure Nash equilibrium analysis.

Builds the shaped payoff matrix (material + guilt for each joint outcome),
enumerates pure equilibria by brute force, and checks the two theoretical
claims the package leans on:

    * once the expected-other-value phi exceeds m and the guilt sensitivity
      theta exceeds (m - g) / (min(phi, c) - m), the transformed game has a
      single pure equilibrium at (C, C);
    * the phi-threshold f(theta) = m + (m - g) / theta is decreasing, so
      larger sensitivities enlarge the region where that happens.

Comparisons use an absolute tolerance; a deviation must improve strictly
by more than the tolerance to disqualify an equilibrium, and a theta
exactly at the threshold counts as "not unique (C,C)".
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .game import C, U, PayoffMatrix, PolicyLabel
from .shaping import GuiltParams, guilt_reward

#: Absolute tolerance for payoff comparisons (payoffs are small sums/products
#: of config values, so 1e-9 is far below any meaningful gap).
PAYOFF_TOL = 1e-9


@dataclass(frozen=True, slots=True)
class TransformedGame:
    """2x2 game after adding each player's guilt term to the material payoffs.

    cells maps (row_label, col_label) -> (row_payoff, col_payoff).
    phi_row is the row player's expectation of the *column* player's
    material value (and symmetrically for phi_col).
    """

    matrix: PayoffMatrix
    cells: dict[tuple[PolicyLabel, PolicyLabel], tuple[float, float]]
    phi_row: float
    phi_col: float
    theta_row: float
    theta_col: float


@dataclass(frozen=True, slots=True)
class EquilibriumReport:
    pure_equilibria: tuple[tuple[PolicyLabel, PolicyLabel], ...]
    is_unique_cc: bool
    c1_holds: bool
    c2_holds: bool
    threshold_theta: float


def transform_game(
    matrix: PayoffMatrix,
    phi_row: float,
    phi_col: float,
    theta_row: float,
    theta_col: float,
) -> TransformedGame:
    """Add guilt terms to every outcome of the material game."""
    for name, phi in (("phi_row", phi_row), ("phi_col", phi_col)):
        if not matrix.g <= phi <= matrix.h:
            raise ValueError(f"{name}={phi} outside the feasible range [{matrix.g}, {matrix.h}]")
    row_guilt = GuiltParams(theta_row)
    col_guilt = GuiltParams(theta_col)

    cells: dict[tuple[PolicyLabel, PolicyLabel], tuple[float, float]] = {}
    for row in (C, U):
        for col in (C, U):
            row_material, col_material = matrix.payoff_pair(row, col)
            row_value = row_material + guilt_reward(row_guilt, phi_row, col_material)
            col_value = col_material + guilt_reward(col_guilt, phi_col, row_material)
            cells[(row, col)] = (row_value, col_value)
    return TransformedGame(
        matrix=matrix,
        cells=cells,
        phi_row=phi_row,
        phi_col=phi_col,
        theta_row=theta_row,
        theta_col=theta_col,
    )


def _condition_c1(matrix: PayoffMatrix, theta: float, phi: float) -> bool:
    h, c, g = matrix.h, matrix.c, matrix.g
    lhs = h - theta * max(0.0, phi - h)
    rhs = c - theta * max(0.0, phi - g)
    return lhs > rhs + PAYOFF_TOL


def _condition_c2(matrix: PayoffMatrix, theta: float, phi: float) -> bool:
    c, m, g = matrix.c, matrix.m, matrix.g
    lhs = g - theta * max(0.0, phi - c)
    rhs = m - theta * max(0.0, phi - m)
    return lhs > rhs + PAYOFF_TOL


def pure_nash(game: TransformedGame) -> EquilibriumReport:
    """Enumerate all four joint labels and test unilateral deviations.

    A cell is a pure equilibrium iff neither player can improve strictly
    (by more than the tolerance) with a unilateral label switch.
    """
    labels = (C, U)
    equilibria: list[tuple[PolicyLabel, PolicyLabel]] = []
    for row in labels:
        for col in labels:
            row_value, col_value = game.cells[(row, col)]
            row_alt = game.cells[(U if row is C else C, col)][0]
            col_alt = game.cells[(row, U if col is C else C)][1]
            if row_alt > row_value + PAYOFF_TOL:
                continue
            if col_alt > col_value + PAYOFF_TOL:
                continue
            equilibria.append((row, col))

    matrix = game.matrix
    c1 = _condition_c1(matrix, game.theta_row, game.phi_row) and _condition_c1(
        matrix, game.theta_col, game.phi_col
    )
    c2 = _condition_c2(matrix, game.theta_row, game.phi_row) and _condition_c2(
        matrix, game.theta_col, game.phi_col
    )
    if game.phi_row > matrix.m:
        threshold = (matrix.m - matrix.g) / (min(game.phi_row, matrix.c) - matrix.m)
    else:
        threshold = math.inf
    return EquilibriumReport(
        pure_equilibria=tuple(equilibria),
        is_unique_cc=equilibria == [(C, C)],
        c1_holds=c1,
        c2_holds=c2,
        threshold_theta=threshold,
    )


def guilt_threshold_f(matrix: PayoffMatrix, theta: float) -> float:
    """The phi level above which (U, U) stops being an equilibrium: m + (m-g)/theta."""
    if not theta > 0:
        raise ValueError(f"theta must be > 0, got {theta}")
    return matrix.m + (matrix.m - matrix.g) / theta


def _ne_flags_grid(
    matrix: PayoffMatrix, phi: np.ndarray, theta: np.ndarray
) -> dict[str, np.ndarray]:
    """Vectorised brute-force equilibrium flags over the (phi, theta) grid.

    Both players share phi and theta (the symmetric self-play setting).
    Returns (len(phi), len(theta)) boolean arrays keyed by cell name plus
    the unique-(C,C) flag, computed by broadcasting a phi column against a
    theta row (the same elementwise operations as on meshgrid copies).
    Mirrors pure_nash exactly; tests assert the two routes agree.
    """
    h, c, m, g = matrix.h, matrix.c, matrix.m, matrix.g
    pp, tt = phi[:, None], theta[None, :]

    t_cc = h - tt * np.maximum(0.0, pp - h)  # other receives h
    t_cu = g - tt * np.maximum(0.0, pp - c)  # row cooperates, other receives c
    t_uc = c - tt * np.maximum(0.0, pp - g)  # row defects, other receives g
    t_uu = m - tt * np.maximum(0.0, pp - m)  # other receives m

    cc_ne = ~(t_uc > t_cc + PAYOFF_TOL)
    uu_ne = ~(t_cu > t_uu + PAYOFF_TOL)
    # (C, U): row deviating C->U lands on t_uu; column deviating U->C lands on t_cc.
    cu_ne = ~(t_uu > t_cu + PAYOFF_TOL) & ~(t_cc > t_uc + PAYOFF_TOL)
    n_pure = (
        cc_ne.astype(np.int64) + uu_ne.astype(np.int64) + 2 * cu_ne.astype(np.int64)
    )
    unique_cc = cc_ne & ~uu_ne & ~cu_ne
    return {"cc": cc_ne, "uu": uu_ne, "offdiag": cu_ne, "n_pure": n_pure, "unique_cc": unique_cc}


def _observation1_predicted(
    matrix: PayoffMatrix, phi: np.ndarray, theta: np.ndarray
) -> np.ndarray:
    """Threshold-formula prediction of unique (C,C), evaluated in payoff space.

    theta > (m-g)/(min(phi,c)-m) is compared as
    theta * (min(phi,c)-m) > (m-g) + tol so the tie-handling matches the
    brute-force deviation comparisons bit for bit.
    """
    m, g, c = matrix.m, matrix.g, matrix.c
    pp, tt = phi[:, None], theta[None, :]
    return (pp > m) & (tt * (np.minimum(pp, c) - m) > (m - g) + PAYOFF_TOL)


def observation1_mismatches(
    matrix: PayoffMatrix, phi_grid: Sequence[float], theta_grid: Sequence[float]
) -> int:
    """Count grid cells where brute force and the threshold formula disagree.

    Only cells with phi > m participate; the observation says nothing about
    the rest.
    """
    phi = np.asarray(list(phi_grid), dtype=np.float64)
    theta = np.asarray(list(theta_grid), dtype=np.float64)
    if phi.size == 0 or theta.size == 0:
        raise ValueError("phi and theta grids must be non-empty")
    flags = _ne_flags_grid(matrix, phi, theta)
    predicted = _observation1_predicted(matrix, phi, theta)
    applicable = phi[:, None] > matrix.m
    return int(np.sum(applicable & (flags["unique_cc"] != predicted)))


def verify_observation1(
    matrix: PayoffMatrix, phi_grid: Sequence[float], theta_grid: Sequence[float]
) -> bool:
    """True iff the threshold formula matches brute-force enumeration everywhere."""
    return observation1_mismatches(matrix, phi_grid, theta_grid) == 0


#: equilibrium_grid_rows computes flags for this many cells at a time (at least one phi row).
FLAG_CHUNK_CELLS = 16_384


def equilibrium_grid_rows(
    matrix: PayoffMatrix, phi_grid: Sequence[float], theta_grid: Sequence[float]
) -> Iterator[str]:
    """CSV text, one block per phi row of len(theta_grid) lines, each ending in "\\r\\n".

    Cells run phi-major, theta-minor. Each line is byte-equal to what
    csv.writer writes for (phi, theta, n_pure_ne, unique_cc, threshold_theta):
    csv writes a float as str(), its shortest round-trip repr, so each distinct
    phi, theta and threshold is rendered once, and each run of equal flags in a
    phi row is joined in one str.join. The flags are elementwise in (phi, theta),
    so computing them FLAG_CHUNK_CELLS cells at a time changes no bit.

    The blocks are yielded in order, and each chunk's flags are computed only
    when its first block is asked for, so a consumer that writes each block
    as it comes holds one chunk at a time, whatever the size of the grid.
    """
    phi = np.asarray(list(phi_grid), dtype=np.float64)
    theta = np.asarray(list(theta_grid), dtype=np.float64)
    if theta.size == 0:
        return
    c, m, g = matrix.c, matrix.m, matrix.g
    thetas = [f",{t!r}," for t in theta.tolist()]
    middles = {2 * n + u: f"{n},{u}," for n in range(5) for u in (False, True)}
    step = max(1, FLAG_CHUNK_CELLS // theta.size)
    for lo in range(0, phi.size, step):
        flags = _ne_flags_grid(matrix, phi[lo:lo + step], theta)
        # the (n_pure_ne, unique_cc) pair as one int, and where a run of equal pairs starts
        pair = 2 * flags["n_pure"] + flags["unique_cc"]
        starts = np.diff(pair, axis=1, prepend=-1) != 0
        for p, pair_row, starts_row in zip(phi[lo:lo + step].tolist(), pair, starts):
            threshold = (m - g) / (min(p, c) - m) if p > m else math.inf
            head, tail = repr(p), f"{threshold!r}\r\n"
            cols = np.flatnonzero(starts_row)
            mids = [middles[k] for k in pair_row[cols].tolist()]
            bounds = [*cols.tolist(), len(thetas)]
            yield "".join(
                head + (mid + tail + head).join(thetas[a:b]) + mid + tail
                for a, b, mid in zip(bounds, bounds[1:], mids)
            )
