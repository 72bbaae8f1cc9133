"""The tiled ratio-constant lattice search against the whole-lattice one.

``full_lattice_search`` is a frozen copy of ``grid_search_alpha`` from
before the row tiles: every case is evaluated on (res + 1)^2 meshgrid
arrays at once.  The tiled search must return an equal
``GridSearchResult`` (every field of both points, bit for bit), whatever
the tile size, while its memory stays flat in the resolution.
"""

import tracemalloc

import numpy as np
import pytest

from crossclust import bounds
from crossclust.bounds import (
    DENOM_GUARD,
    AlphaPoint,
    GridSearchResult,
    analytic_optima,
    grid_search_alpha,
    make_alpha_point,
)
from crossclust.cost import BATCH_ENTRIES


def full_lattice_search(resolution: int) -> GridSearchResult:
    res = resolution
    g = np.arange(res + 1) / res
    X, Y = np.meshgrid(g, g, indexing="ij")
    eps = 1e-9
    best_lattice: AlphaPoint | None = None

    def consider(obj, builder):
        nonlocal best_lattice
        idx = np.unravel_index(int(np.argmax(obj)), obj.shape)
        val = float(obj[idx])
        if not np.isfinite(val):
            return
        if best_lattice is None or val > best_lattice.objective:
            best_lattice = builder(idx)

    a_full = X * Y
    b_full = X * (1.0 - Y)
    c_full = (1.0 - X) * Y

    s0 = a_full + b_full + c_full
    d_room = np.minimum((1.0 - X) * (1.0 - Y), 0.5 - s0)
    feasible = d_room >= -1e-15
    d_top = np.floor(np.maximum(d_room, 0.0) * res + eps) / res
    den0 = X + Y - 2.0 * a_full
    for d_grid in (np.zeros_like(d_top), d_top):
        den = den0 + 2.0 * d_grid
        ok = feasible & (den > DENOM_GUARD)
        obj = np.where(ok, 2.0 * (s0 + d_grid) / np.where(ok, den, 1.0), -np.inf)

        def build_i(idx, d_grid=d_grid):
            return make_alpha_point(
                float(X[idx]), float(Y[idx]), float(a_full[idx]),
                float(b_full[idx]), float(c_full[idx]), float(d_grid[idx]), "i",
            )

        consider(obj, build_i)

    nb = np.floor(b_full * res + eps)
    nc = np.floor(c_full * res + eps)
    cap = np.floor((0.5 - a_full) * res + eps)
    s_units = np.minimum(nb + nc, cap)
    den = X + Y - 2.0 * a_full
    ok = (cap >= 0) & (den > DENOM_GUARD)
    obj = np.where(ok, 2.0 * (a_full + s_units / res) / np.where(ok, den, 1.0), -np.inf)

    def build_ii(idx):
        b_units = min(float(nb[idx]), float(s_units[idx]))
        c_units = float(s_units[idx]) - b_units
        return make_alpha_point(
            float(X[idx]), float(Y[idx]), float(a_full[idx]),
            b_units / res, c_units / res, 0.0, "ii",
        )

    consider(obj, build_ii)

    a_top = np.floor(np.minimum(a_full, 0.5) * res + eps) / res
    den = X + Y - 2.0 * a_top
    ok = den > DENOM_GUARD
    obj = np.where(ok, 2.0 * a_top / np.where(ok, den, 1.0), -np.inf)

    def build_iii(idx):
        return make_alpha_point(
            float(X[idx]), float(Y[idx]), float(a_top[idx]), 0.0, 0.0, 0.0, "iii"
        )

    consider(obj, build_iii)

    assert best_lattice is not None and best_lattice.objective is not None
    best = best_lattice
    for candidate in analytic_optima():
        assert candidate.objective is not None
        if candidate.objective > best.objective:
            best = candidate
    return GridSearchResult(best=best, lattice_best=best_lattice, resolution=res)


def _rows_per_tile(res: int) -> int:
    return max(1, BATCH_ENTRIES // (res + 1))


def test_one_tile_resolutions_match_the_whole_lattice():
    for res in range(2, 151):
        assert grid_search_alpha(res) == full_lattice_search(res), res


def test_both_sides_of_the_first_tile_boundary():
    # the largest resolution whose lattice is one tile, and the next
    one_tile = max(r for r in range(2, 400) if _rows_per_tile(r) >= r + 1)
    assert _rows_per_tile(one_tile + 1) < one_tile + 2
    for res in (one_tile, one_tile + 1):
        assert grid_search_alpha(res) == full_lattice_search(res), res


@pytest.mark.parametrize("res", [400, 1001])
def test_fine_lattices_match_the_whole_lattice(res):
    assert _rows_per_tile(res) < res + 1  # more than one tile
    assert grid_search_alpha(res) == full_lattice_search(res)


@pytest.mark.parametrize("res", [13, 29, 46, 99])
def test_any_tile_height_gives_the_same_result(res, monkeypatch):
    # At 13, 29 and 46 the winning case (i, ii, ii) attains its maximum in
    # two rows, so with tiles of 1, 2 or 7 rows, or of all rows bar one,
    # the tie is split by a tile boundary and the first row must win.
    expected = full_lattice_search(res)
    for rows in (1, 2, 7, res):
        monkeypatch.setattr(bounds, "BATCH_ENTRIES", rows * (res + 1))
        assert grid_search_alpha(res) == expected, rows


def test_memory_stays_flat_in_the_resolution():
    grid_search_alpha(1000)  # warm: imports, caches
    tracemalloc.start()
    try:
        grid_search_alpha(1000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20, peak
