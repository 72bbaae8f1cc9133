"""The ratio-constant lattice search against the whole-lattice one.

``full_lattice_search`` is a frozen copy of ``grid_search_alpha`` from
before the row tiles: every case is evaluated on (res + 1)^2 meshgrid
arrays at once.  The branch-and-bound search must return an equal
``GridSearchResult`` (every field of both points, bit for bit), whatever
the leaf side and chunk size, while it evaluates a small share of the
lattice and its memory stays flat in the resolution.  Its box bound must
cover every lattice value in the box.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossclust import bounds
from crossclust.bounds import (
    DENOM_GUARD,
    LATTICE_SNAP,
    AlphaPoint,
    GridSearchResult,
    analytic_optima,
    grid_search_alpha,
    make_alpha_point,
)
from crossclust.cost import BATCH_ENTRIES, BINARY_L1_RATIO_BOUND


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


@pytest.mark.parametrize("res", [13, 29, 46, 99])
def test_any_leaf_side_gives_the_same_result(res, monkeypatch):
    # At 13, 29 and 46 the winning case attains its maximum at two points
    # in different rows (at 13 both ends of case i's d tie as well), so
    # leaves of 1, 2 or 7 points a side, or chunks of 5 points, split the
    # tie; the whole lattice as one leaf is the unpruned search.
    expected = full_lattice_search(res)
    for side in (1, 2, 7, res + 1):
        monkeypatch.setattr(bounds, "LEAF_SIDE", side)
        for entries in (5, BATCH_ENTRIES):
            monkeypatch.setattr(bounds, "BATCH_ENTRIES", entries)
            assert grid_search_alpha(res) == expected, (side, entries)


def _box_bound_and_values(res, i0, i1, j0, j1):
    """The bound plus margin of the index box, and every _lattice_cases
    value at its points."""
    i, j = np.meshgrid(np.arange(i0, i1 + 1), np.arange(j0, j1 + 1), indexing="ij")
    x0, x1, y0, y1 = i0 / res, i1 / res, j0 / res, j1 / res
    bound, margin = bounds._alpha_box_bound(x0, x1, y0, y1, LATTICE_SNAP / res)
    return bound + margin, np.stack(bounds._lattice_cases(i.ravel(), j.ravel(), res)[0])


@st.composite
def index_boxes(draw):
    """(res, i0, i1, j0, j1, kind): an index box of at most 48 points a
    side, anywhere or pinned to one of the edges and curves the bound's
    cases turn on."""
    res = draw(st.integers(2, 5000))
    kind = draw(st.sampled_from(["anywhere", "x = 0", "y = 0", "corner", "s = 1/2", "xy = 1/2"]))
    below, above, wide = (draw(st.integers(0, min(res, 47))) for _ in range(3))
    if kind == "s = 1/2":
        i0 = draw(st.integers(0, res // 2 - 1))
        x = i0 / res
        centre = (0.5 - x) / (1.0 - x) * res  # s(x, centre / res) = 1/2
    elif kind == "xy = 1/2":
        i0 = draw(st.integers(-(-res // 2), res))
        centre = 0.5 / (i0 / res) * res
    else:
        i0 = 0 if kind in ("x = 0", "corner") else draw(st.integers(0, res))
        centre = 0 if kind in ("y = 0", "corner") else draw(st.integers(0, res))
        below = 0
    i1 = min(res, i0 + wide)
    j0 = max(0, int(np.floor(centre)) - below)
    j1 = min(res, int(np.ceil(centre)) + above)
    return res, i0, i1, j0, j1, kind


@settings(max_examples=400, deadline=None)
@given(index_boxes())
def test_the_box_bound_covers_every_lattice_value(box):
    res, i0, i1, j0, j1, kind = box
    x0, x1, y0, y1 = i0 / res, i1 / res, j0 / res, j1 / res
    if kind == "s = 1/2":
        assert x0 + y0 - x0 * y0 <= 0.5 + 1e-12 and x1 + y1 - x1 * y1 >= 0.5 - 1e-12
    if kind == "xy = 1/2":
        assert x0 * y0 <= 0.5 + 1e-12 and x1 * y1 >= 0.5 - 1e-12
    if kind == "corner":
        assert np.isinf(bounds._alpha_box_bound(x0, x1, y0, y1, 0.0)[0])
    ceiling, values = _box_bound_and_values(res, i0, i1, j0, j1)
    assert (values <= ceiling).all(), (values.max(), ceiling)


@pytest.mark.parametrize("res", [50, 400, 4999])
def test_the_box_bound_is_tight_on_single_points(res):
    # Where case i is feasible its d = 0 value is the bound's own formula,
    # so on one-point boxes the bound plus margin exceeds it only by the
    # snapping allowance, the margin and rounding.  At 4999 the margin
    # outweighs the snapping allowance, so a bound less the margin fails.
    hits = 0
    for i in range(1, res // 2, max(1, res // 50)):
        for j in range(1, res // 2, max(1, res // 50)):
            ceiling, values = _box_bound_and_values(res, i, i, j, j)
            if np.isfinite(values[0, 0]):
                hits += 1
                assert values[0, 0] <= ceiling <= values[0, 0] * (1 + 1e-6)
    assert hits > 10


def _count_evaluated(monkeypatch) -> list[int]:
    """Spy on _lattice_cases: the number of points of each call."""
    sizes = []
    original = bounds._lattice_cases

    def spy(i, j, res):
        sizes.append(np.broadcast(i, j).size)
        return original(i, j, res)

    monkeypatch.setattr(bounds, "_lattice_cases", spy)
    return sizes


@pytest.mark.parametrize("res", [400, 1001])
def test_the_bound_prunes_most_of_the_lattice(res, monkeypatch):
    evaluated = _count_evaluated(monkeypatch)
    grid_search_alpha(res)
    assert sum(evaluated) <= 0.1 * (res + 1) ** 2


def test_a_very_fine_lattice_stays_small(monkeypatch):
    res = 20_000
    grid_search_alpha(res)  # warm: imports, caches
    evaluated = _count_evaluated(monkeypatch)
    tracemalloc.start()
    try:
        result = grid_search_alpha(res)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20, peak
    assert sum(evaluated) < 1e-3 * (res + 1) ** 2
    assert BINARY_L1_RATIO_BOUND - 1e-4 < result.lattice_value <= BINARY_L1_RATIO_BOUND + 1e-9
