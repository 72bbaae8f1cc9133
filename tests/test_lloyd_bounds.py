"""Lloyd with Hamerly's bounds against plain Lloyd.

``plain_lloyd_once`` is a frozen copy of the restart loop from before the
bounds: every iteration computes every point's distance to every center.
The bounded loop must give the same assignment and iteration count, or
raise the same error, on every input.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from crossclust import Norm, planted_real_matrix, random_real_matrix
from crossclust.errors import CrossclustError
from crossclust.model import Partition
from crossclust.rng import SplitMix64
from crossclust import oneway
from crossclust.oneway import (
    LLOYD_MAX_ITERATIONS,
    _centers_from_assignment,
    _lloyd_once,
    _repair_empty_clusters,
    _seed_centers,
    _skip_margin,
    _stale,
)


def plain_distances(points, center, norm):
    if norm is Norm.L1:
        return np.abs(points - center).sum(axis=1)
    return ((points - center) ** 2).sum(axis=1)


def plain_lloyd_once(points, k, norm, seed):
    n = points.shape[0]
    rng = SplitMix64(seed)
    centers = _seed_centers(points, k, norm, rng)
    assignment = np.zeros(n, dtype=int)
    prev_objective = float("inf")
    iterations = 0
    for iterations in range(1, LLOYD_MAX_ITERATIONS + 1):
        dist = np.stack([plain_distances(points, centers[c], norm) for c in range(k)], axis=1)
        new_assignment = dist.argmin(axis=1)
        _repair_empty_clusters(points, new_assignment, centers, k, norm)
        centers = _centers_from_assignment(points, new_assignment, k, centers, norm)
        objective = float(
            sum(
                plain_distances(points[new_assignment == c], centers[c], norm).sum()
                for c in range(k)
                if np.any(new_assignment == c)
            )
        )
        if objective > prev_objective + 1e-9:
            raise CrossclustError(
                f"internal error: clustering objective rose from {prev_objective} to {objective}"
            )
        prev_objective = objective
        if np.array_equal(new_assignment, assignment) and iterations > 1:
            assignment = new_assignment
            break
        assignment = new_assignment
    return Partition.from_labels(assignment.tolist(), k=k), iterations


def outcome(solver, points, k, norm, seed):
    try:
        part, iterations = solver(points, k, norm, seed)
    except CrossclustError as exc:
        return "error", str(exc)
    return part.assignment, iterations


def assert_same(points, k, norm, seed):
    points = np.ascontiguousarray(points, dtype=float)
    assert outcome(_lloyd_once, points, k, norm, seed) == outcome(
        plain_lloyd_once, points, k, norm, seed
    )


@st.composite
def instances(draw):
    n = draw(st.integers(2, 14))
    m = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["grid", "binary", "duplicates", "constant", "real"]))
    if kind == "real":
        cell = st.floats(0, 1, allow_subnormal=False)
    else:
        cell = st.integers(0, 1 if kind == "binary" else 9).map(float)
    row = st.lists(cell, min_size=m, max_size=m)
    if kind == "duplicates":
        # exact ties, and more clusters than distinct rows at k > 3
        distinct = draw(st.lists(row, min_size=1, max_size=3))
        rows = draw(st.lists(st.sampled_from(distinct), min_size=n, max_size=n))
    else:
        rows = draw(st.lists(row, min_size=n, max_size=n))
    points = np.array(rows)
    if kind == "constant":
        points[:, 0] = draw(cell)
    scale = draw(st.sampled_from([1.0, 2.0**40, 2.0**-40]))
    offset = draw(st.sampled_from([0.0, 1e7]))
    k = draw(st.integers(1, min(6, n)))
    norm = draw(st.sampled_from([Norm.L1, Norm.L2]))
    seed = draw(st.integers(0, 2**64 - 1))
    return points * scale + offset, k, norm, seed


class TestSameIterates:
    @settings(max_examples=400, deadline=None)
    @given(instances())
    def test_small_instances(self, instance):
        assert_same(*instance)

    # Empty clusters are rare: these instances came from a search for
    # restarts where _repair_empty_clusters moves a point after the first
    # iteration, when the bounds already skip points.
    @pytest.mark.parametrize(
        "rows, k, norm, seed",
        [
            ([[0, 2], [1, 0], [3, 1], [1, 2], [0, 2], [2, 0], [2, 3], [0, 3], [0, 1], [1, 2],
              [2, 3]], 6, Norm.L1, 787),
            ([[3, 1], [1, 1], [3, 2], [0, 3], [1, 0], [0, 3], [1, 0], [0, 0], [0, 0], [3, 3],
              [2, 3], [1, 3], [0, 0]], 4, Norm.L2, 384),
        ],
    )
    def test_repaired_clusters(self, monkeypatch, rows, k, norm, seed):
        moved = []

        def spy(*args):
            out = _repair_empty_clusters(*args)
            moved.extend(out)
            return out

        monkeypatch.setattr(oneway, "_repair_empty_clusters", spy)
        for offset in (0.0, 1e7):
            assert_same(np.array(rows) + offset, k, norm, seed)
        assert moved

    @pytest.mark.parametrize("norm", [Norm.L1, Norm.L2])
    @pytest.mark.parametrize(
        "matrix",
        [random_real_matrix(2000, 50, 40_000), planted_real_matrix(2000, 50, 50_000)],
        ids=["uniform", "planted"],
    )
    def test_benchmark_matrices(self, matrix, norm):
        for seed in (1, 2):
            assert_same(matrix.values, 5, norm, seed)
            assert_same(matrix.values.T, 5, norm, seed)


class TestSkipTest:
    points = np.array([[0.0, 1.0], [3.0, 5.0], [1e-3, 2.0]])

    @pytest.mark.parametrize("norm", [Norm.L1, Norm.L2])
    def test_point_on_its_center_is_recomputed(self, norm):
        margin = _skip_margin(self.points, norm)
        assert margin > 0
        # distance 0 to its own center, another center within the margin:
        # a relative slack would be 0 here and skip it
        zero, one = np.zeros(1), np.ones(1)
        assert _stale(zero, one * margin, one * margin / 2, margin).tolist() == [0]
        assert _stale(zero, one * 3 * margin, zero, margin).size == 0

    @pytest.mark.parametrize("norm", [Norm.L1, Norm.L2])
    def test_equidistant_point_is_recomputed(self, norm):
        margin = _skip_margin(self.points, norm)
        d = np.array([2.5])
        assert _stale(d, d, d * 0, margin).tolist() == [0]  # as near another center
        assert _stale(d, d * 0, d, margin).tolist() == [0]  # halfway to the nearest
        assert _stale(d, d + 4 * margin, d * 0, margin).size == 0

    def test_nan_bound_is_recomputed(self):
        nan = np.array([np.nan])
        assert _stale(np.array([1.0]), nan, np.array([5.0]), 1e-12).tolist() == [0]

    @pytest.mark.parametrize("norm", [Norm.L1, Norm.L2])
    def test_margin_follows_the_extent(self, norm):
        base = _skip_margin(self.points, norm)
        assert _skip_margin(self.points * 2.0**40, norm) == pytest.approx(base * 2.0**40)
        assert _skip_margin(self.points * 2.0**-40, norm) == pytest.approx(base * 2.0**-40)
        # far from the origin a mean rounds off more, so L2 widens its box
        shifted = _skip_margin(self.points + 1e7, norm)
        assert shifted >= base * (1 - 1e-6)
