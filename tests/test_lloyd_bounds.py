"""Lloyd with per-center bounds against plain Lloyd.

``plain_lloyd_once`` is a frozen copy of the restart loop from before the
bounds: every iteration computes every point's distance to every center
and gathers each cluster through a boolean mask.  The bounded loop must
give the same assignment and iteration count, or raise the same error, on
every input.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from crossclust import Norm, planted_real_matrix, random_real_matrix
from crossclust.cost import _center
from crossclust.errors import CrossclustError
from crossclust.model import Partition
from crossclust.rng import SplitMix64
from crossclust import oneway
from crossclust.oneway import (
    LLOYD_MAX_ITERATIONS,
    _lloyd_once,
    _repair_empty_clusters,
    _seed_centers,
    _skip_margin,
    _unproven,
)


def plain_distances(points, center, norm):
    if norm is Norm.L1:
        return np.abs(points - center).sum(axis=1)
    return ((points - center) ** 2).sum(axis=1)


def plain_centers(points, assignment, k, old, norm):
    centers = old.copy()
    for c in range(k):
        members = points[assignment == c]
        if members.shape[0]:
            centers[c] = _center(members, norm)
    return centers


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
        centers = plain_centers(points, new_assignment, k, centers, norm)
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


@st.composite
def mid_instances(draw):
    """Instances large enough for the bounds to skip most pairs: rows
    planted around 1-6 integer levels, with some rows copied over others,
    near the origin or 1e7 away from it.  The entries come from a seeded
    numpy generator, as hypothesis cannot draw this many floats."""
    n = draw(st.integers(30, 150))
    m = draw(st.integers(2, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    levels = rng.integers(0, 10, size=(draw(st.integers(1, 6)), m))
    noise = draw(st.sampled_from([0.0, 0.5, 4.0]))
    points = levels[rng.integers(0, len(levels), size=n)] + noise * rng.random((n, m))
    copies = rng.integers(0, n, size=draw(st.integers(0, n // 2)))
    points[copies] = points[rng.integers(0, n, size=copies.size)]
    offset = draw(st.sampled_from([0.0, 1e7]))
    k = draw(st.integers(2, 6))
    norm = draw(st.sampled_from([Norm.L1, Norm.L2]))
    seed = draw(st.integers(0, 2**64 - 1))
    return points + offset, k, norm, seed


BENCH_MATRICES = pytest.mark.parametrize(
    "matrix",
    [random_real_matrix(2000, 50, 40_000), planted_real_matrix(2000, 50, 50_000)],
    ids=["uniform", "planted"],
)


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

    @settings(max_examples=60, deadline=None)
    @given(mid_instances())
    def test_mid_size_instances(self, instance):
        assert_same(*instance)

    @pytest.mark.parametrize("norm", [Norm.L1, Norm.L2])
    @BENCH_MATRICES
    def test_benchmark_matrices(self, matrix, norm):
        for seed in (1, 2, 3, 4):
            assert_same(matrix.values, 5, norm, seed)
            assert_same(matrix.values.T, 5, norm, seed)


class TestPruning:
    @pytest.mark.parametrize("norm", [Norm.L1, Norm.L2])
    @BENCH_MATRICES
    def test_most_distances_are_skipped(self, monkeypatch, matrix, norm):
        # count the rows _distances gets inside the assignment step (the
        # k * k center rows of the gaps included)
        counted = {"inside": False, "rows": 0}
        distances, reassign = oneway._distances, oneway._reassign

        def counting_distances(points, center, norm):
            if counted["inside"]:
                counted["rows"] += points.shape[0]
            return distances(points, center, norm)

        def counting_reassign(*args):
            counted["inside"] = True
            try:
                return reassign(*args)
            finally:
                counted["inside"] = False

        monkeypatch.setattr(oneway, "_distances", counting_distances)
        monkeypatch.setattr(oneway, "_reassign", counting_reassign)
        n, k = matrix.n_rows, 5
        for seed in (1, 2):
            counted["rows"] = 0
            _, iterations = _lloyd_once(matrix.values, k, norm, seed)
            assert iterations > 2
            assert counted["rows"] <= 0.25 * n * k * iterations


class TestSkipTest:
    points = np.array([[0.0, 1.0], [3.0, 5.0], [1e-3, 2.0]])

    @staticmethod
    def unproven(upper, lower, half_gap, margin):
        """The skip test on one point and one other center."""
        pair = np.array([[lower]]), np.array([[half_gap]])
        return bool(_unproven(np.array([upper]), *pair, margin)[0, 0])

    @pytest.mark.parametrize("norm", [Norm.L1, Norm.L2])
    def test_point_on_its_center_is_recomputed(self, norm):
        margin = _skip_margin(self.points, norm)
        assert margin > 0
        # distance 0 to its own center, another center within the margin:
        # a relative slack would be 0 here and skip it
        assert self.unproven(0.0, margin, margin / 2, margin)
        assert not self.unproven(0.0, 3 * margin, 0.0, margin)

    @pytest.mark.parametrize("norm", [Norm.L1, Norm.L2])
    def test_equidistant_point_is_recomputed(self, norm):
        margin = _skip_margin(self.points, norm)
        d = 2.5
        assert self.unproven(d, d, 0.0, margin)  # as near the other center
        assert self.unproven(d, 0.0, d, margin)  # halfway to the other center
        assert not self.unproven(d, d + 4 * margin, 0.0, margin)

    def test_nan_bound_is_recomputed(self):
        assert self.unproven(1.0, np.nan, 5.0, 1e-12)

    def test_each_pair_is_tested_on_its_own(self):
        # one point, four centers: the own one (half gap inf), one ruled
        # out by its lower bound, one by half the gap, one by neither
        upper = np.array([1.0])
        lower = np.array([[0.0, 2.0, 0.0, 1.0]])
        half_gap = np.array([[np.inf, 0.0, 2.0, 0.5]])
        assert _unproven(upper, lower, half_gap, 1e-9).tolist() == [[False, False, False, True]]
        # an own distance not computed yet forces every pair, the own one too
        assert _unproven(upper * np.inf, lower, half_gap, 1e-9).all()

    @pytest.mark.parametrize("norm", [Norm.L1, Norm.L2])
    def test_margin_follows_the_extent(self, norm):
        base = _skip_margin(self.points, norm)
        assert _skip_margin(self.points * 2.0**40, norm) == pytest.approx(base * 2.0**40)
        assert _skip_margin(self.points * 2.0**-40, norm) == pytest.approx(base * 2.0**-40)
        # far from the origin a mean rounds off more, so L2 widens its box
        shifted = _skip_margin(self.points + 1e7, norm)
        assert shifted >= base * (1 - 1e-6)
