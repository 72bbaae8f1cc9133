"""Lloyd with per-center bounds against plain Lloyd.

``plain_lloyd_once`` is a frozen copy of the restart loop from before the
bounds: every iteration computes every point's distance to every center
and gathers each cluster through a boolean mask.  The bounded loop must
give the same assignment and iteration count, or raise the same error, on
every input, while it recomputes only the clusters whose members changed
and finds each L1 center by selection.
"""

import sys

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from crossclust import Norm, planted_real_matrix, random_real_matrix
from crossclust.cost import _center, _lower_median
from crossclust.errors import CrossclustError
from crossclust.model import Partition
from crossclust.rng import SplitMix64
from crossclust import oneway
from crossclust.oneway import (
    LLOYD_MAX_ITERATIONS,
    _distances,
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


def recomputed_clusters(monkeypatch, points, k, norm, seed, repair=_repair_empty_clusters):
    """Run ``_lloyd_once`` with spies, and ``repair`` as its repair step.
    Returns its outcome, the assignment each iteration's center step used
    (after the repair), and per iteration the clusters whose center was
    computed, found by matching the rows ``_center`` got against
    each cluster's members."""
    assignments, centered = [], []

    def repair_spy(pts, assignment, *rest):
        moved = repair(pts, assignment, *rest)
        assignments.append(assignment.copy())
        centered.append([])
        return moved

    def center_spy(rows, norm):
        labels = assignments[-1]
        match = [c for c in range(k) if np.array_equal(rows, points[labels == c])]
        assert len(match) == 1
        centered[-1].extend(match)
        return _center(rows, norm)

    monkeypatch.setattr(oneway, "_repair_empty_clusters", repair_spy)
    monkeypatch.setattr(oneway, "_center", center_spy)
    result = outcome(_lloyd_once, points, k, norm, seed)
    return result, assignments, centered


def changed_clusters(before, after):
    """The nonempty clusters of ``after`` that gained or lost a point."""
    moved = before != after
    touched = set(before[moved].tolist()) | set(after[moved].tolist())
    return sorted(c for c in touched if (after == c).any())


def far_cluster_points():
    """Three overlapping groups of 15 rows, and one 1000 away."""
    rows = [[base + ((7 * i + 3 * j + g) % 13) / 8 for j in range(3)]
            for g, base in enumerate((0.0, 1.0, 2.0, 1000.0)) for i in range(15)]
    return np.array(rows)


def moving_repair(source, target, before, repair=_repair_empty_clusters):
    """``repair`` that at its second call also moves the lowest-index point
    of cluster ``source`` into cluster ``target``, and appends the
    assignment it was given then to ``before``."""
    calls = []

    def moving(points, assignment, *rest):
        moved = repair(points, assignment, *rest)
        calls.append(None)
        if len(calls) == 2:
            before.append(assignment.copy())
            i = int(np.flatnonzero(assignment == source)[0])
            assignment[i] = target
            moved.append(i)
        return moved

    return moving


class TestKeptClusters:
    @pytest.mark.parametrize("norm", [Norm.L1, Norm.L2])
    @BENCH_MATRICES
    def test_untouched_clusters_are_not_recomputed(self, monkeypatch, matrix, norm):
        points, k = matrix.values, 5
        for seed in (1, 2):
            result, assignments, centered = recomputed_clusters(
                monkeypatch, points, k, norm, seed
            )
            assert result == outcome(plain_lloyd_once, points, k, norm, seed)
            iterations = result[1]
            assert len(centered) == iterations > 2
            assert centered[0] == [c for c in range(k) if (assignments[0] == c).any()]
            for t in range(1, iterations):
                assert centered[t] == changed_clusters(assignments[t - 1], assignments[t])
            assert sum(map(len, centered)) < k * iterations
            assert centered[-1] == []  # the last step moves nothing

    @pytest.mark.parametrize("norm, seed", [(Norm.L1, 5), (Norm.L2, 10)])
    def test_one_pair_of_clusters_exchanges_points(self, monkeypatch, norm, seed):
        # after the first step only two clusters trade rows, and the far
        # group's cluster settles
        points = far_cluster_points()
        result, assignments, centered = recomputed_clusters(monkeypatch, points, 4, norm, seed)
        assert result == outcome(plain_lloyd_once, points, 4, norm, seed)
        assert centered[0] == [0, 1, 2, 3]
        pairs = centered[1:-1]
        assert pairs and all(len(pair) == 2 for pair in pairs)
        for t, pair in enumerate(pairs, start=1):
            assert pair == changed_clusters(assignments[t - 1], assignments[t])
        far = assignments[0][-1]
        assert all(far not in pair for pair in pairs)
        assert centered[-1] == []

    @pytest.mark.parametrize("norm, seed, source, target", [(Norm.L1, 5, 1, 3),
                                                            (Norm.L2, 10, 0, 3)])
    def test_a_repair_move_counts_as_a_change(self, monkeypatch, norm, seed, source, target):
        # at the second step the repair also moves a point between two
        # clusters the assignment step left alone: both are recomputed, and
        # the outcome, here the objective's rise with its figures, is plain
        # Lloyd's under the same repair
        points, before = far_cluster_points(), []
        result, assignments, centered = recomputed_clusters(
            monkeypatch, points, 4, norm, seed, moving_repair(source, target, before)
        )
        assert not {source, target} & set(changed_clusters(assignments[0], before[0]))
        assert {source, target} <= set(centered[1])
        assert centered[1] == changed_clusters(assignments[0], assignments[1])
        monkeypatch.setattr(
            sys.modules[__name__], "_repair_empty_clusters", moving_repair(source, target, [])
        )
        assert result == outcome(plain_lloyd_once, points, 4, norm, seed)


@st.composite
def median_columns(draw):
    """Blocks of 1-40 or 250-700 rows whose columns tie: small integers,
    zeros of both signs next to +-1 (so a -0.0 and a 0.0 can meet at the
    median), or floats in [-1, 1], as drawn or 1e7 away.  The entries come
    from a seeded numpy generator."""
    n = draw(st.one_of(st.integers(1, 40), st.integers(250, 700)))
    m = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["integers", "zeros", "floats"]))
    if kind == "integers":
        rows = rng.integers(-3, 4, size=(n, m)).astype(float)
    elif kind == "zeros":
        rows = rng.choice([-0.0, 0.0, 1.0, -1.0], size=(n, m), p=[0.35, 0.35, 0.15, 0.15])
    else:
        rows = rng.uniform(-1, 1, size=(n, m))
    return rows + draw(st.sampled_from([0.0, 1e7]))


class TestCenters:
    @settings(max_examples=300, deadline=None)
    @given(median_columns())
    @example(np.array([[-0.0], [0.0], [0.0], [-0.0], [1.0]]))
    @example(np.array([[0.0, -0.0], [-0.0, 0.0]]))
    @example(np.array([[-0.0]]))
    def test_selection_gives_the_sorted_lower_median(self, rows):
        sorted_median = np.sort(rows, axis=0)[_lower_median(rows.shape[0])]
        selected = _center(rows, Norm.L1)
        assert selected.shape == sorted_median.shape
        assert (selected == sorted_median).all()
        # the sign of a zero may differ (numpy's sort and selection can pick
        # different zeros of a tie above 256 entries), and no distance sees it
        assert np.array_equal(
            _distances(rows, selected, Norm.L1), _distances(rows, sorted_median, Norm.L1)
        )

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(1, 7),
        st.sampled_from([1, 2, 7, 9, 50, 129, 2000]),
        st.integers(0, 2**32 - 1),
        st.sampled_from([0.0, 1e7]),
        st.sampled_from([Norm.L1, Norm.L2]),
    )
    def test_broadcast_gaps_equal_the_per_center_distances(self, k, m, seed, offset, norm):
        centers = np.random.default_rng(seed).random((k, m)) + offset
        gaps = _distances(centers[:, None], centers, norm)
        per_center = np.stack([_distances(centers, centers[c], norm) for c in range(k)])
        assert np.array_equal(gaps, per_center)


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
