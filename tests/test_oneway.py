"""Tests for the exact and heuristic one-way solvers."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from crossclust import (
    CapExceededError,
    DataMatrix,
    Norm,
    SolverMode,
    ValidationError,
    enumerate_partitions,
    exact_kcluster,
    kcluster_cols,
    lloyd_kcluster,
    oneway_row_cost,
    random_binary_matrix,
    random_real_matrix,
    worst_case_matrix,
)
from crossclust.oneway import _repair_empty_clusters

from oracles import exact_oneway_naive


class TestSolverMode:
    def test_validation(self):
        with pytest.raises(ValidationError):
            SolverMode("weird")
        with pytest.raises(ValidationError):
            SolverMode.heuristic(restarts=0)
        assert SolverMode.exact().is_exact
        assert not SolverMode.heuristic(seed=3).is_exact


class TestExactKcluster:
    def test_k_equals_n_gives_singletons(self):
        x = random_real_matrix(5, 3, seed=11)
        sol = exact_kcluster(x, 5, Norm.L2)
        assert sol.cost == 0.0
        assert sol.partition.n_clusters == 5

    def test_worst_case_q2(self):
        sol = exact_kcluster(worst_case_matrix(2), 2, Norm.L1)
        assert sol.partition.assignment == (0, 0, 1, 1)
        assert sol.cost == 6.0

    def test_duplicate_row_groups_recovered(self):
        x = DataMatrix([[1, 1, 0], [0, 0, 1], [1, 1, 0], [0, 0, 1]])
        sol = exact_kcluster(x, 2, Norm.L1)
        assert sol.cost == 0.0
        assert sol.partition.assignment == (0, 1, 0, 1)

    @pytest.mark.parametrize("norm", [Norm.L1, Norm.L2])
    def test_beats_every_enumerated_partition(self, norm):
        x = random_real_matrix(6, 3, seed=23)
        for k in (2, 3):
            sol = exact_kcluster(x, k, norm)
            for part in enumerate_partitions(6, k):
                assert sol.cost <= oneway_row_cost(x, part, norm) + 1e-12

    def test_beats_every_partition_at_seven_rows(self):
        x = random_binary_matrix(7, 4, 0.5, seed=31)
        sol = exact_kcluster(x, 7, Norm.L1)
        assert all(
            sol.cost <= oneway_row_cost(x, part, Norm.L1) + 1e-12
            for part in enumerate_partitions(7, 7)
        )

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_matches_naive_oracle(self, seed):
        x = random_binary_matrix(5, 4, 0.5, seed)
        rows = x.values.tolist()
        for norm in (Norm.L1, Norm.L2):
            for k in (1, 2, 3):
                sol = exact_kcluster(x, k, norm)
                assert sol.cost == pytest.approx(
                    exact_oneway_naive(rows, k, norm.value), abs=1e-9
                )

    def test_cost_monotone_in_k(self):
        x = random_real_matrix(6, 4, seed=9)
        costs = [exact_kcluster(x, k, Norm.L2).cost for k in range(1, 7)]
        for lo, hi in zip(costs[1:], costs[:-1]):
            assert lo <= hi + 1e-12

    def test_k1_skips_cap(self):
        # a single cluster needs no enumeration, whatever the row count
        x = random_binary_matrix(20, 3, 0.5, seed=4)
        sol = exact_kcluster(x, 1, Norm.L1)
        assert sol.partition.assignment == (0,) * 20
        assert sol.cost == oneway_row_cost(x, sol.partition, Norm.L1)

    def test_cap_exceeded(self):
        x = random_binary_matrix(15, 2, 0.5, seed=4)
        with pytest.raises(CapExceededError):
            exact_kcluster(x, 2, Norm.L1)

    def test_invalid_k(self):
        x = random_binary_matrix(3, 3, 0.5, seed=4)
        with pytest.raises(ValidationError):
            exact_kcluster(x, 0, Norm.L1)
        with pytest.raises(ValidationError):
            exact_kcluster(x, 4, Norm.L1)


class TestLloyd:
    def test_k1_equals_exact(self):
        x = random_real_matrix(7, 4, seed=2)
        heur = lloyd_kcluster(x, 1, Norm.L2, restarts=2, seed=5)
        assert heur.cost == pytest.approx(exact_kcluster(x, 1, Norm.L2).cost)

    @pytest.mark.parametrize("norm", [Norm.L1, Norm.L2])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_never_beats_exact(self, norm, seed):
        x = random_binary_matrix(6, 5, 0.5, seed) if norm is Norm.L1 else random_real_matrix(6, 5, seed)
        for k in (2, 3):
            heur = lloyd_kcluster(x, k, norm, restarts=3, seed=seed)
            exact = exact_kcluster(x, k, norm)
            assert heur.cost >= exact.cost - 1e-9

    def test_separated_duplicate_groups_reach_zero(self):
        # two groups of identical rows, far apart: any seeding that
        # separates them reaches a zero-cost fixed point
        for seed in range(6):
            rows = [[0.0, 0.0, 0.0]] * 3 + [[9.0, 9.0, 9.0]] * 3
            x = DataMatrix(rows)
            sol = lloyd_kcluster(x, 2, Norm.L2, restarts=8, seed=seed)
            assert sol.cost == pytest.approx(0.0, abs=1e-12)

    def test_fixed_seed_reproducible(self):
        x = random_real_matrix(8, 4, seed=77)
        a = lloyd_kcluster(x, 3, Norm.L2, restarts=4, seed=123)
        b = lloyd_kcluster(x, 3, Norm.L2, restarts=4, seed=123)
        assert a.partition == b.partition
        assert a.cost == b.cost
        assert a.iterations == b.iterations

    def test_reports_consistent_cost(self):
        x = random_binary_matrix(7, 5, 0.4, seed=3)
        sol = lloyd_kcluster(x, 3, Norm.L1, restarts=2, seed=9)
        assert sol.cost == pytest.approx(
            oneway_row_cost(x, sol.partition, Norm.L1), abs=1e-9
        )

    def test_all_identical_rows(self):
        x = DataMatrix([[1.0, 2.0]] * 5)
        sol = lloyd_kcluster(x, 3, Norm.L2, restarts=2, seed=1)
        assert sol.cost == 0.0

    def test_invalid_restarts(self):
        x = random_binary_matrix(3, 3, 0.5, seed=1)
        with pytest.raises(ValidationError):
            lloyd_kcluster(x, 2, Norm.L1, restarts=0, seed=1)


class TestKclusterCols:
    def test_equals_row_solver_on_transpose(self):
        x = random_binary_matrix(4, 5, 0.5, seed=6)
        mode = SolverMode.exact()
        cols = kcluster_cols(x, 2, Norm.L1, mode)
        rows_t = exact_kcluster(x.transpose(), 2, Norm.L1)
        assert cols.partition == rows_t.partition
        assert cols.cost == rows_t.cost

    def test_k_equals_m_zero_cost(self):
        x = random_real_matrix(3, 4, seed=8)
        sol = kcluster_cols(x, 4, Norm.L2, SolverMode.exact())
        assert sol.cost == 0.0

    def test_worst_case_q1_single_cluster(self):
        # one column cluster: cost is the sum of per-row spreads, 4 rows
        # each contributing 1 on the q=1 family
        sol = kcluster_cols(worst_case_matrix(1), 1, Norm.L1, SolverMode.exact())
        assert sol.cost == 4.0

    def test_heuristic_dispatch(self):
        x = random_real_matrix(4, 6, seed=5)
        sol = kcluster_cols(x, 2, Norm.L2, SolverMode.heuristic(restarts=2, seed=3))
        assert sol.mode.kind == "heuristic"
        assert sol.partition.n_items == 6


class TestRepairEmptyClusters:
    """Lloyd's repair step: each empty cluster takes the point farthest from
    its own center, from a cluster of at least 2 members, the first such
    point on ties, and nothing when every such distance is 0."""

    @staticmethod
    def reference(points, assignment, centers, k, norm):
        """The rule written per point in plain Python."""
        assignment = list(assignment)
        for c in range(k):
            if c in assignment:
                continue
            far, best = None, 0.0
            for i, point in enumerate(points):
                own = assignment[i]
                if assignment.count(own) < 2:
                    continue
                diffs = [p - q for p, q in zip(point, centers[own])]
                d = sum(abs(v) if norm is Norm.L1 else v * v for v in diffs)
                if d > best:  # strict: the first index keeps a tie
                    far, best = i, d
            if far is not None:
                assignment[far] = c
        return assignment

    @staticmethod
    def repaired(points, assignment, centers, k, norm):
        labels = np.array(assignment)
        _repair_empty_clusters(np.array(points, dtype=float), labels,
                               np.array(centers, dtype=float), k, norm)
        return labels.tolist()

    @pytest.mark.parametrize("norm", [Norm.L1, Norm.L2])
    def test_takes_the_first_farthest_point(self, norm):
        points, centers = [[0.0], [3.0], [1.0], [3.0]], [[0.0], [9.0]]
        assert self.repaired(points, [0, 0, 0, 0], centers, 2, norm) == [0, 1, 0, 0]

    def test_never_empties_a_singleton(self):
        points, centers = [[0.0], [10.0], [1.0], [2.0]], [[0.0], [0.0], [99.0]]
        assert self.repaired(points, [0, 1, 0, 0], centers, 3, Norm.L2) == [0, 1, 0, 2]

    def test_steals_nothing_at_distance_zero(self):
        points, centers = [[2.0, 1.0]] * 3, [[2.0, 1.0], [0.0, 0.0]]
        assert self.repaired(points, [0, 0, 0], centers, 2, Norm.L1) == [0, 0, 0]

    @settings(max_examples=200, deadline=None)
    @given(st.data(), st.integers(2, 8), st.integers(1, 3), st.integers(2, 4),
           st.sampled_from([Norm.L1, Norm.L2]))
    def test_matches_the_per_point_rule(self, data, n, d, k, norm):
        # small integers keep every distance exact, so ties are real ties
        coords = st.integers(0, 3).map(float)
        points = data.draw(st.lists(st.lists(coords, min_size=d, max_size=d), min_size=n, max_size=n))
        centers = data.draw(st.lists(st.lists(coords, min_size=d, max_size=d), min_size=k, max_size=k))
        assignment = data.draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))
        expected = self.reference(points, assignment, centers, k, norm)
        assert self.repaired(points, assignment, centers, k, norm) == expected
