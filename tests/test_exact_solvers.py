"""The exact solvers' batched kernel and tie rule, against direct costs and
the exhaustive naive oracles."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from crossclust import (
    DataMatrix,
    Norm,
    Partition,
    ValidationError,
    enumerate_partitions,
    exact_biclustering,
    exact_kcluster,
    oneway_row_cost,
    random_binary_matrix,
    random_real_matrix,
)
from crossclust import cost
from crossclust.cost import (
    TIE_RTOL,
    BatchCosts,
    FirstMinimum,
    block_costs,
    columnwise_cost,
    pooled_cost,
)

from oracles import exact_biclustering_argmin_naive, exact_oneway_argmin_naive


class TestBatchCosts:
    @pytest.mark.parametrize("shift", [0.0, 1e7])
    def test_oneway_l2_within_error_bound(self, shift):
        x = DataMatrix(random_real_matrix(6, 4, seed=5).values + shift)
        parts = list(enumerate_partitions(6, 3))
        kernel = BatchCosts(x, Norm.L2, 3)
        direct = np.array([oneway_row_cost(x, p, Norm.L2) for p in parts])
        assert np.abs(kernel(parts) - direct).max() <= kernel.err
        # centering keeps the bound at rounding level whatever the offset
        assert kernel.err <= 1e-12 * columnwise_cost(x, Norm.L2)

    @pytest.mark.parametrize("shift", [0.0, 1e7])
    def test_pairs_l2_within_error_bound(self, shift):
        x = DataMatrix(random_real_matrix(5, 4, seed=6).values + shift)
        rows = list(enumerate_partitions(5, 3))
        cols = list(enumerate_partitions(4, 2))
        kernel = BatchCosts(x, Norm.L2, 3, cols)
        direct = [block_costs(x, r, c, Norm.L2).sum() for r in rows for c in cols]
        assert np.abs(kernel(rows) - direct).max() <= kernel.err
        assert kernel.err <= 1e-12 * pooled_cost(x, Norm.L2)

    def test_binary_l1_is_exact(self):
        x = random_binary_matrix(5, 4, 0.4, seed=7)
        rows = list(enumerate_partitions(5, 3))
        cols = list(enumerate_partitions(4, 3))
        kernel = BatchCosts(x, Norm.L1, 3, cols)
        assert kernel.err == 0.0
        direct = [block_costs(x, r, c, Norm.L1).sum() for r in rows for c in cols]
        assert kernel(rows).tolist() == direct
        oneway = BatchCosts(x, Norm.L1, 3)
        assert oneway(rows).tolist() == [oneway_row_cost(x, p, Norm.L1) for p in rows]

    def test_l1_on_real_data_has_no_batched_form(self):
        with pytest.raises(ValidationError, match="L2 norm or binary input"):
            BatchCosts(random_real_matrix(3, 3, seed=1), Norm.L1, 2)


class TestFirstMinimum:
    def test_rescored_costs_decide(self):
        exact = {0: 1.0, 1: 0.5, 2: 0.9}
        pick = FirstMinimum(tol=0.0, err=0.3, rescore=exact.__getitem__)
        assert not pick.feed(np.array([0.6, 0.7, 2.0]), lambda i: i)
        assert pick.winner == 1

    def test_first_within_tolerance_wins(self):
        pick = FirstMinimum(tol=1e-9)
        pick.feed(np.array([3.0, 1.0 + 5e-10]), lambda i: i)
        pick.feed(np.array([1.0, 2.0]), lambda i: 10 + i)
        assert pick.winner == 1

    def test_a_later_lower_cost_unseats_the_first(self):
        pick = FirstMinimum(tol=1e-9)
        pick.feed(np.array([1.0 + 5e-10]), lambda i: "first")
        pick.feed(np.array([1.0 - 1e-6]), lambda i: "second")
        assert pick.winner == "second"

    def test_zero_cost_settles_at_once(self):
        pick = FirstMinimum(tol=0.0)
        assert pick.feed(np.array([0.0, 0.0]), lambda i: i)
        assert pick.winner == 0


class TestBatching:
    @pytest.mark.parametrize("norm", [Norm.L1, Norm.L2])
    def test_one_partition_per_batch_gives_the_same_winner(self, monkeypatch, norm):
        # 0.1-scaled integers tie often, so ties straddle batch boundaries
        rows = (np.random.default_rng(3).integers(0, 3, size=(5, 4)) / 10).tolist()
        if norm is Norm.L1:
            rows = (np.asarray(rows) > 0.05).astype(float).tolist()
        x = DataMatrix(rows)
        whole = exact_biclustering(x, 3, 2, norm)
        oneway = exact_kcluster(x, 3, norm)
        monkeypatch.setattr(cost, "BATCH_ENTRIES", 1)
        single = exact_biclustering(x, 3, 2, norm)
        assert (single.rows, single.cols) == (whole.rows, whole.cols)
        assert exact_kcluster(x, 3, norm).partition == oneway.partition
        (labels_r, labels_c), _ = exact_biclustering_argmin_naive(rows, 3, 2, norm.value, TIE_RTOL)
        assert (whole.rows.assignment, whole.cols.assignment) == (labels_r, labels_c)
        labels, _ = exact_oneway_argmin_naive(rows, 3, norm.value, TIE_RTOL)
        assert oneway.partition.assignment == labels


class TestShiftedL2:
    @pytest.mark.parametrize("seed", range(40))
    def test_oracle_invariant_under_large_offset(self, seed):
        # L2 costs are translation invariant, so a shift must not change
        # the optimal biclustering
        x = random_real_matrix(5, 5, seed)
        shifted = DataMatrix(x.values + 1e7)
        opt = exact_biclustering(x, 2, 2, Norm.L2)
        opt_shifted = exact_biclustering(shifted, 2, 2, Norm.L2)
        assert (opt_shifted.rows, opt_shifted.cols) == (opt.rows, opt.cols)
        assert opt_shifted.cost == pytest.approx(opt.cost, rel=1e-6)

    @pytest.mark.parametrize("seed", range(10))
    def test_oneway_invariant_under_large_offset(self, seed):
        x = random_real_matrix(7, 3, seed)
        shifted = DataMatrix(x.values + 1e7)
        expected = exact_kcluster(x, 3, Norm.L2).partition
        assert exact_kcluster(shifted, 3, Norm.L2).partition == expected


class TestEdgeCases:
    def test_constant_matrix_stops_at_first_pair(self):
        # three 0.1s do not average to 0.1 exactly; every pair still ties at 0
        x = DataMatrix(np.full((7, 7), 0.1))
        opt = exact_biclustering(x, 3, 3, Norm.L2)
        assert opt.cost == 0.0
        assert opt.rows.assignment == (0,) * 7 and opt.cols.assignment == (0,) * 7

    def test_overflowing_l2_costs_are_a_validation_error(self):
        x = DataMatrix([[1e200, -1e200], [3e200, 1.0], [2.0, 5e199]])
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValidationError, match="no finite cost"):
                exact_kcluster(x, 2, Norm.L2)
            with pytest.raises(ValidationError, match="no finite cost"):
                exact_biclustering(x, 2, 2, Norm.L2)

    def test_results_are_validated_partitions(self):
        x = random_real_matrix(5, 4, seed=2)
        opt = exact_biclustering(x, 2, 2, Norm.L2)
        sol = exact_kcluster(x, 3, Norm.L2)
        for part in (opt.rows, opt.cols, sol.partition):
            assert Partition(part.assignment, part.k) == part


# -- properties against the naive oracles ------------------------------------


def _uniform(n, m):
    return st.integers(0, 2**32).map(lambda s: random_real_matrix(n, m, s).values.tolist())


def _grid(n, m, values):
    return st.lists(st.lists(values, min_size=m, max_size=m), min_size=n, max_size=n)


@st.composite
def matrices(draw, max_rows, max_cols):
    """Small matrices: uniform reals, 0/1, 0.1-scaled small integers (exact
    ties), constant, with a duplicated row or with a constant column."""
    n = draw(st.integers(2, max_rows))
    m = draw(st.integers(1, max_cols))
    kinds = ["uniform", "binary", "tenths", "constant", "dup_row", "const_col"]
    kind = draw(st.sampled_from(kinds))
    if kind == "uniform":
        return draw(_uniform(n, m))
    if kind == "binary":
        return draw(_grid(n, m, st.sampled_from([0.0, 1.0])))
    if kind == "constant":
        value = draw(st.sampled_from([0.0, 0.1, 1.0, -3.7]))
        return [[value] * m for _ in range(n)]
    rows = draw(_grid(n, m, st.integers(0, 4).map(lambda v: v / 10)))
    if kind == "dup_row":
        rows[draw(st.integers(1, n - 1))] = list(rows[0])
    elif kind == "const_col":
        j = draw(st.integers(0, m - 1))
        for row in rows:
            row[j] = rows[0][j]
    return rows


NORMS = st.sampled_from([Norm.L1, Norm.L2])


class TestAgainstNaiveOracles:
    @settings(max_examples=150, deadline=None)
    @given(matrices(6, 3), st.integers(1, 3), NORMS)
    def test_exact_kcluster(self, rows, k, norm):
        k = min(k, len(rows))
        sol = exact_kcluster(DataMatrix(rows), k, norm)
        labels, cost = exact_oneway_argmin_naive(rows, k, norm.value, TIE_RTOL)
        assert sol.partition.assignment == labels
        assert sol.cost == pytest.approx(cost, rel=1e-9, abs=1e-9)

    @settings(max_examples=100, deadline=None)
    @given(matrices(4, 4), st.integers(1, 3), st.integers(1, 3), NORMS)
    def test_exact_biclustering(self, rows, k_r, k_c, norm):
        k_r, k_c = min(k_r, len(rows)), min(k_c, len(rows[0]))
        opt = exact_biclustering(DataMatrix(rows), k_r, k_c, norm)
        (labels_r, labels_c), cost = exact_biclustering_argmin_naive(
            rows, k_r, k_c, norm.value, TIE_RTOL
        )
        assert (opt.rows.assignment, opt.cols.assignment) == (labels_r, labels_c)
        assert opt.cost == pytest.approx(cost, rel=1e-9, abs=1e-9)
