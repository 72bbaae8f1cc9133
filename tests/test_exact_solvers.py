"""The exact solvers' batched kernel and tie rule, against direct costs and
the exhaustive naive oracles."""

import tracemalloc
from unittest.mock import patch

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
    worst_case_matrix,
)
from crossclust import cost
from crossclust.cost import (
    TIE_RTOL,
    BatchCosts,
    FirstMinimum,
    _exact_search,
    block_costs,
    columnwise_cost,
    pooled_cost,
)
from crossclust.model import keyed_blocks, partition_table

from oracles import exact_biclustering_argmin_naive, exact_oneway_argmin_naive, group_keys


def _keys(parts, k):
    """Partitions into at most ``k`` clusters as the (k, P) group keys that
    ``BatchCosts`` scores, as the partition walk writes them."""
    return np.array([group_keys(p.assignment, k) for p in parts]).T


def _summed(norm, n, m, seed):
    """A matrix whose table is built from sums: real under L2, 0/1 under L1."""
    if norm is Norm.L1:
        return random_binary_matrix(n, m, 0.4, seed=seed)
    return random_real_matrix(n, m, seed=seed)


# (shape, seed, shift), named by the shift.  In the 2x2 cases the rounded
# mean of the direct path, which does not center, drifts by more than a
# bound relative to the cost alone.
ONEWAY_L2 = [
    pytest.param((6, 4), 5, 0.0, id="0.0"),
    pytest.param((6, 4), 5, 1e7, id="10000000.0"),
    pytest.param((2, 2), 2, 1e7, id="2x2-seed2-1e7"),
    pytest.param((2, 2), 8, 1e8, id="2x2-seed8-1e8"),
]
PAIRS_L2 = [
    pytest.param((5, 4), 6, 0.0, id="0.0"),
    pytest.param((5, 4), 6, 1e7, id="10000000.0"),
    pytest.param((2, 2), 2, 1e8, id="2x2-seed2-1e8"),
]


class TestBatchCosts:
    @pytest.mark.parametrize("shape, seed, shift", ONEWAY_L2)
    def test_oneway_l2_within_error_bound(self, shape, seed, shift):
        x = DataMatrix(random_real_matrix(*shape, seed=seed).values + shift)
        k = min(3, shape[0])
        parts = list(enumerate_partitions(shape[0], k))
        kernel = BatchCosts(x, Norm.L2, k)
        direct = np.array([oneway_row_cost(x, p, Norm.L2) for p in parts])
        assert np.abs(kernel(_keys(parts, k)) - direct).max() <= kernel.err
        # centering keeps the bound at rounding level at these offsets
        assert kernel.err <= 1e-12 * columnwise_cost(x, Norm.L2)

    @pytest.mark.parametrize("shape, seed, shift", PAIRS_L2)
    def test_pairs_l2_within_error_bound(self, shape, seed, shift):
        x = DataMatrix(random_real_matrix(*shape, seed=seed).values + shift)
        rows = list(enumerate_partitions(shape[0], min(3, shape[0])))
        cols = list(enumerate_partitions(shape[1], 2))
        kernel = BatchCosts(x, Norm.L2, min(3, shape[0]), 2)
        direct = [block_costs(x, r, c, Norm.L2).sum() for r in rows for c in cols]
        assert np.abs(kernel(_keys(rows, min(3, shape[0]))) - direct).max() <= kernel.err
        assert kernel.err <= 1e-12 * pooled_cost(x, Norm.L2)

    def test_binary_l1_is_exact(self):
        x = random_binary_matrix(5, 4, 0.4, seed=7)
        rows = list(enumerate_partitions(5, 3))
        cols = list(enumerate_partitions(4, 3))
        kernel = BatchCosts(x, Norm.L1, 3, 3)
        assert kernel.err == 0.0
        direct = [block_costs(x, r, c, Norm.L1).sum() for r in rows for c in cols]
        assert kernel(_keys(rows, 3)).tolist() == direct
        oneway = BatchCosts(x, Norm.L1, 3)
        assert oneway(_keys(rows, 3)).tolist() == [oneway_row_cost(x, p, Norm.L1) for p in rows]

    @pytest.mark.parametrize("norm", [Norm.L1, Norm.L2])
    def test_fewer_clusters_than_k(self, norm):
        # partitions into at most 2 clusters scored with room for 4: the
        # empty groups must add nothing
        x = _summed(norm, 5, 4, 8)
        rows = list(enumerate_partitions(5, 2))
        cols = list(enumerate_partitions(4, 2))
        pairs = BatchCosts(x, norm, 4, 2)
        direct = [block_costs(x, r, c, norm).sum() for r in rows for c in cols]
        assert np.abs(pairs(_keys(rows, 4)) - direct).max() <= pairs.err
        oneway = BatchCosts(x, norm, 4)
        direct = [oneway_row_cost(x, p, norm) for p in rows]
        assert np.abs(oneway(_keys(rows, 4)) - direct).max() <= oneway.err

    @pytest.mark.parametrize("norm", [Norm.L1, Norm.L2])
    def test_one_cluster_on_an_axis_longer_than_any_mask(self, norm):
        x = _summed(norm, 70, 3, 9)
        whole = Partition((0,) * 70, 1)
        cols = list(enumerate_partitions(3, 3))
        pairs = BatchCosts(x, norm, 1, 3)
        direct = [block_costs(x, whole, c, norm).sum() for c in cols]
        assert np.abs(pairs(_keys([whole], 1)) - direct).max() <= pairs.err
        oneway = BatchCosts(x, norm, 1)
        assert abs(oneway(_keys([whole], 1))[0] - columnwise_cost(x, norm)) <= oneway.err

    @pytest.mark.parametrize("k_c", [None, 1, 2, 3])
    @pytest.mark.parametrize("entries", [1, 97, cost.BATCH_ENTRIES])
    def test_batch_size_counts_the_crossed_column_partitions(self, k_c, entries, monkeypatch):
        # k_c keys per column partition, counted without gathering them
        monkeypatch.setattr(cost, "BATCH_ENTRIES", entries)
        kernel = BatchCosts(random_real_matrix(5, 6, seed=3), Norm.L2, 3, k_c)
        p = kernel._cols.shape[1]
        for cols in (slice(None), slice(2, None), slice(None, None, 3), slice(-2, None),
                     slice(p, None), np.arange(p), np.arange(p)[::2], np.array([p - 1]),
                     np.array([], dtype=np.intp), [0, p - 1]):
            expected = max(1, cost.BATCH_ENTRIES // max(kernel._width, kernel._cols[:, cols].size))
            assert kernel.batch_size(cols) == expected, cols

    @pytest.mark.parametrize("k_c", [1, 3])
    def test_indexed_columns_score_as_the_full_cross(self, k_c):
        x = random_real_matrix(4, 5, seed=4)
        rows = _keys(enumerate_partitions(4, 2), 2)
        kernel = BatchCosts(x, Norm.L2, 2, k_c)
        full = kernel(rows).reshape(rows.shape[1], -1)
        p = full.shape[1]
        for cols in (np.arange(p)[::-2], [0], [p - 1, 0]):
            assert np.array_equal(kernel(rows, cols), full[:, cols].ravel())
        assert np.array_equal(kernel(rows, slice(1, None)), full[:, 1:].ravel())

    def test_constant_l2_matrix_scores_within_error_of_zero(self):
        # three 0.1s do not average to 0.1, so the centered data is not 0
        x = DataMatrix(np.full((3, 4), 0.1))
        rows = list(enumerate_partitions(3, 2))
        for kernel in (BatchCosts(x, Norm.L2, 2, 2),
                       BatchCosts(x, Norm.L2, 2)):
            assert 0.0 < kernel.err <= 1e-12
            assert np.abs(kernel(_keys(rows, 2))).max() <= kernel.err


class TestGroupKeys:
    """The walk's keys, the only ones the exact searches score, against
    ``oracles.group_keys`` of their labels."""

    @staticmethod
    def _check(labels, keys, k):
        assert keys.dtype == np.int16 and keys.shape == (k, len(labels))
        assert keys.T.tolist() == [list(group_keys(row, k)) for row in labels.tolist()]

    @pytest.mark.parametrize("t", range(1, 11))
    def test_every_label_table_up_to_ten_items(self, t):
        for k in range(1, min(t, 4) + 1):
            self._check(*partition_table(t, k), k)

    def test_one_cluster_on_twenty_items(self):
        self._check(*partition_table(20, 1), 1)

    def test_a_block_at_fourteen_items(self):
        self._check(*next(keyed_blocks(14, 4, 1 << 12)), 4)

    @pytest.mark.parametrize("k_c", [1, 2, 3])
    def test_batch_costs_read_the_cached_keys(self, k_c):
        x = random_real_matrix(5, 6, seed=2)
        for norm in Norm:
            assert BatchCosts(x, norm, 2, k_c)._cols is partition_table(6, k_c)[1]

    def test_the_twelve_item_build_stays_near_its_tables(self):
        # the (12, 4) labels and keys take 8.4 MB and 5.6 MB; the build adds
        # one 4,096-row block of the walk, not a second copy of either
        partition_table.cache_clear()
        tracemalloc.start()
        try:
            labels, keys = partition_table(12, 4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            partition_table.cache_clear()
        assert labels.nbytes + keys.nbytes == 700_075 * (12 + 2 * 4)
        assert peak < labels.nbytes + keys.nbytes + 1_000_000


class TestFirstMinimum:
    def test_rescored_costs_decide(self):
        exact = {0: 1.0, 1: 0.5, 2: 0.9}
        pick = FirstMinimum(tol=0.0, err=0.3, rescore=exact.__getitem__)
        assert not pick.feed(np.array([0.6, 0.7, 2.0]), lambda i: i)
        assert pick.winner == (1, 0.5)

    def test_first_within_tolerance_wins(self):
        pick = FirstMinimum(tol=1e-9)
        pick.feed(np.array([3.0, 1.0 + 5e-10]), lambda i: i)
        pick.feed(np.array([1.0, 2.0]), lambda i: 10 + i)
        assert pick.winner == (1, 1.0 + 5e-10)

    def test_a_later_lower_cost_unseats_the_first(self):
        pick = FirstMinimum(tol=1e-9)
        pick.feed(np.array([1.0 + 5e-10]), lambda i: "first")
        pick.feed(np.array([1.0 - 1e-6]), lambda i: "second")
        assert pick.winner == ("second", 1.0 - 1e-6)

    def test_zero_cost_settles_at_once(self):
        pick = FirstMinimum(tol=0.0)
        assert pick.feed(np.array([0.0, 0.0]), lambda i: i)
        assert pick.winner == (0, 0.0)


class TestBatching:
    @pytest.mark.parametrize(
        "norm, kind",
        [
            pytest.param(Norm.L1, "binary", id="Norm.L1"),
            pytest.param(Norm.L2, "tenths", id="Norm.L2"),
            pytest.param(Norm.L1, "quarters", id="Norm.L1-quarters"),
        ],
    )
    def test_one_partition_per_batch_gives_the_same_winner(self, monkeypatch, norm, kind):
        # grid entries tie often, so ties straddle batch boundaries
        rows = (np.random.default_rng(3).integers(0, 3, size=(5, 4)) / 10).tolist()
        if kind == "binary":
            rows = (np.asarray(rows) > 0.05).astype(float).tolist()
        elif kind == "quarters":
            rows = (np.random.default_rng(3).integers(0, 5, size=(5, 4)) / 4).tolist()
        x = DataMatrix(rows)
        assert x.is_binary == (kind == "binary")
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


class TestScoringBatch:
    """A one-way search scores the keys the walk writes, in as few calls
    as ``BATCH_ENTRIES`` allows, and its memory beside the table stays
    within that budget however many partitions there are."""

    def test_nine_rows_score_in_one_call(self):
        calls = []
        score = BatchCosts.__call__

        def spy(self, keys, cols=slice(None)):
            calls.append(keys.shape)
            return score(self, keys, cols)

        with patch.object(BatchCosts, "__call__", spy):
            exact_kcluster(random_real_matrix(9, 6, seed=1), 3, Norm.L2)
        assert calls == [(3, 3281)]  # every partition of 9 rows into at most 3 clusters

    @pytest.mark.parametrize("norm", [Norm.L1, Norm.L2])
    def test_thirteen_rows_stay_within_the_budget(self, norm):
        # 2,798,251 partitions of 13 rows into at most 4 clusters, scored in
        # hundreds of calls; the one-way table has a float per row group
        x = _summed(norm, 13, 6, 2)
        exact_kcluster(x, 4, norm)  # fills the per-shape caches
        tracemalloc.start()
        try:
            exact_kcluster(x, 4, norm)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= (1 << 13) * 8 + 8 * cost.BATCH_ENTRIES


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


def _data(kind, shape, seed, shift):
    """0/1, uniform real or 0.1-grid (tie-heavy) entries, plus ``shift``."""
    if kind == "binary":
        values = random_binary_matrix(*shape, 0.5, seed=seed).values
    elif kind == "real":
        values = random_real_matrix(*shape, seed=seed).values
    else:
        values = np.random.default_rng(seed).integers(0, 3, size=shape) / 10
    return DataMatrix(values + shift) if shift else DataMatrix(values)


class TestReportedCosts:
    """A solver reports the exact cost its winner won on, so that cost must
    be the direct evaluation of the winner, bit for bit."""

    @pytest.mark.parametrize("shift", [0.0, 1e7])
    @pytest.mark.parametrize("kind", ["binary", "real", "tenths"])
    @pytest.mark.parametrize("norm", [Norm.L1, Norm.L2])
    def test_exact_kcluster_cost_is_the_direct_cost(self, norm, kind, shift):
        for seed in range(3):
            x = _data(kind, (7, 3), seed, shift)
            for k in (1, 2, 3, 4):
                sol = exact_kcluster(x, k, norm)
                assert sol.cost == oneway_row_cost(x, sol.partition, norm), (seed, k)

    @pytest.mark.parametrize("shift", [0.0, 1e7])
    @pytest.mark.parametrize("kind", ["binary", "real", "tenths"])
    @pytest.mark.parametrize("norm", [Norm.L1, Norm.L2])
    def test_exact_biclustering_cost_is_the_direct_cost(self, norm, kind, shift):
        for seed in range(3):
            x = _data(kind, (5, 4), seed, shift)
            for k_r, k_c in ((1, 2), (2, 1), (2, 2), (3, 3)):
                opt = exact_biclustering(x, k_r, k_c, norm)
                direct = block_costs(x, opt.rows, opt.cols, norm).sum()
                assert opt.cost == direct, (seed, k_r, k_c)

    @pytest.mark.parametrize("norm", [Norm.L1, Norm.L2])
    @pytest.mark.parametrize("value", [0.0, 0.1, 1e7 + 0.1])
    def test_constant_matrices(self, norm, value):
        x = DataMatrix(np.full((5, 4), value))
        sol = exact_kcluster(x, 2, norm)
        opt = exact_biclustering(x, 2, 2, norm)
        assert sol.cost == oneway_row_cost(x, sol.partition, norm) == 0.0
        assert opt.cost == block_costs(x, opt.rows, opt.cols, norm).sum() == 0.0


class TestOneClusterFastPath:
    """``exact_kcluster`` answers k == 1 without the search; the search at
    k == 1 is its reference, on axes longer than any group bitmask."""

    @pytest.mark.parametrize(
        "norm, kind, shift",
        [(Norm.L1, "binary", 0.0), (Norm.L1, "real", 0.0), (Norm.L2, "real", 0.0),
         (Norm.L2, "real", 1e7)],
    )
    @pytest.mark.parametrize("source", ["70x4", "q48-transposed"])
    def test_same_partition_and_cost_as_the_search(self, norm, kind, shift, source):
        if source == "70x4":
            x = _data(kind, (70, 4), 3, shift)
        else:
            values = worst_case_matrix(48).transpose().values  # 191 x 4, 0/1
            if kind == "real":
                values = values + np.random.default_rng(4).random(values.shape)
            x = DataMatrix(values + shift) if shift else DataMatrix(values)
        assert x.n_rows > 64
        sol = exact_kcluster(x, 1, norm)
        part, cols, cost = _exact_search(x, norm, 1)
        assert cols is None
        assert sol.partition == part
        assert sol.cost == cost


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
            with pytest.raises(ValidationError, match="matrix entries too large"):
                exact_kcluster(x, 2, Norm.L2)
            with pytest.raises(ValidationError, match="matrix entries too large"):
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
        x = DataMatrix(rows)
        sol = exact_kcluster(x, k, norm)
        labels, cost = exact_oneway_argmin_naive(rows, k, norm.value, TIE_RTOL)
        assert sol.partition.assignment == labels
        assert sol.cost == oneway_row_cost(x, sol.partition, norm)
        assert sol.cost == pytest.approx(cost, rel=1e-9, abs=1e-9)

    @settings(max_examples=100, deadline=None)
    @given(matrices(4, 4), st.integers(1, 3), st.integers(1, 3), NORMS)
    def test_exact_biclustering(self, rows, k_r, k_c, norm):
        k_r, k_c = min(k_r, len(rows)), min(k_c, len(rows[0]))
        x = DataMatrix(rows)
        opt = exact_biclustering(x, k_r, k_c, norm)
        (labels_r, labels_c), cost = exact_biclustering_argmin_naive(
            rows, k_r, k_c, norm.value, TIE_RTOL
        )
        assert (opt.rows.assignment, opt.cols.assignment) == (labels_r, labels_c)
        assert opt.cost == block_costs(x, opt.rows, opt.cols, norm).sum()
        assert opt.cost == pytest.approx(cost, rel=1e-9, abs=1e-9)


@st.composite
def tie_heavy(draw, max_rows, max_cols):
    """0/1 matrices, or quarter-grid ones moved to [0.5, 1.5] and scored as
    real data (unless every entry is 1): many partitions tie, so ties fall
    across block boundaries."""
    n = draw(st.integers(2, max_rows))
    m = draw(st.integers(1, max_cols))
    binary = draw(st.booleans())
    quarters = st.integers(0, 4).map(lambda v: v / 4 + 0.5)
    values = st.sampled_from([0.0, 1.0]) if binary else quarters
    return draw(_grid(n, m, values))


class TestTiesAcrossBlocks:
    @settings(max_examples=60, deadline=None)
    @given(tie_heavy(5, 4), st.integers(2, 3), st.integers(1, 3), NORMS)
    def test_winners_match_the_naive_argmins_at_every_batch_size(self, rows, k_r, k_c, norm):
        k_r, k_c = min(k_r, len(rows)), min(k_c, len(rows[0]))
        x = DataMatrix(rows)
        labels, _ = exact_oneway_argmin_naive(rows, k_r, norm.value, TIE_RTOL)
        pair, _ = exact_biclustering_argmin_naive(rows, k_r, k_c, norm.value, TIE_RTOL)
        for entries in (cost.BATCH_ENTRIES, 1):
            with patch.object(cost, "BATCH_ENTRIES", entries):
                sol = exact_kcluster(x, k_r, norm)
                opt = exact_biclustering(x, k_r, k_c, norm)
            assert sol.partition.assignment == labels
            assert (opt.rows.assignment, opt.cols.assignment) == pair
