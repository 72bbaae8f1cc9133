"""The block-cost table (``cost.BatchCosts``) under L1 on real data,
against direct costs and the exhaustive naive oracles."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from crossclust import (
    DataMatrix,
    Norm,
    Partition,
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
    block_costs,
    columnwise_cost,
    pooled_cost,
)
from crossclust.model import partition_count, partition_table

from oracles import exact_biclustering_argmin_naive, exact_oneway_argmin_naive, group_keys


def _keys(parts, k):
    """Partitions into at most ``k`` clusters as the (k, P) group keys that
    ``BatchCosts`` scores, as the partition walk writes them."""
    return np.array([group_keys(p.assignment, k) for p in parts]).T


def _real(values) -> DataMatrix:
    """A matrix on the L1-on-real-data path: its entries are not all 0 or 1."""
    x = DataMatrix(values)
    assert not x.is_binary
    return x


def _uniform(n, m, seed):
    return random_real_matrix(n, m, seed).values


def _quarters(n, m, seed):
    return np.random.default_rng(seed).integers(0, 5, size=(n, m)) / 4


class TestWithinErrorBound:
    @pytest.mark.parametrize("shift", [0.0, 1e7])
    @pytest.mark.parametrize("make", [_uniform, _quarters])
    def test_pairs(self, make, shift):
        x = _real(make(5, 4, 6) + shift)
        rows = list(enumerate_partitions(5, 3))
        cols = list(enumerate_partitions(4, 3))
        table = BatchCosts(x, Norm.L1, 3, 3)
        direct = np.array([block_costs(x, r, c, Norm.L1).sum() for r in rows for c in cols])
        assert np.abs(table(_keys(rows, 3)) - direct).max() <= table.err
        assert table.err <= 1e-12 * pooled_cost(x, Norm.L1)

    @pytest.mark.parametrize("shift", [0.0, 1e7])
    @pytest.mark.parametrize("make", [_uniform, _quarters])
    def test_oneway(self, make, shift):
        x = _real(make(6, 4, 5) + shift)
        parts = list(enumerate_partitions(6, 3))
        table = BatchCosts(x, Norm.L1, 3)
        direct = np.array([oneway_row_cost(x, p, Norm.L1) for p in parts])
        assert np.abs(table(_keys(parts, 3)) - direct).max() <= table.err
        assert table.err <= 1e-12 * columnwise_cost(x, Norm.L1)

    def test_fewer_clusters_than_k(self):
        # partitions into at most 2 clusters scored with room for 4: the
        # empty groups must add nothing
        x = random_real_matrix(5, 4, seed=8)
        rows = list(enumerate_partitions(5, 2))
        cols = list(enumerate_partitions(4, 2))
        direct = [block_costs(x, r, c, Norm.L1).sum() for r in rows for c in cols]
        keys = _keys(rows, 4)
        np.testing.assert_allclose(BatchCosts(x, Norm.L1, 4, 2)(keys), direct, rtol=1e-12)
        oneway = [oneway_row_cost(x, p, Norm.L1) for p in rows]
        np.testing.assert_allclose(BatchCosts(x, Norm.L1, 4)(keys), oneway, rtol=1e-12)

    def test_one_cluster_on_an_axis_longer_than_any_mask(self):
        x = random_real_matrix(70, 3, seed=9)
        whole = Partition((0,) * 70, 1)
        cols = list(enumerate_partitions(3, 3))
        direct = [block_costs(x, whole, c, Norm.L1).sum() for c in cols]
        keys = _keys([whole], 1)
        np.testing.assert_allclose(BatchCosts(x, Norm.L1, 1, 3)(keys), direct, rtol=1e-12)
        assert BatchCosts(x, Norm.L1, 1)(keys)[0] == pytest.approx(columnwise_cost(x, Norm.L1))

    def test_constant_matrix_costs_exactly_zero(self):
        x = _real(np.full((4, 3), 0.1))
        rows = list(enumerate_partitions(4, 2))
        table = BatchCosts(x, Norm.L1, 2, 2)
        assert table.err == 0.0
        assert not table(_keys(rows, 2)).any()


@st.composite
def far_matrices(draw):
    """Real matrices of 1 to 6 rows and columns, so lanes of odd and even
    length: uniform, or quarters with one -0.0 entry, whose medians tie;
    scaled by 2^-40, 1 or 2^40, then moved by 0, +-1e7 or +-1e12."""
    n, m = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    seed = draw(st.integers(0, 2**32 - 1))
    if draw(st.booleans()):
        values = _uniform(n, m, seed)
    else:
        values = _quarters(n, m, seed)
        values.flat[draw(st.integers(0, n * m - 1))] = -0.0
    values = values * draw(st.sampled_from([2.0**-40, 1.0, 2.0**40]))
    offset = draw(st.sampled_from([0.0, 1e7, -1e7, 1e12, -1e12]))
    if offset:  # -0.0 + 0.0 would be 0.0
        values = values + offset
    x = DataMatrix(values)
    assume(not x.is_binary)
    return x


def _some(parts, rng, size=6):
    """Up to ``size`` of ``parts``, the first and last among them."""
    picked = {0, len(parts) - 1, *rng.integers(0, len(parts), size - 2).tolist()}
    return [parts[i] for i in sorted(picked)]


class TestSignedLanes:
    """The real-L1 tables, built on median-centered data, each sorted lane
    priced by one product with signs (``cost._lanes_spread``), against the
    direct costs, far from 0 and at extreme scales.  Mutants of the kernel
    that these tests kill: building on the uncentered data (all three);
    centering a pooled table per column (the pooled property); a median
    sign of 0 on even lanes, or of -1 on odd ones, and lanes left unsorted
    (both properties)."""

    @settings(max_examples=200, deadline=None)
    @given(far_matrices(), st.integers(1, 3), st.sampled_from([1, 2, 3]),
           st.integers(0, 2**32 - 1))
    def test_pooled_within_err_of_block_costs(self, x, k_r, k_c, seed):
        k_r, k_c = min(k_r, x.n_rows), min(k_c, x.n_cols)
        rng = np.random.default_rng(seed)
        rows = _some(list(enumerate_partitions(x.n_rows, k_r)), rng)
        cols = _some(list(range(partition_count(x.n_cols, k_c))), rng)
        labels = partition_table(x.n_cols, k_c)[0]
        table = BatchCosts(x, Norm.L1, k_r, k_c)
        direct = [block_costs(x, r, Partition(tuple(labels[j].tolist()), k_c), Norm.L1).sum()
                  for r in rows for j in cols]
        assert np.abs(table(_keys(rows, k_r), cols) - direct).max() <= table.err

    @settings(max_examples=200, deadline=None)
    @given(far_matrices(), st.integers(1, 3))
    def test_oneway_within_err_of_oneway_row_cost(self, x, k):
        k = min(k, x.n_rows)
        parts = list(enumerate_partitions(x.n_rows, k))
        table = BatchCosts(x, Norm.L1, k)
        direct = [oneway_row_cost(x, p, Norm.L1) for p in parts]
        assert np.abs(table(_keys(parts, k)) - direct).max() <= table.err

    @pytest.mark.parametrize("k_c", [None, 1, 2, 3])
    @pytest.mark.parametrize("value", [0.1, -1e12 - 0.25, 3 * 2.0**40, 3 * 2.0**-40])
    def test_constant_matrix_table_is_exactly_zero(self, value, k_c):
        table = BatchCosts(_real(np.full((5, 4), value)), Norm.L1, 3, k_c)
        assert table.err == 0.0
        assert not table._table.any()


class TestTableBuild:
    @pytest.mark.parametrize("entries", [1 << 13, cost.BATCH_ENTRIES])
    def test_temporaries_stay_within_batch_entries(self, monkeypatch, entries):
        # 9x9 at k=3,3: a 512 x 512 table, 2 MB; the shape's cached
        # structure is built before tracing starts
        x = _real(_uniform(9, 9, 3))
        BatchCosts(x, Norm.L1, 3, 3)
        monkeypatch.setattr(cost, "BATCH_ENTRIES", entries)
        tracemalloc.start()
        try:
            table = BatchCosts(x, Norm.L1, 3, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert table._table.nbytes == 512 * 512 * 8
        assert peak <= table._table.nbytes + 3 * entries * 8

    @pytest.mark.parametrize("k_c", [None, 1, 3])
    @pytest.mark.parametrize("make", [_uniform, _quarters])
    def test_one_entry_per_temporary_gives_the_same_table(self, monkeypatch, make, k_c):
        x = _real(make(6, 5, 2) + 1e7)
        whole = BatchCosts(x, Norm.L1, 3, k_c)
        monkeypatch.setattr(cost, "BATCH_ENTRIES", 1)
        single = BatchCosts(x, Norm.L1, 3, k_c)
        assert np.abs(single._table - whole._table).max() <= whole.err

    def test_shape_structure_is_shared_across_cluster_counts(self):
        # the groups of every k >= 2 are all 2^t subsets: one cache entry each
        x = _real(_uniform(6, 5, 4))
        cost._members.cache_clear()
        cost._size_buckets.cache_clear()
        for k, k_c in [(2, 2), (3, 3), (4, 2)]:
            BatchCosts(x, Norm.L1, k, k_c)
        assert cost._members.cache_info().currsize == 2
        assert cost._size_buckets.cache_info().currsize == 2


class TestSolvers:
    @pytest.mark.parametrize("shape, k_r, k_c", [((20, 5), 1, 3), ((5, 20), 3, 1)])
    def test_one_cluster_axis_longer_than_the_cap(self, shape, k_r, k_c):
        rows = _uniform(*shape, 4).tolist()
        opt = exact_biclustering(DataMatrix(rows), k_r, k_c, Norm.L1)
        (labels_r, labels_c), best = exact_biclustering_argmin_naive(
            rows, k_r, k_c, "l1", TIE_RTOL
        )
        assert (opt.rows.assignment, opt.cols.assignment) == (labels_r, labels_c)
        assert opt.cost == pytest.approx(float(best), rel=1e-12)

    @pytest.mark.parametrize("seed", range(4))
    def test_one_entry_per_batch_gives_the_same_winner(self, monkeypatch, seed):
        # quarter-grid entries tie often, so ties straddle batch boundaries
        rows = _quarters(5, 4, seed).tolist()
        x = _real(rows)
        whole = exact_biclustering(x, 3, 2, Norm.L1)
        oneway = exact_kcluster(x, 3, Norm.L1)
        monkeypatch.setattr(cost, "BATCH_ENTRIES", 1)
        single = exact_biclustering(x, 3, 2, Norm.L1)
        assert (single.rows, single.cols) == (whole.rows, whole.cols)
        assert exact_kcluster(x, 3, Norm.L1).partition == oneway.partition
        (labels_r, labels_c), _ = exact_biclustering_argmin_naive(rows, 3, 2, "l1", TIE_RTOL)
        assert (whole.rows.assignment, whole.cols.assignment) == (labels_r, labels_c)
        labels, _ = exact_oneway_argmin_naive(rows, 3, "l1", TIE_RTOL)
        assert oneway.partition.assignment == labels


# -- properties against the naive oracles ------------------------------------


@st.composite
def real_matrices(draw, max_rows, max_cols):
    """Small real matrices: uniform, on a quarter grid moved to [0.5, 1.5]
    (exact ties, and 0/1 draws off {0, 1}), with a constant column or with
    a duplicated row."""
    n = draw(st.integers(2, max_rows))
    m = draw(st.integers(1, max_cols))
    kind = draw(st.sampled_from(["uniform", "quarters", "const_col", "dup_row"]))
    if kind == "uniform":
        return _uniform(n, m, draw(st.integers(0, 2**32))).tolist()
    quarter = st.integers(0, 4).map(lambda v: v / 4 + 0.5)
    rows = draw(st.lists(st.lists(quarter, min_size=m, max_size=m), min_size=n, max_size=n))
    if kind == "const_col":
        j = draw(st.integers(0, m - 1))
        for row in rows:
            row[j] = rows[0][j]
    elif kind == "dup_row":
        rows[draw(st.integers(1, n - 1))] = list(rows[0])
    assume(not DataMatrix(rows).is_binary)  # all ones
    return rows


class TestAgainstNaiveOracles:
    @settings(max_examples=150, deadline=None)
    @given(real_matrices(6, 3), st.integers(1, 3))
    def test_exact_kcluster(self, rows, k):
        k = min(k, len(rows))
        sol = exact_kcluster(_real(rows), k, Norm.L1)
        labels, best = exact_oneway_argmin_naive(rows, k, "l1", TIE_RTOL)
        assert sol.partition.assignment == labels
        assert sol.cost == pytest.approx(float(best), rel=1e-9, abs=1e-9)

    @settings(max_examples=100, deadline=None)
    @given(real_matrices(4, 4), st.integers(1, 3), st.integers(1, 3))
    def test_exact_biclustering(self, rows, k_r, k_c):
        k_r, k_c = min(k_r, len(rows)), min(k_c, len(rows[0]))
        opt = exact_biclustering(_real(rows), k_r, k_c, Norm.L1)
        (labels_r, labels_c), best = exact_biclustering_argmin_naive(
            rows, k_r, k_c, "l1", TIE_RTOL
        )
        assert (opt.rows.assignment, opt.cols.assignment) == (labels_r, labels_c)
        assert opt.cost == pytest.approx(float(best), rel=1e-9, abs=1e-9)


class TestBinaryDataMovedOffZeroOne:
    """0/1 data is scored exactly from sums (``err`` 0); moved to 0.5/1.5 it
    is real data, scored from the median lanes.  Every L1 cost is the same
    on both, so the winners must be too, and the costs bit for bit."""

    @pytest.mark.parametrize(
        "n, m, k_r, k_c", [(5, 4, 2, 2), (6, 5, 3, 2), (7, 3, 3, 1), (4, 6, 1, 3), (8, 8, 3, 3)]
    )
    @pytest.mark.parametrize("seed", range(3))
    def test_same_partitions_and_costs(self, n, m, k_r, k_c, seed):
        x = random_binary_matrix(n, m, 0.5, seed)
        moved = _real(x.values + 0.5)
        assert x.is_binary
        assert BatchCosts(x, Norm.L1, k_r, k_c).err == 0.0
        assert BatchCosts(moved, Norm.L1, k_r, k_c).err > 0.0
        sol, sol_moved = (exact_kcluster(y, k_r, Norm.L1) for y in (x, moved))
        assert sol.partition == sol_moved.partition
        assert sol.cost.hex() == sol_moved.cost.hex()
        opt, opt_moved = (exact_biclustering(y, k_r, k_c, Norm.L1) for y in (x, moved))
        assert (opt.rows, opt.cols) == (opt_moved.rows, opt_moved.cols)
        assert opt.cost.hex() == opt_moved.cost.hex()
