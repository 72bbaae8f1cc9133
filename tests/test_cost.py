"""Tests for the cost functionals, pinned against pure-Python oracles."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from crossclust import (
    DataMatrix,
    Norm,
    Partition,
    ValidationError,
    biclustering_cost,
    certificate_bound,
    columnwise_cost,
    dissimilarity,
    oneway_col_cost,
    oneway_row_cost,
    pooled_cost,
    random_real_matrix,
    rowwise_cost,
    worst_case_matrix,
)

from crossclust import cost
from crossclust.cost import BatchCosts, block_costs

from oracles import (
    biclustering_cost_naive,
    l1_cost,
    l1_cost_best_center,
    l1_cost_lower_median,
    l2_cost,
    oneway_row_cost_naive,
)

finite = st.floats(min_value=-10, max_value=10, allow_nan=False)


def small_matrix(max_n=5, max_m=5, binary=False, entries=None):
    if entries is None:
        entries = st.sampled_from([0.0, 1.0]) if binary else finite
    return st.integers(1, max_n).flatmap(
        lambda n: st.integers(1, max_m).flatmap(
            lambda m: st.lists(
                st.lists(entries, min_size=m, max_size=m), min_size=n, max_size=n
            )
        )
    )


class TestDissimilarity:
    @pytest.mark.parametrize("norm", [Norm.L1, Norm.L2])
    def test_constant_is_zero(self, norm):
        assert dissimilarity([3.5] * 6, norm) == 0.0

    def test_l1_odd_median(self):
        assert dissimilarity([0, 0, 1, 1, 1], Norm.L1) == 2.0

    def test_l2_example(self):
        assert dissimilarity([1, 2, 3], Norm.L2) == pytest.approx(2.0)

    def test_empty_raises(self):
        with pytest.raises(ValidationError):
            dissimilarity([], Norm.L1)

    @pytest.mark.parametrize("norm", [Norm.L1, Norm.L2])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_raises(self, bad, norm):
        with pytest.raises(ValidationError, match="finite"):
            dissimilarity([bad, 1.0], norm)

    @pytest.mark.parametrize("values", [[[1.0], [2.0, 3.0]], ["a"]])
    def test_malformed_raises(self, values):
        with pytest.raises(ValidationError) as exc:
            dissimilarity(values, Norm.L1)
        assert isinstance(exc.value.__cause__, ValueError)

    def test_binary_multisets_equal_min_count(self):
        # every (zeros, ones) split with z + o <= 12, against two oracles
        for z in range(13):
            for o in range(13 - z):
                if z + o == 0:
                    continue
                values = [0.0] * z + [1.0] * o
                got = dissimilarity(values, Norm.L1)
                assert got == min(z, o)
                assert got == l1_cost_best_center(values)

    @given(st.lists(finite, min_size=1, max_size=20))
    def test_l1_median_interval_invariance(self, values):
        # lower median, upper median and the midpoint all give the same sum
        srt = sorted(values)
        lower = srt[(len(srt) - 1) // 2]
        upper = srt[len(srt) // 2]
        mid = 0.5 * (lower + upper)
        sums = {round(sum(abs(v - c) for v in values), 9) for c in (lower, upper, mid)}
        assert len(sums) == 1
        assert dissimilarity(values, Norm.L1) == pytest.approx(l1_cost(values))

    @given(st.lists(finite, min_size=1, max_size=20))
    def test_l2_matches_oracle(self, values):
        assert dissimilarity(values, Norm.L2) == pytest.approx(l2_cost(values), abs=1e-9)

    @given(st.lists(finite, min_size=1, max_size=15))
    def test_zero_iff_constant(self, values):
        all_equal = min(values) == max(values)
        assert (dissimilarity(values, Norm.L1) == 0.0) == all_equal
        d2 = dissimilarity(values, Norm.L2)
        if all_equal:
            assert d2 == 0.0
        else:
            # squared deviations can underflow to zero only for spreads
            # below ~1e-160, which no supported input class produces
            assert d2 > 0.0 or max(values) - min(values) < 1e-150

    def test_constant_multiset_is_exactly_zero_despite_mean_rounding(self):
        # mean([0.1]*3) rounds away from 0.1; the cost must still be 0
        assert dissimilarity([0.1, 0.1, 0.1], Norm.L2) == 0.0
        assert columnwise_cost([[0.1, 2.0]] * 3, Norm.L2) == pooled_cost(
            [[2.0, 2.0]] * 3, Norm.L2
        ) == 0.0


class TestBlockCosts:
    def test_pooled_trivials(self):
        assert pooled_cost(np.zeros((2, 2)), Norm.L1) == 0.0
        assert pooled_cost([[1.0, 0.0], [0.0, 0.0]], Norm.L1) == 1.0
        assert pooled_cost([[0.0, 1.0], [1.0, 0.0]], Norm.L2) == pytest.approx(1.0)

    @pytest.mark.parametrize("norm", [Norm.L1, Norm.L2])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("cost", [pooled_cost, columnwise_cost, rowwise_cost])
    def test_non_finite_entry_raises(self, cost, bad, norm):
        with pytest.raises(ValidationError, match="finite"):
            cost([[bad, 1.0], [0.0, 1.0]], norm)

    @pytest.mark.parametrize("cost", [pooled_cost, columnwise_cost, rowwise_cost])
    @pytest.mark.parametrize("block", [[[1.0, 2.0], [3.0]], [["a"]]])
    def test_malformed_block_raises(self, cost, block):
        with pytest.raises(ValidationError) as exc:
            cost(block, Norm.L1)
        assert isinstance(exc.value.__cause__, ValueError)

    def test_columnwise(self):
        assert columnwise_cost([[0.0, 1.0], [1.0, 0.0]], Norm.L1) == 2.0
        assert columnwise_cost(np.full((3, 4), 2.0), Norm.L2) == 0.0
        assert columnwise_cost([[1.0, 5.0, 9.0]], Norm.L1) == 0.0  # single row

    def test_rowwise_is_transposed_columnwise(self):
        arr = np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 0.5]])
        for norm in (Norm.L1, Norm.L2):
            assert rowwise_cost(arr, norm) == pytest.approx(columnwise_cost(arr.T, norm))

    @given(small_matrix())
    @settings(max_examples=60)
    def test_columnwise_sums_per_column_dissimilarity(self, rows):
        arr = np.array(rows)
        for norm in (Norm.L1, Norm.L2):
            expected = sum(dissimilarity(arr[:, j], norm) for j in range(arr.shape[1]))
            assert columnwise_cost(arr, norm) == pytest.approx(expected, abs=1e-9)


def bits(value: float) -> bytes:
    return np.float64(value).tobytes()


class TestOneKernel:
    """Every direct cost runs one kernel per norm: the L1 lower median found
    by selection, and a multiset priced as one column."""

    @given(small_matrix(6, 6, entries=st.sampled_from([-0.0, 0.0, 1.0, -1.0, 0.5, 3.0])),
           st.integers(0, 2**32 - 1))
    @example([[-0.0], [0.0], [0.0], [-0.0], [1.0]], 0)
    @example([[0.0, -0.0], [-0.0, 0.0]], 0)
    @example([[-0.0, 1.0, 0.0], [0.0, -0.0, 2.0], [1.0, -0.0, -0.0]], 1)
    @settings(max_examples=200)
    def test_l1_costs_are_the_sorted_lower_medians_bit_for_bit(self, rows, seed):
        # entries are multiples of 1/2, so every deviation and every sum is
        # exact, and a bit-level difference is a different center, or a
        # zero of another sign
        arr = np.array(rows)
        x = DataMatrix(arr)
        entries = arr.ravel().tolist()
        assert bits(pooled_cost(arr, Norm.L1)) == bits(l1_cost_lower_median(entries))
        assert bits(dissimilarity(entries, Norm.L1)) == bits(l1_cost_lower_median(entries))
        for cost, lines in ((columnwise_cost, arr.T), (rowwise_cost, arr)):
            expected = sum(l1_cost_lower_median(line.tolist()) for line in lines)
            assert bits(cost(arr, Norm.L1)) == bits(expected)
        rng = np.random.default_rng(seed)
        rows_part = Partition.from_labels(rng.integers(0, 3, size=x.n_rows).tolist())
        cols_part = Partition.from_labels(rng.integers(0, 3, size=x.n_cols).tolist())
        expected = sum(l1_cost_lower_median(arr[list(members), j].tolist())
                       for members in rows_part.clusters for j in range(x.n_cols))
        assert bits(oneway_row_cost(x, rows_part, Norm.L1)) == bits(expected)
        grid = block_costs(x, rows_part, cols_part, Norm.L1)
        for r, members in enumerate(rows_part.clusters):
            for c, cols in enumerate(cols_part.clusters):
                block = arr[np.ix_(list(members), list(cols))].ravel().tolist()
                assert bits(grid[r, c]) == bits(l1_cost_lower_median(block))

    @given(st.one_of(st.integers(2, 64), st.integers(65, 10**5)),
           st.sampled_from([0.0, 1e7, 1e12]), st.integers(0, 2**32 - 1))
    @example(3, 1e7, 0)
    @example(10**5, 1e12, 1)
    @settings(max_examples=120, deadline=None)
    def test_one_column_l2_cost_is_the_1d_formula_bit_for_bit(self, n, offset, seed):
        v = offset + np.random.default_rng(seed).standard_normal(n)
        assume(v.min() < v.max())
        expected = bits(float(((v - v.mean()) ** 2).sum()))
        assert bits(dissimilarity(v, Norm.L2)) == expected
        assert bits(pooled_cost(v[None, :], Norm.L2)) == expected
        x = DataMatrix(v[:, None])
        one = Partition((0,), 1)
        assert bits(block_costs(x, Partition((0,) * n, 1), one, Norm.L2)[0, 0]) == expected


class TestOnewayCosts:
    def test_singletons_zero(self):
        x = DataMatrix([[1, 2], [3, 4], [5, 6]])
        p = Partition((0, 1, 2), 3)
        assert oneway_row_cost(x, p, Norm.L1) == 0.0
        assert oneway_row_cost(x, p, Norm.L2) == 0.0

    def test_worst_case_q2_row_partitions(self):
        x = worst_case_matrix(2)
        assert oneway_row_cost(x, Partition((0, 0, 1, 1), 2), Norm.L1) == 6.0
        assert oneway_row_cost(x, Partition((0, 1, 0, 1), 2), Norm.L1) == 8.0

    def test_col_singletons_zero(self):
        x = DataMatrix([[1, 2], [3, 4]])
        assert oneway_col_cost(x, Partition((0, 1), 2), Norm.L2) == 0.0

    def test_col_equals_row_on_transpose(self):
        x = worst_case_matrix(1)
        p = Partition((0, 0, 1), 2)
        assert oneway_col_cost(x, p, Norm.L1) == oneway_row_cost(
            x.transpose(), p, Norm.L1
        )

    def test_length_mismatch(self):
        x = DataMatrix([[1, 2], [3, 4]])
        with pytest.raises(ValidationError):
            oneway_row_cost(x, Partition((0, 0, 0), 1), Norm.L1)

    @pytest.mark.parametrize("norm", [Norm.L1, Norm.L2])
    @pytest.mark.parametrize("ties", [False, True], ids=["uniform", "integers"])
    def test_col_equals_row_on_transpose_bit_for_bit(self, norm, ties):
        # what kcluster_cols reports must be the scheme's l_c exactly, also
        # where a 1e7 offset leaves few bits to the deviations
        rng = np.random.default_rng(11)
        for _ in range(150):
            n, m = rng.integers(1, 7, size=2)
            values = rng.integers(0, 4, size=(n, m)) if ties else rng.random((n, m))
            x = DataMatrix(values + rng.choice([0.0, 1e7]))
            cols = Partition.from_labels(rng.integers(0, 3, size=m).tolist())
            assert oneway_col_cost(x, cols, norm) == oneway_row_cost(x.transpose(), cols, norm)

    @given(small_matrix(), st.data())
    @settings(max_examples=60)
    def test_matches_naive_oracle(self, rows, data):
        x = DataMatrix(rows)
        assignment = data.draw(
            st.lists(
                st.integers(0, 2), min_size=x.n_rows, max_size=x.n_rows
            ).map(lambda labels: Partition.from_labels(labels))
        )
        for norm in (Norm.L1, Norm.L2):
            naive = oneway_row_cost_naive(rows, assignment.assignment, norm.value)
            assert oneway_row_cost(x, assignment, norm) == pytest.approx(naive, abs=1e-9)


class TestBiclusteringCost:
    def test_constant_matrix(self):
        x = DataMatrix(np.full((3, 3), 7.0))
        breakdown, grid = biclustering_cost(
            x, Partition((0, 1, 0), 2), Partition((0, 0, 1), 2), Norm.L1
        )
        assert breakdown.l == 0.0
        assert grid.shape == (2, 2)

    def test_worst_case_q2_known_values(self):
        x = worst_case_matrix(2)
        cols = Partition((0,) * 7, 1)
        scheme, _ = biclustering_cost(x, Partition((0, 0, 1, 1), 2), cols, Norm.L1)
        optimal, _ = biclustering_cost(x, Partition((0, 1, 0, 1), 2), cols, Norm.L1)
        assert scheme.l == 14.0
        assert optimal.l == 8.0

    def test_breakdown_components_match_oneway_exactly(self):
        x = worst_case_matrix(3)
        rows = Partition((0, 1, 1, 0), 2)
        cols = Partition((0,) * 11, 1)
        breakdown, _ = biclustering_cost(x, rows, cols, Norm.L1)
        assert breakdown.l_r == oneway_row_cost(x, rows, Norm.L1)
        assert breakdown.l_c == oneway_col_cost(x, cols, Norm.L1)

    def test_single_clusters_equal_pooled_cost(self):
        x = DataMatrix([[0.2, 1.4], [2.0, -1.0]])
        rows = Partition((0, 0), 1)
        cols = Partition((0, 0), 1)
        for norm in (Norm.L1, Norm.L2):
            breakdown, _ = biclustering_cost(x, rows, cols, norm)
            assert breakdown.l == pytest.approx(pooled_cost(x, norm))

    @given(small_matrix(max_n=4, max_m=4), st.data())
    @settings(max_examples=40)
    def test_matches_naive_oracle(self, rows, data):
        x = DataMatrix(rows)
        row_part = Partition.from_labels(
            data.draw(st.lists(st.integers(0, 2), min_size=x.n_rows, max_size=x.n_rows))
        )
        col_part = Partition.from_labels(
            data.draw(st.lists(st.integers(0, 2), min_size=x.n_cols, max_size=x.n_cols))
        )
        for norm in (Norm.L1, Norm.L2):
            breakdown, grid = biclustering_cost(x, row_part, col_part, norm)
            naive = biclustering_cost_naive(
                rows, row_part.assignment, col_part.assignment, norm.value
            )
            assert breakdown.l == pytest.approx(naive, abs=1e-9)
            assert breakdown.l == pytest.approx(float(grid.sum()), abs=1e-12)

    @given(small_matrix(max_n=4, max_m=4, binary=True), st.data())
    @settings(max_examples=30)
    def test_refinement_never_increases_costs(self, rows, data):
        # splitting one cluster off any partition cannot raise any cost
        x = DataMatrix(rows)
        row_part = Partition.from_labels(
            data.draw(st.lists(st.integers(0, 1), min_size=x.n_rows, max_size=x.n_rows))
        )
        col_part = Partition.from_labels(
            data.draw(st.lists(st.integers(0, 1), min_size=x.n_cols, max_size=x.n_cols))
        )
        norm = data.draw(st.sampled_from([Norm.L1, Norm.L2]))
        base, _ = biclustering_cost(x, row_part, col_part, norm)
        for i in range(x.n_rows):
            labels = list(row_part.assignment)
            labels[i] = max(labels) + 1
            refined, _ = biclustering_cost(
                x, Partition.from_labels(labels), col_part, norm
            )
            assert refined.l <= base.l + 1e-9
            assert refined.l_r <= base.l_r + 1e-9
        for j in range(x.n_cols):
            labels = list(col_part.assignment)
            labels[j] = max(labels) + 1
            refined, _ = biclustering_cost(
                x, row_part, Partition.from_labels(labels), norm
            )
            assert refined.l <= base.l + 1e-9
            assert refined.l_c <= base.l_c + 1e-9

    def test_binary_l1_costs_are_integral(self):
        x = worst_case_matrix(4)
        breakdown, grid = biclustering_cost(
            x, Partition((0, 1, 0, 1), 2), Partition((0,) * 15, 1), Norm.L1
        )
        for value in (breakdown.l_r, breakdown.l_c, breakdown.l, *grid.ravel()):
            assert abs(value - round(value)) < 1e-9


class TestCertificateBound:
    def test_mapping(self):
        assert certificate_bound(Norm.L1, True) == pytest.approx(1 + 2**0.5)
        assert certificate_bound(Norm.L2, False) == 2.0
        assert certificate_bound(Norm.L2, True) == 2.0
        assert certificate_bound(Norm.L1, False) is None

    def test_norm_parse(self):
        assert Norm.parse("L1") is Norm.L1
        assert Norm.parse(" l2 ") is Norm.L2
        with pytest.raises(ValidationError):
            Norm.parse("l3")


class TestStackedSumTable:
    """``_sum_table`` on a (B, n, m) stack against one 2-D call per matrix."""

    @pytest.mark.parametrize("single", [False, True])
    @pytest.mark.parametrize("pooled", [False, True])
    @pytest.mark.parametrize("b, n, m", [(1, 2, 3), (3, 4, 2), (40, 5, 5), (7, 1, 4)])
    def test_binary_l1_is_exact(self, b, n, m, pooled, single):
        rng = np.random.default_rng(b * 100 + n * 10 + m)
        v = (rng.random((b, n, m)) < 0.5).astype(float)
        rows, cols = cost._members(n, single), cost._members(m, False)
        if not pooled:
            cols = np.ones((1, m), dtype=bool)
        stacked = cost._sum_table(v, rows, cols, pooled, l2=False)
        assert stacked.shape == (b, len(rows), len(cols))
        for table, x in zip(stacked, v):
            assert np.array_equal(table, cost._sum_table(x, rows, cols, pooled, l2=False))

    @pytest.mark.parametrize("pooled", [False, True])
    @pytest.mark.parametrize("b, n, m", [(1, 2, 3), (3, 4, 2), (40, 5, 5)])
    def test_l2_is_within_the_batched_error_bound(self, b, n, m, pooled):
        rng = np.random.default_rng(b * 100 + n * 10 + m)
        xs = rng.random((b, n, m)) * 10.0 ** rng.integers(-3, 4, size=(b, 1, m))
        # centered as BatchCosts centers: whole for pooled, per column otherwise
        v = xs - (xs.mean(axis=(1, 2), keepdims=True) if pooled else xs.mean(axis=1, keepdims=True))
        rows = cost._members(n, False)
        cols = cost._members(m, False) if pooled else np.ones((1, m), dtype=bool)
        stacked = cost._sum_table(v, rows, cols, pooled, l2=True)
        for table, block, x in zip(stacked, v, xs):
            err = BatchCosts(DataMatrix(x), Norm.L2, 2, 2 if pooled else None).err
            flat = cost._sum_table(block, rows, cols, pooled, l2=True)
            assert np.abs(table - flat).max() <= err


def _whole_table(v, row_groups, col_groups, pooled, l2):
    """Every entry of ``_sum_table`` by its formula, as one expression over
    all row groups at once: no chunks, no buffers."""
    rows, cols = row_groups.astype(float), col_groups.T.astype(float)
    s1, s2, size = rows @ v, rows @ (v * v), rows.sum(axis=1, keepdims=True)
    if pooled:
        s1, s2, size = s1 @ cols, s2 @ cols, size * cols.sum(axis=0)
    spread = s2 - s1 * s1 / np.maximum(size, 1.0) if l2 else np.minimum(s1, size - s1)
    return spread if pooled else spread @ cols


class TestSumTableChunks:
    """``_sum_table`` builds its table chunk by chunk, in place; every
    entry must be the whole-table formula's to the bit."""

    @pytest.mark.parametrize("l2", [False, True])
    @pytest.mark.parametrize("single", [False, True])
    @pytest.mark.parametrize("stack, n, m, pooled", [
        ((), 10, 10, True),  # 1,024 row groups, 64 chunks
        ((), 7, 7, True),  # the certify workload's one chunk
        ((), 9, 5, False),
        ((4,), 8, 8, True),  # 16 chunks
        ((40,), 10, 10, False),  # 32 chunks
        ((32,), 5, 5, True),  # the lower-bound battery's stack: 2 chunks
        ((3,), 3, 4, False),
    ])
    def test_entries_are_the_whole_table_formula(self, stack, n, m, pooled, single, l2):
        rng = np.random.default_rng(n * 100 + m * 10 + len(stack))
        v = rng.random((*stack, n, m))
        if l2:  # centered, over varied scales
            v = v * 10.0 ** rng.integers(-3, 4, size=(*stack, 1, m))
            v -= v.mean(axis=(-2, -1), keepdims=True)
        else:
            v = (v < 0.5).astype(float)
        rows = cost._members(n, single)
        cols = cost._members(m, False) if pooled else np.ones((1, m), dtype=bool)
        table = cost._sum_table(v, rows, cols, pooled, l2)
        assert table.shape == (*stack, len(rows), len(cols))
        assert np.array_equal(table, _whole_table(v, rows, cols, pooled, l2))

    @pytest.mark.parametrize("entries", [1, 100])
    @pytest.mark.parametrize("pooled", [False, True])
    def test_the_smallest_chunks_change_no_entry(self, monkeypatch, entries, pooled):
        """At a budget below one row group, chunks are four row groups."""
        monkeypatch.setattr(cost, "BATCH_ENTRIES", entries)
        v = np.random.default_rng(3).random((2, 6, 9))
        v -= v.mean(axis=(-2, -1), keepdims=True)
        rows = cost._members(6, False)
        cols = cost._members(9, False) if pooled else np.ones((1, 9), dtype=bool)
        for l2, data in ((True, v), (False, (v < 0).astype(float))):
            table = cost._sum_table(data, rows, cols, pooled, l2)
            assert np.array_equal(table, _whole_table(data, rows, cols, pooled, l2))


class TestTableBuildMemory:
    """A sum table's build keeps a chunk's temporaries within
    ``BATCH_ENTRIES`` entries together, beside the table."""

    def _peak(self, build):
        build()  # fills the per-shape caches
        tracemalloc.start()
        try:
            table = build()
            return tracemalloc.get_traced_memory()[1], table
        finally:
            tracemalloc.stop()

    def test_a_seven_by_seven_pair_table(self):
        x = random_real_matrix(7, 7, 20000)
        peak, kernel = self._peak(lambda: BatchCosts(x, Norm.L2, 3, 3))
        assert peak <= kernel._table.nbytes + 8 * cost.BATCH_ENTRIES

    @pytest.mark.parametrize("l2", [False, True])
    def test_the_lower_bound_batterys_stack(self, l2):
        v = np.random.default_rng(5).random((32, 5, 5))
        v = v - 0.5 if l2 else (v < 0.5).astype(float)
        groups = cost._members(5, False)
        peak, table = self._peak(lambda: cost._sum_table(v, groups, groups, True, l2))
        assert peak <= table.nbytes + 8 * cost.BATCH_ENTRIES
