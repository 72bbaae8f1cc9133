"""The joint oracle's bounded pair search (``cost._bounded_pairs``) against
its exhaustive path and the naive oracle.  ``_exact_search`` takes the
bounded path when the row partitions do not fit in one scoring batch, so a
small ``cost.BATCH_ENTRIES`` forces it and a large one forces the
exhaustive path."""

from contextlib import contextmanager
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from crossclust import (
    DataMatrix,
    Norm,
    Partition,
    exact_biclustering,
    oneway_col_cost,
    oneway_row_cost,
    planted_real_matrix,
    random_binary_matrix,
    random_real_matrix,
    ratio,
)
from crossclust import cost
from crossclust.cost import TIE_RTOL, BatchCosts, FirstMinimum, block_costs
from crossclust.model import label_table, partition_count

from oracles import exact_biclustering_argmin_naive

SHIFT = 1e7


@contextmanager
def _batch_entries(entries: int):
    """Run with ``cost.BATCH_ENTRIES`` at ``entries``; yields the list of
    the bounded path's calls."""
    calls = []
    original = cost._bounded_pairs

    def spy(*args):
        calls.append(args[:4])
        return original(*args)

    with patch.object(cost, "BATCH_ENTRIES", entries), \
            patch.object(cost, "_bounded_pairs", spy):
        yield calls


def _both_paths(x, k_r, k_c, norm, bounded_entries=1):
    """The oracle's answer on the bounded path (at ``bounded_entries``),
    which must equal the exhaustive path's, field for field."""
    with _batch_entries(bounded_entries) as calls:
        bounded = exact_biclustering(x, k_r, k_c, norm)
    assert len(calls) == (partition_count(x.n_rows, k_r) > 1)
    with _batch_entries(1 << 22) as calls:
        whole = exact_biclustering(x, k_r, k_c, norm)
    assert not calls
    assert (bounded.rows, bounded.cols, bounded.cost) == (whole.rows, whole.cols, whole.cost)
    return bounded


def _offsets(m):
    """Column j's shift: a different power of ten per column.  The pair
    table centers on the grand mean, so under L2 its error bound, and with
    it the margin of the one-way bound, is widest here."""
    return 10.0 ** (3 * np.arange(m))


def _values(kind, n, m, seed):
    return {
        "binary": lambda: random_binary_matrix(n, m, 0.5, seed).values,
        "real": lambda: random_real_matrix(n, m, seed).values,
        "shifted": lambda: random_real_matrix(n, m, seed).values + SHIFT,
        "offsets": lambda: random_real_matrix(n, m, seed).values + _offsets(m),
        "planted": lambda: planted_real_matrix(n, m, seed).values,
        "ints": lambda: np.random.default_rng(seed).integers(0, 3, size=(n, m)),
    }[kind]()


#: Every input class of the oracle, with the norms it runs under.
CLASSES = [
    ("binary", Norm.L1), ("real", Norm.L1), ("real", Norm.L2), ("shifted", Norm.L2),
    ("offsets", Norm.L1), ("offsets", Norm.L2), ("planted", Norm.L2), ("ints", Norm.L1),
    ("ints", Norm.L2),
]


def _grid(n, m, values):
    return st.lists(st.lists(values, min_size=m, max_size=m), min_size=n, max_size=n)


@st.composite
def matrices(draw, max_rows, max_cols):
    """0/1, small integers 0..2, with a duplicated row or a constant
    column, uniform reals shifted by ``SHIFT`` or by per-column offsets,
    or planted blocks."""
    n = draw(st.integers(2, max_rows))
    m = draw(st.integers(1, max_cols))
    kind = draw(st.sampled_from(
        ["binary", "ints", "dup_row", "const_col", "shifted", "offsets", "planted"]
    ))
    seed = draw(st.integers(0, 2**32))
    if kind == "binary":
        return draw(_grid(n, m, st.sampled_from([0.0, 1.0])))
    if kind in ("shifted", "offsets", "planted"):
        return _values(kind, n, m, seed).tolist()
    rows = draw(_grid(n, m, st.integers(0, 2).map(float)))
    if kind == "dup_row":
        rows[draw(st.integers(1, n - 1))] = list(rows[0])
    elif kind == "const_col":
        j = draw(st.integers(0, m - 1))
        for row in rows:
            row[j] = rows[0][j]
    return rows


class TestAgainstTheExhaustivePath:
    @settings(max_examples=250, deadline=None)
    @given(matrices(5, 4), st.integers(1, 3), st.integers(1, 3),
           st.sampled_from([Norm.L1, Norm.L2]))
    def test_same_winner_and_cost_and_the_naive_argmin(self, rows, k_r, k_c, norm):
        k_r, k_c = min(k_r, len(rows)), min(k_c, len(rows[0]))
        opt = _both_paths(DataMatrix(rows), k_r, k_c, norm)
        (labels_r, labels_c), _ = exact_biclustering_argmin_naive(
            rows, k_r, k_c, norm.value, TIE_RTOL
        )
        assert (opt.rows.assignment, opt.cols.assignment) == (labels_r, labels_c)

    @pytest.mark.parametrize("k_r, k_c", [(3, 3), (3, 2), (2, 3), (4, 1)])
    @pytest.mark.parametrize("kind, norm", CLASSES)
    def test_eight_by_eight(self, kind, norm, k_r, k_c):
        # the default batch size takes the bounded path here; small
        # integers tie often, so ties straddle the pruning threshold
        _both_paths(DataMatrix(_values(kind, 8, 8, 11)), k_r, k_c, norm, cost.BATCH_ENTRIES)


class TestTableBounds:
    @pytest.mark.parametrize("kind, norm", CLASSES)
    def test_within_err_of_the_direct_oneway_costs(self, kind, norm):
        # every row and every column partition, at k = 3 on both axes
        x = DataMatrix(_values(kind, 6, 5, 7))
        rows, cols = label_table(6, 3), label_table(5, 3)
        score = BatchCosts(x, norm, 3, 3)
        l_r, l_c = cost._oneway_bounds(x, 3, 3, score, rows)
        direct_r = [oneway_row_cost(x, Partition(r, 3), norm) for r in map(tuple, rows.tolist())]
        direct_c = [oneway_col_cost(x, Partition(c, 3), norm) for c in map(tuple, cols.tolist())]
        assert np.abs(l_r - direct_r).max() <= score.err
        assert np.abs(l_c - direct_c).max() <= score.err
        if kind == "offsets" and norm is Norm.L2:
            assert score.err > 1.0  # wider than the costs compared, which are a few units


class TestOneTablePerCall:
    @staticmethod
    def _count(run):
        """Tables built and matrices transposed while ``run()`` runs."""
        built, transposed = [], []
        init, transpose = BatchCosts.__init__, DataMatrix.transpose

        def count_init(self, *args):
            built.append(args)
            init(self, *args)

        def count_transpose(self):
            transposed.append(self)
            return transpose(self)

        with patch.object(BatchCosts, "__init__", count_init), \
                patch.object(DataMatrix, "transpose", count_transpose):
            run()
        return len(built), len(transposed)

    def test_a_bounded_oracle_call_builds_one_table_and_no_transpose(self):
        x = random_real_matrix(8, 8, 3)
        with _batch_entries(cost.BATCH_ENTRIES) as calls:
            assert self._count(lambda: exact_biclustering(x, 3, 3, Norm.L2)) == (1, 0)
        assert len(calls) == 1

    def test_ratio_builds_three_tables(self):
        # the oracle's, and one per exact one-way solve
        x = random_binary_matrix(7, 7, 0.5, 3)
        with _batch_entries(cost.BATCH_ENTRIES) as calls:
            tables, _ = self._count(lambda: ratio(x, 3, 3, Norm.L1))
        assert (tables, len(calls)) == (3, 1)


class TestPruning:
    @pytest.mark.parametrize("x, norm", [
        (planted_real_matrix(8, 8, 4), Norm.L2),
        (random_binary_matrix(8, 8, 0.5, 4), Norm.L1),
    ], ids=["planted-l2", "binary-l1"])
    def test_most_pairs_are_never_scored(self, x, norm):
        fed = []
        original = FirstMinimum.feed

        def count(self, costs, item):
            fed.append(len(costs))
            return original(self, costs, item)

        with patch.object(FirstMinimum, "feed", count):
            opt = exact_biclustering(x, 3, 3, norm)
        pairs = partition_count(8, 3) ** 2
        assert sum(fed) < pairs / 10
        direct = block_costs(x, opt.rows, opt.cols, norm).sum()
        assert opt.cost == direct
