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
    exact_biclustering,
    planted_real_matrix,
    random_binary_matrix,
    random_real_matrix,
)
from crossclust import cost
from crossclust.cost import TIE_RTOL, FirstMinimum, block_costs
from crossclust.model import partition_count

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


def _grid(n, m, values):
    return st.lists(st.lists(values, min_size=m, max_size=m), min_size=n, max_size=n)


@st.composite
def matrices(draw, max_rows, max_cols):
    """0/1, small integers 0..2, with a duplicated row or a constant
    column, uniform reals shifted by ``SHIFT``, or planted blocks."""
    n = draw(st.integers(2, max_rows))
    m = draw(st.integers(1, max_cols))
    kind = draw(st.sampled_from(["binary", "ints", "dup_row", "const_col", "shifted", "planted"]))
    seed = draw(st.integers(0, 2**32))
    if kind == "binary":
        return draw(_grid(n, m, st.sampled_from([0.0, 1.0])))
    if kind == "shifted":
        return (random_real_matrix(n, m, seed).values + SHIFT).tolist()
    if kind == "planted":
        return planted_real_matrix(n, m, seed).values.tolist()
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

    @pytest.mark.parametrize("k_r, k_c", [(3, 3), (3, 2), (2, 3)])
    @pytest.mark.parametrize("kind, norm", [
        ("binary", Norm.L1), ("real", Norm.L1), ("real", Norm.L2), ("shifted", Norm.L2),
        ("planted", Norm.L2), ("ints", Norm.L1), ("ints", Norm.L2),
    ])
    def test_eight_by_eight(self, kind, norm, k_r, k_c):
        # the default batch size takes the bounded path here; small
        # integers tie often, so ties straddle the pruning threshold
        values = {
            "binary": lambda: random_binary_matrix(8, 8, 0.5, 11).values,
            "real": lambda: random_real_matrix(8, 8, 11).values,
            "shifted": lambda: random_real_matrix(8, 8, 11).values + SHIFT,
            "planted": lambda: planted_real_matrix(8, 8, 11).values,
            "ints": lambda: np.random.default_rng(11).integers(0, 3, size=(8, 8)),
        }[kind]()
        _both_paths(DataMatrix(values), k_r, k_c, norm, cost.BATCH_ENTRIES)


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
