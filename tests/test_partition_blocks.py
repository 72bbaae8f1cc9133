"""The label blocks of ``model.keyed_blocks``, their view
``enumerate_partitions`` and their cached table ``partition_table``,
against the brute-force enumerations of ``oracles.py``, the Stirling
counts and the blocks' row bound.  The walk the blocks are checked against
is the reference one: every set partition from the insert-into-each-block
recursion, sorted lexicographically.  The group keys the walk writes next
to the labels are checked against ``oracles.group_keys`` of those labels."""

import tracemalloc
from functools import lru_cache
from itertools import islice

import numpy as np
import pytest

from crossclust import CapExceededError, ValidationError, enumerate_partitions
from crossclust.cost import BATCH_ENTRIES
from crossclust.model import keyed_blocks, partition_count, partition_table

from oracles import (
    group_keys,
    partitions_by_block_recursion,
    partitions_by_label_strings,
    restricted_growth_strings,
    stirling2,
)


@lru_cache(maxsize=None)
def _walk_tables(t):
    """The reference walk of ``t`` items as a label table per cluster bound
    k: the sorted strings whose labels are all below k."""
    walk = np.array(sorted(partitions_by_block_recursion(t)), dtype=np.int8)
    walk.setflags(write=False)
    top = walk.max(axis=1)
    return {k: walk[top < k] for k in range(1, t + 1)}


def _oracle_keys(labels, k):
    """``oracles.group_keys`` of each row of ``labels``, as a (k, P) array."""
    return np.array([group_keys(row, k) for row in labels.tolist()]).reshape(-1, k).T


@lru_cache(maxsize=None)
def _walk_keys(t, k):
    """:func:`_oracle_keys` of the reference walk's table of (t, k)."""
    return _oracle_keys(_walk_tables(t)[k], k)


def _blocks(t, k, rows):
    """The label blocks of the walk."""
    return [labels for labels, _ in _keyed(t, k, rows)]


def _keyed(t, k, rows):
    blocks = list(keyed_blocks(t, k, rows))
    for labels, keys in blocks:
        assert labels.dtype == np.int8 and labels.shape[1] == t
        assert keys.dtype == np.int16 and keys.shape == (k, len(labels))
        assert 1 <= len(labels) <= rows
    return blocks


class TestAgainstTheWalk:
    @pytest.mark.parametrize("t", range(1, 11))
    def test_byte_identical_at_every_batch_size(self, t):
        for k, walk in _walk_tables(t).items():
            # one-row blocks build a block per string: at 10 items only up
            # to k = 3 (9,842 rows), as the larger bounds take seconds more
            sizes = (97, BATCH_ENTRIES // (k * t))
            for rows in sizes if t == 10 and k > 3 else (1,) + sizes:
                table = np.concatenate(_blocks(t, k, rows))
                assert table.shape == walk.shape, (k, rows)
                assert table.tobytes() == walk.tobytes(), (k, rows)

    def test_blocks_fill_up_to_the_bound(self):
        # every block but the last is too full to take the next prefix's
        # completions: the prefixes have 5 labels, and a prefix has at
        # most 3**3 completions
        sizes = [len(b) for b in _blocks(8, 3, 40)]
        assert all(40 - 27 < s for s in sizes[:-1])


class TestKeyedBlocks:
    @pytest.mark.parametrize("rows", [1, 7, 50, 4096])
    @pytest.mark.parametrize("t", range(1, 11))
    def test_keys_of_the_labels_at_every_batch_size(self, t, rows):
        # at 10 items the budgets of 1 and 7 rows walk about a block per
        # prefix: only up to k = 3 (9,842 rows), as the larger bounds take
        # seconds more
        for k in range(1, t + 1 if t < 10 or rows > 7 else 4):
            blocks = _keyed(t, k, rows)
            table = np.concatenate([labels for labels, _ in blocks])
            keys = np.concatenate([keys for _, keys in blocks], axis=1)
            walk = _walk_tables(t)[k].tobytes()
            assert table.tobytes() == walk == partition_table(t, k)[0].tobytes(), (k, rows)
            # each block's keys are its own labels', as the shapes line up
            assert np.array_equal(keys, _walk_keys(t, k)), (k, rows)

    def test_first_blocks_of_a_large_space(self):
        first = list(islice(keyed_blocks(14, 4, 1000), 3))
        for labels, keys in first:
            assert len(labels) <= 1000
            assert np.array_equal(keys, _oracle_keys(labels, 4))
        got = [tuple(r) for labels, _ in first for r in labels.tolist()]
        assert got == list(islice(restricted_growth_strings(14, 4), len(got)))

    def test_one_cluster_is_keyed_by_item_zero(self):
        (labels, keys), = keyed_blocks(20, 1, 5)
        assert labels.shape == (1, 20) and not labels.any()
        assert keys.tolist() == [[1]]
        assert np.array_equal(keys, _oracle_keys(labels, 1))


class TestTheView:
    @pytest.mark.parametrize("t", range(1, 11))
    def test_one_partition_per_row_of_the_walk(self, t):
        for k, walk in _walk_tables(t).items():
            parts = list(enumerate_partitions(t, k))
            assert [p.assignment for p in parts] == [tuple(r) for r in walk.tolist()], k
            assert all(p.k == k and type(p.assignment[0]) is int for p in parts)

    def test_the_lexicographic_generator_is_the_sorted_brute_force(self):
        for t in range(1, 7):
            for k in range(1, t + 1):
                strings = list(restricted_growth_strings(t, k))
                assert strings == sorted(partitions_by_label_strings(t, k)), (t, k)


class TestCounts:
    @pytest.mark.parametrize("t, k", [(t, k) for t in range(1, 15) for k in (1, 2, 3) if k <= t])
    def test_rows_are_the_stirling_sums(self, t, k):
        rows = sum(len(b) for b in _blocks(t, k, BATCH_ENTRIES // (k * t)))
        assert rows == sum(stirling2(t, j) for j in range(1, k + 1)) == partition_count(t, k)

    def test_first_blocks_of_a_large_space_stay_small(self):
        # (14, 4) has 11.2M partitions, a 157 MB table; the first blocks
        # come without building it
        rows = 1000
        tracemalloc.start()
        try:
            first = [labels for labels, _ in islice(keyed_blocks(14, 4, rows), 3)]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert all(len(b) <= rows for b in first)
        assert peak < 2_000_000
        got = np.concatenate(first)
        walk = list(islice(restricted_growth_strings(14, 4), len(got)))
        assert [tuple(r) for r in got.tolist()] == walk
        view = islice(enumerate_partitions(14, 4), len(got))
        assert [p.assignment for p in view] == walk


class TestTheFullTable:
    @pytest.mark.parametrize("t", range(1, 9))
    def test_the_walk_read_only_and_built_once(self, t):
        for k, walk in _walk_tables(t).items():
            cached = partition_table(t, k)
            table, keys = cached
            assert table.dtype == np.int8 and table.tobytes() == walk.tobytes()
            assert not table.flags.writeable and not keys.flags.writeable
            assert partition_table(t, k) is cached

    def test_caps_are_checked_before_the_tables_are_made(self):
        with pytest.raises(CapExceededError):
            partition_table(40, 10)


class TestEdges:
    def test_one_cluster_is_one_zero_row_on_any_axis(self):
        blocks = _blocks(20, 1, 5)
        assert len(blocks) == 1
        assert blocks[0].shape == (1, 20) and not blocks[0].any()

    def test_caps_and_bounds(self):
        with pytest.raises(CapExceededError):
            keyed_blocks(15, 2, 100)
        with pytest.raises(ValidationError):
            keyed_blocks(3, 4, 100)
        with pytest.raises(ValidationError):
            keyed_blocks(3, 2, 0)

    def test_writing_a_block_leaves_later_blocks_alone(self):
        first = np.concatenate(_blocks(6, 3, 50))
        for block, keys in keyed_blocks(6, 3, 50):
            block[:] = 5
            keys[:] = 5
        again = np.concatenate(_blocks(6, 3, 50))
        assert again.tobytes() == first.tobytes()
