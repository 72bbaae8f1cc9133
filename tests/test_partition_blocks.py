"""The label blocks of ``model.partition_blocks``, and their view
``enumerate_partitions``, against the brute-force enumerations of
``oracles.py``, the Stirling counts and the blocks' row bound.  The walk
the blocks are checked against is the reference one: every set partition
from the insert-into-each-block recursion, sorted lexicographically."""

import tracemalloc
from functools import lru_cache
from itertools import islice

import numpy as np
import pytest

from crossclust import CapExceededError, ValidationError, enumerate_partitions
from crossclust.cost import BATCH_ENTRIES
from crossclust.model import label_table, partition_blocks, partition_count

from oracles import (
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


def _blocks(t, k, rows):
    blocks = list(partition_blocks(t, k, rows))
    assert all(b.dtype == np.int8 and b.shape[1] == t for b in blocks)
    assert all(1 <= len(b) <= rows for b in blocks)
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
            first = list(islice(partition_blocks(14, 4, rows), 3))
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
            table = label_table(t, k)
            assert table.dtype == np.int8 and table.tobytes() == walk.tobytes()
            assert not table.flags.writeable
            assert label_table(t, k) is table


class TestEdges:
    def test_one_cluster_is_one_zero_row_on_any_axis(self):
        blocks = list(partition_blocks(20, 1, 5))
        assert len(blocks) == 1
        assert blocks[0].shape == (1, 20) and not blocks[0].any()

    def test_caps_and_bounds(self):
        with pytest.raises(CapExceededError):
            partition_blocks(15, 2, 100)
        with pytest.raises(ValidationError):
            partition_blocks(3, 4, 100)
        with pytest.raises(ValidationError):
            partition_blocks(3, 2, 0)

    def test_writing_a_block_leaves_later_blocks_alone(self):
        first = np.concatenate(list(partition_blocks(6, 3, 50)))
        for block in partition_blocks(6, 3, 50):
            block[:] = 5
        again = np.concatenate(list(partition_blocks(6, 3, 50)))
        assert again.tobytes() == first.tobytes()
