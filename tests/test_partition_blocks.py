"""The exact solvers' label blocks (``model.partition_blocks``) against the
partition walk, the Stirling counts and their row bound."""

import tracemalloc
from itertools import islice

import numpy as np
import pytest

from crossclust import CapExceededError, ValidationError, enumerate_partitions
from crossclust.cost import BATCH_ENTRIES
from crossclust.model import partition_blocks

from oracles import stirling2


def _walk_tables(t):
    """The walk of ``t`` items as a label table per cluster bound k: the
    strings of the full walk whose labels are all below k, in walk order."""
    walk = np.array([p.assignment for p in enumerate_partitions(t, t)], dtype=np.int8)
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
            # one-row blocks walk every string in Python: at 10 items only
            # up to k = 3 (9,842 rows), as the larger bounds take 4 s more
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


class TestCounts:
    @pytest.mark.parametrize("t, k", [(t, k) for t in range(1, 15) for k in (1, 2, 3) if k <= t])
    def test_rows_are_the_stirling_sums(self, t, k):
        rows = sum(len(b) for b in _blocks(t, k, BATCH_ENTRIES // (k * t)))
        assert rows == sum(stirling2(t, j) for j in range(1, k + 1))

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
        walk = [p.assignment for p in islice(enumerate_partitions(14, 4), 3 * rows)]
        got = np.concatenate(first)
        assert got.tolist() == [list(a) for a in walk[: len(got)]]


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
