"""Cost functionals for clusterings and biclusterings.

Two deviation measures are supported: under ``Norm.L1`` the dissimilarity
of a multiset is the sum of absolute deviations from its lower median,
under ``Norm.L2`` it is the sum of squared deviations from its mean, and
a constant multiset costs exactly 0.  For an even-sized multiset every
point of the closed median interval gives the same absolute-deviation
sum; fixing the lower median just makes outputs deterministic.  The
center is defined once, in ``_center`` (the lower median, selected at
``_lower_median``), and every direct cost goes through
``_columns_spread``; Lloyd's centers are the same ``_center``.  Both
exact solvers run one search, ``_exact_search``: it scores label blocks
of partitions from one table of block costs (``BatchCosts``), built from
sums over the groups under L2 and under L1 on 0/1 data, and under L1 on
real data from the same lower medians, read off sorted contiguous lanes
(``_median_table``), and picks the winner by one tie rule
(``FirstMinimum``).  The pair search skips the partitions ruled out
by the one-way lower bound, read off the same table (``_bounded_pairs``).

On top of the multiset measure three aggregate costs are defined for a
matrix with a row partition and/or a column partition:

* row-clustering objective: sum over row clusters and over columns of
  the within-column dissimilarity of each cluster-column slice;
* column-clustering objective: the transposed analogue;
* biclustering cost: sum over all induced blocks of the dissimilarity of
  the block's pooled entries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Iterator, NamedTuple

import numpy as np

from .errors import ValidationError, overflow_guard
from .model import DataMatrix, Partition, _as_floats, label_table, partition_blocks, partition_count

#: Certified worst-case ratio of the independent-clustering scheme cost to
#: the optimal biclustering cost, per input class.
BINARY_L1_RATIO_BOUND = 1.0 + math.sqrt(2.0)
REAL_L2_RATIO_BOUND = 2.0


class Norm(Enum):
    """Choice of deviation measure: absolute (median) or squared (mean)."""

    L1 = "l1"
    L2 = "l2"

    @classmethod
    def parse(cls, text: str) -> "Norm":
        try:
            return cls(text.strip().lower())
        except ValueError:
            raise ValidationError(f"unknown norm {text!r}; expected 'l1' or 'l2'")


def certificate_bound(norm: Norm, is_binary: bool) -> float | None:
    """Ratio bound certified for the given norm/input class, if any.

    The L2 bound holds for all real matrices and hence also for binary
    ones; the L1 bound is certified only for binary input.
    """
    if norm is Norm.L2:
        return REAL_L2_RATIO_BOUND
    if is_binary:
        return BINARY_L1_RATIO_BOUND
    return None


@dataclass(frozen=True)
class CostBreakdown:
    """Row-clustering, column-clustering and biclustering costs of one
    (row partition, column partition) pair under one norm."""

    l_r: float
    l_c: float
    l: float
    norm: Norm

    def __post_init__(self):
        for name in ("l_r", "l_c", "l"):
            val = getattr(self, name)
            if not math.isfinite(val) or val < 0.0:
                raise ValidationError(f"{name} must be finite and >= 0, got {val}")


def _values_of(y):
    """A DataMatrix's values, or array-like values as one nonempty 2-D
    block of floats; the battery's padded stack (:class:`_Blocks`) passes
    through as it is."""
    if isinstance(y, DataMatrix):
        return y.values
    if isinstance(y, _Blocks):
        return y
    arr = _as_floats(y)
    if arr.ndim != 2 or arr.size == 0:
        raise ValidationError("expected a nonempty 2-D block of values")
    return _require_finite(arr)


def _require_finite(arr: np.ndarray) -> np.ndarray:
    if not np.isfinite(arr).all():
        raise ValidationError("block entries must all be finite")
    return arr


def _require_binary(arr: np.ndarray) -> None:
    if not np.all((arr == 0.0) | (arr == 1.0)):
        raise ValidationError("operation requires a 0/1 valued block")


class _Blocks(NamedTuple):
    """A stack of blocks zero-padded into one (B, N, M) array by
    :func:`_stacked`: the one form, besides a single 2-D block, that the
    block checks take.  Block i is ``values[i, :rows[i], :cols[i]]`` and
    ``valid[i]`` marks its cells.  ``rows`` and ``cols`` have shape (B, 1),
    so that they broadcast against per-line sums.  The stack kernels read
    the counts for majority thresholds, L1 costs (counts of ones, so 0/1
    cells only) and means, and mask the padding with ``valid``."""

    values: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    valid: np.ndarray

    def take(self, idx) -> "_Blocks":
        """The blocks ``idx``, a copy."""
        return _Blocks(*(field[idx] for field in self))

    def transposed(self) -> "_Blocks":
        """Every block transposed: rows become columns, as a view."""
        return _Blocks(self.values.transpose(0, 2, 1), self.cols, self.rows,
                       self.valid.transpose(0, 2, 1))

    def pooled(self) -> "_Blocks":
        """Every block's entries as one column of up to N * M cells, as a
        view; its valid cells are no longer a top-left corner, but
        ``rows`` still counts them."""
        b = len(self.values)
        return _Blocks(self.values.reshape(b, -1, 1), self.rows * self.cols,
                       np.ones_like(self.cols), self.valid.reshape(b, -1, 1))

    def varies(self, axis) -> np.ndarray:
        """Whether the cells of each line (``axis`` 1 or 2) or block
        (``axis`` (1, 2)) are not all equal, padding aside, with the
        reduced axes kept: a constant line or block must cost exactly 0,
        and its computed mean can round off the value itself."""
        lo = np.where(self.valid, self.values, np.inf).min(axis=axis, keepdims=True)
        hi = np.where(self.valid, self.values, -np.inf).max(axis=axis, keepdims=True)
        return lo != hi


def _stacked(entries: np.ndarray, shapes) -> _Blocks:
    """Blocks given row-major end to end in ``entries``, with their (n, m)
    ``shapes``, zero-padded into one :class:`_Blocks`: the one constructor
    of a padded stack.  A block's cells are a top-left corner of its padded
    block, so row-major they come in the block's own order."""
    shapes = np.asarray(shapes)
    rows, cols = shapes[:, :1], shapes[:, 1:]
    valid = (np.arange(rows.max()) < rows)[:, :, None] & (np.arange(cols.max()) < cols)[:, None, :]
    values = np.zeros(valid.shape)
    values[valid] = entries
    return _Blocks(values, rows, cols, valid)


def _lower_median(s: int) -> int:
    """Index of the lower median among ``s`` sorted values."""
    return (s - 1) // 2


def _center(arr: np.ndarray, norm: Norm):
    """Per-column center of a 2-D ``arr``: the mean under L2 (the sum over
    the count, as ``np.mean`` computes it), and under L1 the lower median,
    by selection: each column is copied into a contiguous lane and
    partitioned at :func:`_lower_median`, which puts there the element a
    sort puts there.  Only the sign of a zero median can differ, when -0.0
    and 0.0 tie there, and no deviation sees it: |x - 0.0| = |x - (-0.0)|."""
    if norm is Norm.L2:
        return arr.sum(axis=0) / arr.shape[0]
    mid = _lower_median(arr.shape[0])
    lanes = arr.T.copy()
    lanes.partition(mid, axis=1)
    return lanes[:, mid]


def _columns_spread(arr, norm: Norm):
    """Sum over the columns of a 2-D array of the within-column
    dissimilarity, the deviations of each column from its :func:`_center`;
    a multiset is one column.  :class:`_Blocks` is a stack of blocks, whose
    spreads come back as an array.  Under L1 a stack must be 0/1, and a
    column of s cells with o ones costs min(o, s - o) (:func:`_binary_l1`),
    counted exactly; under L2 its center is the sum of its s cells over s.
    Padding costs nothing, and a constant column costs exactly 0."""
    if isinstance(arr, _Blocks):
        values = arr.values
        if norm is Norm.L1:
            _require_binary(values)
            return _counted_l1(arr)
        center = values.sum(axis=1, keepdims=True) / arr.rows[:, :, None]
        dev = np.where(arr.valid & arr.varies(1), values - center, 0.0) ** 2
        return dev.sum(axis=(1, 2))
    if norm is Norm.L1:
        dev = np.abs(arr - _center(arr, norm))
    else:
        # a constant column must cost exactly 0; the computed mean of n equal
        # values can round off the value itself (e.g. three 0.1s)
        constant = (arr == arr[0]).all(axis=0)
        dev = (arr - _center(arr, norm)) ** 2
        if constant.any():
            dev[:, constant] = 0.0
    return float(dev.sum())


def _counted_l1(blocks: _Blocks) -> np.ndarray:
    """Per block, the summed L1 column spreads of a stack known to be 0/1."""
    return _binary_l1(blocks.values.sum(axis=1), blocks.rows).sum(axis=1)


@overflow_guard
def dissimilarity(values, norm: Norm) -> float:
    """Dissimilarity of a multiset of reals under the given norm.

    Zero iff all values are equal; raises on an empty multiset and on a
    non-finite value.
    """
    v = _as_floats(values).reshape(-1, 1)
    if v.size == 0:
        raise ValidationError("dissimilarity of an empty multiset is undefined")
    return _columns_spread(_require_finite(v), norm)


@overflow_guard
def pooled_cost(y, norm: Norm) -> float:
    """Dissimilarity of all entries of a block pooled into one multiset.

    This and the next two costs raise on a non-finite entry.  They also
    take a padded stack of blocks (:class:`_Blocks`), and then return the
    array of the B blocks' costs, in order; under L1 the stack must be 0/1
    valued."""
    arr = _values_of(y)
    if isinstance(arr, _Blocks):
        return _columns_spread(arr.pooled(), norm)
    return dissimilarity(arr.ravel(), norm)


@overflow_guard
def columnwise_cost(y, norm: Norm) -> float:
    """Sum of per-column dissimilarities of a block.

    This is the contribution the block's rows would make to the
    row-clustering objective if they formed a single cluster.
    """
    return _columns_spread(_values_of(y), norm)


@overflow_guard
def rowwise_cost(y, norm: Norm) -> float:
    """Sum of per-row dissimilarities of a block (transposed analogue)."""
    arr = _values_of(y)
    return _columns_spread(arr.transposed() if isinstance(arr, _Blocks) else arr.T, norm)


def _clusters_spread(vals: np.ndarray, part: Partition, norm: Norm) -> float:
    """Sum of :func:`_columns_spread` over the row clusters of ``vals``."""
    return sum(_columns_spread(vals[np.asarray(members)], norm) for members in part.clusters)


@overflow_guard
def oneway_row_cost(x: DataMatrix, rows: Partition, norm: Norm) -> float:
    """Row-clustering objective: for every row cluster and every column,
    the dissimilarity of that cluster's slice of the column, summed."""
    if rows.n_items != x.n_rows:
        raise ValidationError(
            f"row partition covers {rows.n_items} items, matrix has {x.n_rows} rows"
        )
    return _clusters_spread(x.values, rows, norm)


@overflow_guard
def oneway_col_cost(x: DataMatrix, cols: Partition, norm: Norm) -> float:
    """Column-clustering objective; symmetric to :func:`oneway_row_cost`."""
    if cols.n_items != x.n_cols:
        raise ValidationError(
            f"column partition covers {cols.n_items} items, matrix has {x.n_cols} columns"
        )
    return _clusters_spread(x.values.T, cols, norm)


@overflow_guard
def block_costs(x: DataMatrix, rows: Partition, cols: Partition, norm: Norm) -> np.ndarray:
    """Grid of per-block pooled costs of a (row partition, column
    partition) pair, indexed by (row cluster label, column cluster label)."""
    if rows.n_items != x.n_rows or cols.n_items != x.n_cols:
        raise ValidationError("partition lengths do not match matrix dimensions")
    vals = x.values
    col_groups = [np.asarray(g) for g in cols.clusters]
    grid = np.zeros((rows.n_clusters, len(col_groups)))
    for r, members in enumerate(rows.clusters):
        sub = vals[np.asarray(members), :]
        for c, cidx in enumerate(col_groups):
            grid[r, c] = _columns_spread(sub[:, cidx].reshape(-1, 1), norm)
    return grid


@overflow_guard
def biclustering_cost(
    x: DataMatrix, rows: Partition, cols: Partition, norm: Norm
) -> tuple[CostBreakdown, np.ndarray]:
    """Evaluate a (row partition, column partition) pair.

    Returns the cost breakdown and the :func:`block_costs` grid.
    """
    grid = block_costs(x, rows, cols, norm)
    breakdown = CostBreakdown(
        l_r=oneway_row_cost(x, rows, norm),
        l_c=oneway_col_cost(x, cols, norm),
        l=float(grid.sum()),
        norm=norm,
    )
    return breakdown, grid


# ---------------------------------------------------------------------------
# Batched costs for the exact solvers.

#: Tie tolerance of the exact solvers, relative to the cost of the whole
#: matrix as a single cluster (or block).  Exact costs within this much of
#: the minimum count as tied; the first tied partition in canonical order
#: wins.
TIE_RTOL = 1e-12

#: Memory budget, in float entries, of :class:`BatchCosts`' temporaries: of
#: all those of one chunk of a sum table's build together (:func:`_sum_table`),
#: and of each one of the median table's build and of the scoring.  It fixes
#: how many row groups a build takes at once and how many row partitions are
#: scored per batch, so memory beyond the table stays flat however many
#: partitions there are.
BATCH_ENTRIES = 1 << 15


class BatchCosts:
    """Costs of many row partitions at once, from a table of block costs.

    Partitions come as (P, t) int8 label blocks, one restricted growth
    string per row, as :func:`~crossclust.model.partition_blocks` yields
    them.  The cost of every (row group, column group) block that the
    partitions can use is computed once, into a table, and a block of row
    partitions is scored against every column partition by gathering
    entries and summing them: over the row partition's groups, then over
    the column partition's.  Every input class shares the table and the scoring; only
    the build of the entries differs (:func:`_sum_table`,
    :func:`_median_table`):

    * Under L2 a block costs S2 - S1^2/size, from the sums S1 of its
      entries and S2 of their squares, which are matrix products of the
      groups' membership rows with the data.  The data is centered first
      (per column for the one-way objective, as a whole for the
      biclustering cost), so large offsets cannot cancel (Chan, Golub &
      LeVeque, 1983).
    * Under L1 on 0/1 data a block costs min(S1, size - S1), the smaller
      of its ones and its zeros (:func:`_binary_l1`), from the same
      products.
    * Under L1 on real data a block's cost needs its median, which no sum
      gives.  Per (row-group size, column-group size) bucket, the entries
      of every block are copied into the last axis of one array, where
      they sit contiguous; each such lane is sorted in place, and its
      lower median (:func:`_lower_median`, as in :func:`_center`) and
      sum of absolute deviations are read along that axis.

    A group is keyed by its bitmask (item i is bit i), in integers.  With
    ``k == 1`` the one group holds item 0 and is keyed by that item alone,
    so a long axis needs no wide mask.  Key 0 is the empty group of a partition with fewer
    than ``k`` clusters; its entries are 0.  What depends only on the
    shape is built once and kept read-only: the groups' membership rows
    (:func:`_members`) and size buckets (:func:`_size_buckets`), per item
    count and whether there is one cluster, and the keys of every column
    partition (:func:`_label_keys`), per (m, k_c).

    With ``k_c``, the column partitions are those of
    ``label_table(m, k_c)``, an entry is a block's pooled cost, and the
    scores are biclustering costs.  Without ``k_c`` every column is its
    own group: the table has one column, a row group's per-column costs
    summed, and the scores are row-clustering objectives.  The table has
    a row per row key (2^n, or 2 when k == 1) and a column per column key
    (2^m, or 2 when k_c == 1).  At the default oracle cap of 8 that is at
    most 256 x 256 floats, about 0.5 MB; one more row and one more column
    make it 4x larger.  Beside the table, the temporaries of a sum table's
    build stay within ``BATCH_ENTRIES`` entries all together, chunk by
    chunk; those of the median table's build and of the scoring stay
    within that many each.

    ``scale`` is the cost of the whole matrix as one block (with ``k_c``)
    or as one cluster (without).  It is the unit of the tie tolerance,
    ``TIE_RTOL * scale``, and of ``err`` under L1 on real data.

    ``err`` bounds the difference of any batched cost from its direct
    evaluation, so where it is 0 the two are equal:

    * binary L1: 0, as both are exact integers.
    * L1 on real data: every cost is a sum of n*m deviations from data
      values, each rounded once, and the two differ only in the order of
      that sum.  So they are within n*m*eps times the cost, which is at
      most ``scale``; ``err`` is 4x that bound.
    * L2: an a-priori rounding bound of the sums, the squares and the
      subtraction, 4(nm+n+m+4)*eps times the centered data's sum of
      squares, plus the drift of the direct path, which does not center.
      There a group of s entries, each at most M in magnitude, has its mean
      rounded by delta <= s*u*M to first order (u = eps/2; a sum of s
      terms, then a division), and the computed cost exceeds the exact one
      by s*delta^2, since the cross term vanishes around the exact mean.
      That error does not scale with the cost.  The group sizes of one
      partition add up to n*m, so over its groups the drift is at most
      n*m*(s_max*u*M)^2, with s_max = n for the one-way objective's
      cluster-column slices and n*m for pooled blocks; ``err`` adds twice
      that.
    """

    def __init__(self, x: DataMatrix, norm: Norm, k: int, k_c: int | None = None):
        pooled = k_c is not None
        self.scale = pooled_cost(x, norm) if pooled else columnwise_cost(x, norm)
        v = x.values
        n, m = v.shape
        row_groups = _members(n, k == 1)
        if pooled:
            col_groups = _members(m, k_c == 1)
            # entry (c, p): the table column of cluster c of column partition p
            self._cols = _label_keys(m, k_c)
        else:
            col_groups = np.ones((1, m), dtype=bool)  # all columns, each apart
            self._cols = np.zeros((1, 1), dtype=np.intp)
        eps = np.finfo(float).eps
        if norm is Norm.L2:
            v = v - (v.mean() if pooled else v.mean(axis=0))
            self._table = _sum_table(v, row_groups, col_groups, pooled, l2=True)
            s_max = n * m if pooled else n
            drift = n * m * (s_max * eps * np.abs(x.values).max()) ** 2 / 2
            self.err = float(4.0 * (n * m + n + m + 4) * eps * (v * v).sum() + drift)
        elif x.is_binary:
            self._table = _sum_table(v, row_groups, col_groups, pooled, l2=False)
            self.err = 0.0
        else:
            if pooled:
                col_buckets = _size_buckets(m, k_c == 1)
            else:  # one bucket: the one group of all m columns
                col_buckets = ((m, np.zeros(1, dtype=np.intp), np.arange(m)[None]),)
            shape = (len(row_groups), len(col_groups))
            self._table = _median_table(v, _size_buckets(n, k == 1), col_buckets, shape, pooled)
            self.err = 4.0 * n * m * eps * self.scale
        self._k = k
        self._width = max(k * n, k * len(col_groups))

    def batch_size(self, cols=slice(None)) -> int:
        """Row partitions per call, crossed with the column partitions
        ``cols``, that keep every scoring temporary within ``BATCH_ENTRIES``
        entries."""
        n_cols = len(range(self._cols.shape[1])[cols]) if isinstance(cols, slice) else len(cols)
        return max(1, BATCH_ENTRIES // max(self._width, len(self._cols) * n_cols))

    def __call__(self, rows: np.ndarray, cols=slice(None)) -> np.ndarray:
        """Costs of every row partition of the (R, n) label block ``rows``,
        crossed with every column partition at the indices ``cols`` of the
        label table (all by default), as one flat array, rows outer."""
        # one gather and add per cluster, on each side: a sum over a short
        # axis would cost more time, and a gather of all clusters more memory
        keys = _group_keys(rows, self._k).T  # (k, R)
        per_col_group = self._table[keys[0]]  # (R, column groups)
        for keys_r in keys[1:]:
            per_col_group += self._table[keys_r]
        crossed = self._cols[:, cols] if isinstance(cols, slice) else self._cols.take(cols, axis=1)
        costs = per_col_group.take(crossed[0], axis=1)
        for keys_c in crossed[1:]:
            costs += per_col_group.take(keys_c, axis=1)
        return costs.ravel()


def _group_keys(labels: np.ndarray, k: int) -> np.ndarray:
    """(P, t) labels to the (P, k) keys of each partition's groups (see
    :class:`BatchCosts`); an empty group has key 0."""
    # one BLAS product per cluster; exact, as every key is an integer below 2^t
    weights = _item_keys(labels.shape[1], k).astype(float)
    keys = np.empty((len(labels), k), dtype=np.intp)
    for c in range(k):
        keys[:, c] = (labels == c) @ weights
    return keys


def _item_keys(t: int, k: int) -> np.ndarray:
    """What each of ``t`` items adds to its group's key (see :class:`BatchCosts`)."""
    return 1 << np.arange(t) if k > 1 else (np.arange(t) == 0).astype(np.intp)


@lru_cache(maxsize=32)
def _members(t: int, single: bool) -> np.ndarray:
    """Read-only (G, t) boolean membership rows of every group key of
    partitions of ``t`` items, into one cluster if ``single`` and into
    any number otherwise (see :class:`BatchCosts`), in key order."""
    keys = np.arange(2 if single else 1 << t)
    if single:
        members = np.repeat(keys[:, None] > 0, t, axis=1)
    else:
        members = (keys[:, None] >> np.arange(t)) & 1 == 1
    members.setflags(write=False)
    return members


@lru_cache(maxsize=32)
def _size_buckets(t: int, single: bool) -> tuple[tuple[int, np.ndarray, np.ndarray], ...]:
    """The groups of :func:`_members` per nonempty size s: s, the groups'
    indices and their (G_s, s) items.  Read-only."""
    members = _members(t, single)
    sizes = members.sum(axis=1)
    buckets = []
    for s in np.flatnonzero(np.bincount(sizes)[1:]) + 1:
        ids = np.flatnonzero(sizes == s)
        items = np.nonzero(members[ids])[1].reshape(-1, s)
        ids.setflags(write=False)
        items.setflags(write=False)
        buckets.append((int(s), ids, items))
    return tuple(buckets)


@lru_cache(maxsize=16)
def _label_keys(t: int, k: int) -> np.ndarray:
    """Read-only (k, P) keys of the groups of the P partitions of
    ``label_table(t, k)``, cluster-major; built once per (t, k)."""
    keys = np.ascontiguousarray(_group_keys(label_table(t, k), k).T)
    keys.setflags(write=False)
    return keys


def _sum_table(
    v: np.ndarray, row_groups: np.ndarray, col_groups: np.ndarray, pooled: bool, l2: bool
) -> np.ndarray:
    """L2 (``l2``, on centered ``v``) or 0/1 L1 cost of every (row group,
    column group) block of ``v``, groups given as boolean membership rows,
    from sums over the groups by matrix products.  A block of S1 = sum,
    S2 = sum of squares and size entries costs S2 - S1^2/size under L2 and
    min(S1, size - S1) under L1; an empty group's entries are 0.  Pooled,
    each block is one multiset; otherwise each column of a block costs
    that, and the costs are summed.  A (B, n, m) stack ``v`` gives B tables,
    as the products broadcast over it.

    Row groups, a power of two of them as :func:`_members` gives, are
    taken in chunks of a power of two, and each chunk's spread is computed in
    place, in its slice of the table, by the formula's operations in its
    order: every entry is the whole-table formula's to the bit.  A chunk
    works in buffers made once per build, for its float memberships, their
    sizes and two kinds of sums (stack included), which hold
    ``BATCH_ENTRIES`` entries all together, unless four row groups need
    more (pooled, from 13 columns on).  The float column memberships, their
    sizes and the squares of ``v`` are made once per build too, on top."""
    cols = col_groups.T.astype(float)  # (m, column groups)
    stack, (n, m) = v.shape[:-2], v.shape[-2:]
    width = cols.shape[1] if pooled else m  # of the sums the spread is taken of
    sq = v * v if l2 else None
    col_sizes = cols.sum(axis=0, keepdims=True) if pooled else None
    ones = np.ones((n, 1))  # a product with it counts a row group, faster than a sum
    # chunks a power of two long, like the group count, and four at least end
    # where BLAS's row blocks end, so each row rounds as in one whole product;
    # a one-row chunk would go through a vector kernel
    budget = BATCH_ENTRIES // (n + 1 + math.prod(stack) * (m + width))
    step = min(len(row_groups), 1 << max(2, budget.bit_length() - 1))
    # row groups outermost in memory: a chunk's slice of a stack's tables is
    # then contiguous, and numpy's in-place steps on it need no buffers
    table = np.empty((len(row_groups), *stack, cols.shape[1])).swapaxes(0, -2)
    rows, counts = np.empty((step, n)), np.empty((step, 1))
    line_sums = np.empty((step, *stack, m)).swapaxes(0, -2)
    block_sums = np.empty((step, *stack, width)).swapaxes(0, -2)
    for i in range(0, len(row_groups), step):
        np.copyto(rows, row_groups[i : i + step])
        out = table[..., i : i + step, :]
        s1 = np.matmul(rows, v, out=line_sums)
        np.matmul(rows, ones, out=counts)
        # the sizes fill a buffer of the spread's shape, so that no step below
        # broadcasts, which numpy buffers; pooled, as a column times a row
        if pooled:
            s1 = np.matmul(s1, cols, out=out)
            size = np.matmul(counts, col_sizes, out=block_sums)
        else:
            size = block_sums
            np.copyto(size, counts)
        if l2:
            s1 *= s1
            s1 /= np.maximum(size, 1.0, out=size)
            s2 = np.matmul(rows, sq, out=line_sums if pooled else block_sums)
            spread = np.subtract(np.matmul(s2, cols, out=block_sums) if pooled else s2, s1, out=s1)
        else:
            spread = np.minimum(s1, np.subtract(size, s1, out=size), out=s1)
        if not pooled:
            np.matmul(spread, cols, out=out)
    return table


def _binary_l1(ones, size):
    """L1 cost of a 0/1 multiset of ``size`` entries, ``ones`` of them
    ones: min(ones, size - ones).  Its lower median is its majority value
    (0 on a tie), so the cost counts the entries of the other value."""
    return np.minimum(ones, size - ones)


def _median_table(
    v: np.ndarray, row_buckets, col_buckets, shape: tuple[int, int], pooled: bool
) -> np.ndarray:
    """L1 cost of every (row group, column group) block of ``v``, into a
    table of ``shape``, groups given as in :func:`_size_buckets`;
    an empty group's entries are 0.  Pooled, each block is one multiset;
    otherwise each column of a block has its own median and the costs are
    summed.

    For each column-size bucket b, the data of the bucket's G_c groups is
    copied once, into a (G_c, n, b) array: each group's columns side by
    side, a row at a time.  Taking a row-size bucket's (G_r, a) items
    along the rows makes (G_c, G_r, a, b) lanes, each block's a*b entries
    last and contiguous.  Not pooled, the copy is (G_c, b, n) and the
    lanes (G_c, b, G_r, a): each of a block's columns is a lane.  Every
    lane is sorted in place; its lower median (:func:`_lower_median`) is
    read, and the absolute deviations from it are summed along the
    lane.  Copies and lanes are made in chunks of at most
    ``BATCH_ENTRIES`` entries."""
    n = v.shape[0]
    table = np.zeros(shape)
    for b, col_ids, col_items in col_buckets:
        col_step = max(1, BATCH_ENTRIES // (n * b))
        for j in range(0, len(col_ids), col_step):
            c = slice(j, j + col_step)
            groups = v[:, col_items[c]].transpose((1, 0, 2) if pooled else (1, 2, 0)).copy()
            for a, row_ids, row_items in row_buckets:
                row_step = max(1, BATCH_ENTRIES // (a * b * len(groups)))
                for i in range(0, len(row_ids), row_step):
                    r = slice(i, i + row_step)
                    if pooled:
                        lanes = groups.take(row_items[r], axis=1)
                        spread = _lanes_spread(lanes.reshape(*lanes.shape[:2], a * b))
                    else:
                        spread = _lanes_spread(groups.take(row_items[r], axis=2)).sum(axis=1)
                    table[row_ids[r, None], col_ids[c]] = spread.T
    return table


def _lanes_spread(lanes: np.ndarray) -> np.ndarray:
    """Sum of absolute deviations from the lower median along the last
    axis of ``lanes``, which it sorts and overwrites."""
    lanes.sort(axis=-1)
    lanes -= lanes[..., [_lower_median(lanes.shape[-1])]]
    return np.abs(lanes, out=lanes).sum(axis=-1)


class FirstMinimum:
    """The exact solvers' tie rule, applied online over batches of costs.

    The winner is the first item, in the order fed, whose exact cost is
    within ``tol`` of the least exact cost.  The costs fed may be
    approximate, within ``err`` of the exact ones; then every item within
    ``tol + 2 * err`` of the least approximate cost seen so far is
    re-scored by ``rescore``, and no other item can be within ``tol`` of
    the minimum.  With ``rescore=None`` the costs fed are taken as exact.
    :attr:`winner` is the winning item with its exact cost, so the solvers
    need not evaluate it again.
    """

    def __init__(self, tol: float, err: float = 0.0, rescore=None):
        self._tol = tol
        self._window = tol + 2.0 * err
        self._rescore = rescore
        self._low = float("inf")  # least cost fed
        self.best = float("inf")  # least exact cost seen
        self._kept: list[tuple[float, object]] = []  # items that may still win

    def feed(self, costs: np.ndarray, item) -> bool:
        """Take the next batch: its costs and ``item(i)``, the item of
        cost ``i``.  Returns True once the winner can no longer change."""
        self._low = min(self._low, float(costs.min()))
        for i in np.flatnonzero(costs <= self._low + self._window):
            it = item(int(i))
            cost = float(costs[i]) if self._rescore is None else self._rescore(it)
            if cost < self.best:
                self.best = cost
                self._kept = [(c, t) for c, t in self._kept if c <= cost + self._tol]
            if cost <= self.best + self._tol:
                self._kept.append((cost, it))
            # costs are never negative, so a first item within tol of 0 is final
            if self._kept and self._kept[0][0] <= self._tol:
                return True
        return False

    @property
    def winner(self) -> tuple[object, float]:
        if not self._kept or not math.isfinite(self._kept[0][0]):
            raise ValidationError("no finite cost: matrix entries too large")
        cost, item = self._kept[0]
        return item, cost


def _exact_search(
    x: DataMatrix, norm: Norm, k: int, k_c: int | None = None
) -> tuple[Partition, Partition | None, float]:
    """The exact solvers' search: the least-cost row partition into at
    most ``k`` clusters or, with ``k_c``, the least-cost (row partition,
    column partition) pair, the columns into at most ``k_c`` clusters.

    Every row partition is scored in the label blocks of
    :func:`partition_blocks`, canonical order, by :class:`BatchCosts`: on
    its own (the row-clustering objective) or against every column
    partition (the biclustering cost, columns inner).  A pair search whose
    row partitions do not all fit in one scoring batch is pruned first by
    the one-way bound, read off the same table (:func:`_bounded_pairs`);
    one that fits is cheaper to score whole.  Only candidates and the
    winner become :class:`Partition` objects.  :class:`FirstMinimum`
    applies the tie rule with tolerance ``TIE_RTOL`` times the scorer's
    ``scale``: candidates are re-scored directly, by
    :func:`oneway_row_cost` or :func:`block_costs`, unless the scorer is
    exact (``err`` 0, binary L1).  Returns the winning rows, the winning
    columns (None without ``k_c``) and the exact cost the winner won on.
    The callers check the cluster counts and the enumeration caps.
    """
    cols = None if k_c is None else label_table(x.n_cols, k_c)
    score = BatchCosts(x, norm, k, k_c)
    # ``item`` reads the block being fed and the indices of its column partitions
    if cols is None:
        def rescore(labels) -> float:
            return oneway_row_cost(x, Partition(labels, k), norm)

        def item(i: int):
            return tuple(block[i].tolist())
    else:
        def rescore(pair) -> float:
            return float(block_costs(x, Partition(pair[0], k), Partition(pair[1], k_c), norm).sum())

        def item(i: int):
            c = len(crossed)
            return tuple(block[i // c].tolist()), tuple(cols[crossed[i % c]].tolist())
    pick = FirstMinimum(TIE_RTOL * score.scale, score.err, rescore if score.err else None)
    if cols is not None and partition_count(x.n_rows, k) > score.batch_size():
        blocks = _bounded_pairs(x, k, k_c, score, pick)
    else:
        every = np.arange(1 if cols is None else len(cols))
        blocks = ((block, every) for block in partition_blocks(x.n_rows, k, score.batch_size()))
    for block, crossed in blocks:
        if pick.feed(score(block, crossed), item):
            break
    best, cost = pick.winner
    if cols is None:
        return Partition(best, k), None, cost
    return Partition(best[0], k), Partition(best[1], k_c), cost


def _bounded_pairs(
    x: DataMatrix, k: int, k_c: int, score: BatchCosts, pick: FirstMinimum
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The pair search of :func:`_exact_search`, pruned by the one-way
    bound: label blocks of the surviving row partitions, each with the
    indices of the surviving column partitions, in canonical order.

    A block's pooled cost is at least the sum of its per-column costs, so
    every pair satisfies L(R, C) >= L_R(R) and, by symmetry, L(R, C) >=
    L_C(C): the paper's L* >= max(L_R*, L_C*), pair by pair.  The bounds
    come from ``score``'s table (:func:`_oneway_bounds`).  The incumbent
    is the batched cost of the pair of least bounds plus ``score.err``:
    at least that pair's direct cost, so at least the least exact cost
    (the direct costs are the ones :class:`FirstMinimum` compares).
    Before each block, a partition is dropped when its bound, less
    ``2 * score.err``, is above ``min(incumbent, pick.best)`` plus the tie
    tolerance.  No pair holding it can then come within the tie window of
    the least exact cost, which is at most that, so winners, ties and
    costs do not change; the filter tightens as the best exact cost falls.

    The margin: the bound of R is the batched cost of R crossed with F,
    every column apart, within ``err`` of its direct cost (the derivation
    of :class:`BatchCosts` holds for any partition), and ``err`` again
    covers that direct cost rounding above its exact value and the pair's
    below its own; likewise for C.  No exact cost here is above the whole
    matrix's pooled cost, as splitting a group never raises it (u = eps/2):

    * binary L1: 0, as every direct cost is an exact integer.
    * L1 on real data: a center is a data value, so a direct cost is a sum
      of at most n*m deviations, each rounded once, and within n*m*u of
      the cost; the two together are within n*m*eps*scale, a quarter of
      ``err``.
    * L2: the exact mean minimizes a group's spread, so a rounded one only
      raises it, and the pair's cost is rounded down by at most (n*m + 2)*u
      relative, in the squares and the sums.  That of (R, F) is rounded up
      by as much plus its drift, at most n*m*(n*u*M)^2 over slices of at
      most n entries (see :class:`BatchCosts`).  ``err`` adds up 4*(n*m + n
      + m + 4)*eps times the centered sum of squares, which is the whole
      matrix's cost, and a drift over groups of up to n*m entries.
    """
    rows, cols = label_table(x.n_rows, k), label_table(x.n_cols, k_c)
    l_r, l_c = _oneway_bounds(x, k, k_c, score, rows)
    incumbent = float(score(rows[[l_r.argmin()]], [l_c.argmin()])[0]) + score.err
    margin = 2.0 * score.err + TIE_RTOL * score.scale
    left, crossed = np.arange(len(rows)), np.arange(len(cols))
    while True:
        limit = min(incumbent, pick.best) + margin
        left = left[l_r[left] <= limit]
        if not len(left):
            return
        crossed = crossed[l_c[crossed] <= limit]
        step = score.batch_size(crossed)
        yield rows[left[:step]], crossed
        left = left[step:]


def _oneway_bounds(
    x: DataMatrix, k: int, k_c: int, score: BatchCosts, rows: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The bounds of :func:`_bounded_pairs` from ``score``'s table T: of
    each row partition in ``rows``, T[g, {j}] summed over its groups g and
    the columns j; of each column partition ``score`` crosses, T[{i}, h]
    likewise.  With one cluster on the other axis that is the pair's cost."""
    t_r = score._table[:, _item_keys(x.n_cols, k_c)].sum(axis=1)
    t_c = score._table[_item_keys(x.n_rows, k)].sum(axis=0)
    step = max(1, BATCH_ENTRIES // (k * x.n_rows))
    l_r = [t_r[_group_keys(rows[i : i + step], k)].sum(axis=1) for i in range(0, len(rows), step)]
    return np.concatenate(l_r), t_c[score._cols].sum(axis=0)


def _lower_bound_costs(x: _Blocks, budgets, norm: Norm) -> np.ndarray:
    """(l*, l_r, l_c, one-block cost) of each block of the padded stack
    ``x`` (0/1 under L1) at its (k_r, k_c) in ``budgets``.  Centered on
    their grand means under L2, each chunk of blocks gets one
    :func:`_sum_table` over the groups of the stack's largest shape: T[g, h]
    costs the block of row and column bitmasks g and h (a key below 2^n
    holds no padding), and each cost is a least sum of T over groups' keys,
    as in :func:`_oneway_bounds`: exact for 0/1 L1, within
    ``BatchCosts.err`` of the direct costs for L2."""
    v = x.values
    cases = np.hstack([x.rows, x.cols, budgets]).tolist()  # n, m, k_r, k_c
    if norm is Norm.L2:  # padding sums as 0, and no key read below covers it
        v = v - v.sum(axis=(1, 2), keepdims=True) / (x.rows * x.cols)[:, :, None]
    row_groups, col_groups = _members(v.shape[1], False), _members(v.shape[2], False)
    step, costs = max(1, BATCH_ENTRIES // (len(row_groups) * len(col_groups))), []
    for i in range(0, len(v), step):
        tables = _sum_table(v[i : i + step], row_groups, col_groups, True, norm is Norm.L2)
        for table, (n, m, k_r, k_c) in zip(tables, cases[i : i + step]):
            # bitmask keys of the groups of label_table(t, k); the full mask for k = 1
            rows, cols = (_label_keys(t, k) if k > 1 else np.array([[(1 << t) - 1]])
                          for t, k in ((n, k_r), (m, k_c)))
            l_star = table[:, cols].sum(axis=1)[rows].sum(axis=0).min()
            l_r = table[:, 1 << np.arange(m)].sum(axis=1)[rows].sum(axis=0).min()
            l_c = table[1 << np.arange(n)].sum(axis=0)[cols].sum(axis=0).min()
            costs.append((l_star, l_r, l_c, table[(1 << n) - 1, (1 << m) - 1]))
    return np.array(costs)
