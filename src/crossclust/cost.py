"""Cost functionals for clusterings and biclusterings.

Two deviation measures are supported: under ``Norm.L1`` the dissimilarity
of a multiset is the sum of absolute deviations from its lower median,
under ``Norm.L2`` it is the sum of squared deviations from its mean.
For an even-sized multiset every point of the closed median interval
gives the same absolute-deviation sum; fixing the lower median just makes
outputs deterministic.

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

import numpy as np

from .errors import ValidationError
from .model import Bicluster, DataMatrix, Partition

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


def _values_of(y) -> np.ndarray:
    """Accept a Bicluster, DataMatrix or array-like and return a 2-D array."""
    if isinstance(y, Bicluster):
        return y.values
    if isinstance(y, DataMatrix):
        return y.values
    arr = np.asarray(y, dtype=float)
    if arr.ndim != 2 or arr.size == 0:
        raise ValidationError("expected a nonempty 2-D block of values")
    return arr


def dissimilarity(values, norm: Norm) -> float:
    """Dissimilarity of a multiset of reals under the given norm.

    Zero iff all values are equal; raises on an empty multiset.
    """
    v = np.asarray(values, dtype=float).ravel()
    if v.size == 0:
        raise ValidationError("dissimilarity of an empty multiset is undefined")
    if norm is Norm.L1:
        med = np.sort(v)[(v.size - 1) // 2]
        return float(np.abs(v - med).sum())
    # a constant multiset must cost exactly 0; the computed mean of n
    # equal values can round off the value itself (e.g. three 0.1s)
    if v.min() == v.max():
        return 0.0
    return float(((v - v.mean()) ** 2).sum())


def pooled_cost(y, norm: Norm) -> float:
    """Dissimilarity of all entries of a block pooled into one multiset."""
    return dissimilarity(_values_of(y).ravel(), norm)


def _columns_spread(arr: np.ndarray, norm: Norm) -> float:
    """Sum over columns of the within-column dissimilarity."""
    if norm is Norm.L1:
        med = np.sort(arr, axis=0)[(arr.shape[0] - 1) // 2, :]
        return float(np.abs(arr - med).sum())
    dev = (arr - arr.mean(axis=0)) ** 2
    constant = arr.min(axis=0) == arr.max(axis=0)
    if constant.any():
        dev[:, constant] = 0.0  # same rounding concern as in dissimilarity
    return float(dev.sum())


def columnwise_cost(y, norm: Norm) -> float:
    """Sum of per-column dissimilarities of a block.

    This is the contribution the block's rows would make to the
    row-clustering objective if they formed a single cluster.
    """
    return _columns_spread(_values_of(y), norm)


def rowwise_cost(y, norm: Norm) -> float:
    """Sum of per-row dissimilarities of a block (transposed analogue)."""
    return _columns_spread(_values_of(y).T, norm)


def oneway_row_cost(x: DataMatrix, rows: Partition, norm: Norm) -> float:
    """Row-clustering objective: for every row cluster and every column,
    the dissimilarity of that cluster's slice of the column, summed."""
    if rows.n_items != x.n_rows:
        raise ValidationError(
            f"row partition covers {rows.n_items} items, matrix has {x.n_rows} rows"
        )
    vals = x.values
    total = 0.0
    for members in rows.clusters:
        total += _columns_spread(vals[np.asarray(members), :], norm)
    return total


def oneway_col_cost(x: DataMatrix, cols: Partition, norm: Norm) -> float:
    """Column-clustering objective; symmetric to :func:`oneway_row_cost`."""
    if cols.n_items != x.n_cols:
        raise ValidationError(
            f"column partition covers {cols.n_items} items, matrix has {x.n_cols} columns"
        )
    vals = x.values
    total = 0.0
    for members in cols.clusters:
        total += _columns_spread(vals[:, np.asarray(members)].T, norm)
    return total


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
            grid[r, c] = dissimilarity(sub[:, cidx], norm)
    return grid


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

#: Entries per temporary array of :class:`BatchCosts`; it fixes how many
#: row partitions are scored per batch, so memory stays flat however many
#: partitions there are.
BATCH_ENTRIES = 1 << 15

#: Partitions per batch where every partition is scored directly.
DIRECT_BATCH = 256


def _label_table(parts: list[Partition]) -> np.ndarray:
    """The assignments of equally long partitions as a (P, t) int8 table."""
    flat = b"".join(bytes(p.assignment) for p in parts)
    return np.frombuffer(flat, dtype=np.int8).reshape(len(parts), -1)


class BatchCosts:
    """Costs of many row partitions at once, from per-group sums.

    The cost of a group of entries follows from its size and its sum for
    the two certified input classes, and the sums come from one-hot
    indicators by matrix products: ``ind @ v`` per row cluster and column,
    then ``@ stack`` against the indicators of every column partition at
    once.

    * Under L2 a group costs sum(x^2) - sum^2/size.  The data is centered
      first (per column for the one-way objective, as a whole for the
      biclustering cost), so large offsets cannot cancel (Chan, Golub &
      LeVeque, 1983).  sum(x^2) over all groups is the constant total, and
      the indicators are scaled by 1/sqrt(size) so that sum^2/size is one
      square.
    * Under L1 on 0/1 data a group costs min(ones, size - ones).  With the
      data recoded to -1/+1 a group's sum is ones - zeros, so the total is
      (entries - sum of |group sums|) / 2, an exact integer.

    Row partitions have at most ``k`` clusters.  Without ``cols`` the cost
    is the row-clustering objective; with ``cols`` it is the biclustering
    cost of every (row partition, column partition) pair, rows outer and
    columns inner.  ``err`` bounds the difference of any batched cost from
    its direct evaluation; it is 0 on binary L1 input.  ``batch_size`` row
    partitions keep every temporary within ``BATCH_ENTRIES`` entries.
    """

    def __init__(
        self, x: DataMatrix, norm: Norm, k: int, cols: list[Partition] | None = None
    ):
        if not (norm is Norm.L2 or x.is_binary):
            raise ValidationError("batched costs need the L2 norm or binary input")
        v = x.values
        n, m = v.shape
        self._l2 = norm is Norm.L2
        if self._l2:
            v = v - (v.mean(axis=0) if cols is None else v.mean())
            self._total = float((v * v).sum())
            # a priori rounding bound of the sums, the squares and the
            # subtraction (dot-product error bounds), with a safety factor
            self.err = 4.0 * (n * m + n + m + 4) * np.finfo(float).eps * self._total
        else:
            v = 2.0 * v - 1.0
            self._total = float(n * m)
            self.err = 0.0
        self._v = v
        self._k = k
        if cols is None:
            self._stack = None
            self._parts = 1  # every column is its own group
            width = max(n, m)
        else:
            # column (c, p) of the stack: cluster c of column partition p
            k_c = max(p.n_clusters for p in cols)
            stack = _one_hot(_label_table(cols), k_c).transpose(2, 1, 0).reshape(m, -1)
            self._stack = _scaled(stack, axis=0) if self._l2 else stack
            self._parts = len(cols)
            width = max(n, stack.shape[1])
        self.batch_size = max(1, BATCH_ENTRIES // (k * width))

    def __call__(self, rows: list[Partition]) -> np.ndarray:
        """Costs of every row partition (crossed with every column
        partition) as one flat array in canonical order."""
        ind = _one_hot(_label_table(rows), self._k)  # (R, k, n)
        if self._l2:
            ind = _scaled(ind, axis=2)
        r = ind.shape[0]
        sums = ind.reshape(r * self._k, -1) @ self._v
        if self._stack is not None:
            sums = sums @ self._stack
        sums = sums.reshape(r, -1, self._parts)
        if self._l2:
            return self._total - (sums * sums).sum(axis=1).ravel()
        return (self._total - np.abs(sums).sum(axis=1).ravel()) / 2.0


def _one_hot(labels: np.ndarray, k: int) -> np.ndarray:
    """(P, t) labels to (P, k, t) 0/1 float indicators."""
    return (labels[:, None, :] == np.arange(k, dtype=labels.dtype)[:, None]).astype(float)


def _scaled(ind: np.ndarray, axis: int) -> np.ndarray:
    """Indicators divided by the square root of their group's size."""
    return ind / np.sqrt(np.maximum(ind.sum(axis=axis, keepdims=True), 1.0))


class FirstMinimum:
    """The exact solvers' tie rule, applied online over batches of costs.

    The winner is the first item, in the order fed, whose exact cost is
    within ``tol`` of the least exact cost.  The costs fed may be
    approximate, within ``err`` of the exact ones; then every item within
    ``tol + 2 * err`` of the least approximate cost seen so far is
    re-scored by ``rescore``, and no other item can be within ``tol`` of
    the minimum.  With ``rescore=None`` the costs fed are taken as exact.
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
    def winner(self):
        if not self._kept:
            raise ValidationError("no finite cost: matrix entries too large to square")
        return self._kept[0][1]
