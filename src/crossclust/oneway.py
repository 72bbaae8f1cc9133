"""One-way clustering solvers.

Two modes: an exact solver that exhausts all canonical partitions (the
objective's optimal representatives are determined by the partition, so
partition space is the correct finite search space), and a best-of-restarts
Lloyd-style heuristic for inputs beyond the enumeration cap.

Solvers cluster rows; use :func:`kcluster_cols` to cluster columns via the
transpose.  Partitions may use fewer than ``k`` clusters: the objective is
monotone non-increasing in the number of clusters, so optimizing over "at
most k" reaches the same optimum without empty-cluster bookkeeping.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

import numpy as np

from .cost import (
    TIE_RTOL,
    BatchCosts,
    FirstMinimum,
    Norm,
    _center,
    columnwise_cost,
    oneway_row_cost,
)
from .errors import CapExceededError, CrossclustError, ValidationError
from .model import ENUMERATION_CAP, DataMatrix, Partition, enumerate_partitions
from .rng import MASK64, SplitMix64

LLOYD_MAX_ITERATIONS = 200


@dataclass(frozen=True)
class SolverMode:
    """Exact enumeration, or seeded multi-restart heuristic."""

    kind: str
    restarts: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ("exact", "heuristic"):
            raise ValidationError(f"unknown solver mode {self.kind!r}")
        if self.restarts < 1:
            raise ValidationError("heuristic mode needs restarts >= 1")

    @classmethod
    def exact(cls) -> "SolverMode":
        return cls("exact")

    @classmethod
    def heuristic(cls, restarts: int = 8, seed: int = 0) -> "SolverMode":
        return cls("heuristic", restarts=restarts, seed=seed)

    @property
    def is_exact(self) -> bool:
        return self.kind == "exact"


@dataclass(frozen=True, eq=False)
class OnewaySolution:
    partition: Partition
    cost: float
    mode: SolverMode
    iterations: int = 0


def exact_kcluster(x: DataMatrix, k: int, norm: Norm) -> OnewaySolution:
    """Globally optimal row clustering into at most ``k`` clusters.

    Every partition from :func:`enumerate_partitions` is scored, in
    batches from :class:`BatchCosts`, one table of block costs for every
    input class (one float per row group, at most 2^14).  Exact costs
    decide: batched scores within ``TIE_RTOL`` times the one-cluster cost,
    plus twice the scorer's error bound, of the least one are re-scored
    directly with :func:`oneway_row_cost`; a scorer whose bound is 0
    (binary L1, whose scores are exact integers) needs no re-scoring.
    Costs within ``TIE_RTOL`` times the one-cluster cost of the minimum
    count as tied, and the first tied partition in canonical enumeration
    order wins.  The reported cost is the direct evaluation of the winner.

    With k == 1 the single all-in-one partition is returned directly and
    no enumeration cap applies; otherwise n_rows must be <= 14.
    """
    n = x.n_rows
    if k < 1 or k > n:
        raise ValidationError(f"cluster count must be in [1, {n}], got {k}")
    if k == 1:
        part = Partition((0,) * n, 1)
        return OnewaySolution(part, oneway_row_cost(x, part, norm), SolverMode.exact())
    if n > ENUMERATION_CAP:
        raise CapExceededError(
            f"exact clustering capped at {ENUMERATION_CAP} rows, got {n}"
        )
    tol = TIE_RTOL * columnwise_cost(x, norm)
    score = BatchCosts(x, norm, k)
    rescore = (lambda p: oneway_row_cost(x, p, norm)) if score.err else None
    pick = FirstMinimum(tol, score.err, rescore)
    parts = enumerate_partitions(n, k)
    while batch := list(islice(parts, score.batch_size)):
        if pick.feed(score(batch), batch.__getitem__):
            break
    best = Partition(pick.winner.assignment, k)  # validated, unlike the walk's
    return OnewaySolution(best, oneway_row_cost(x, best, norm), SolverMode.exact())


def lloyd_kcluster(
    x: DataMatrix, k: int, norm: Norm, restarts: int = 8, seed: int = 0
) -> OnewaySolution:
    """Best-of-restarts local optimum of the row-clustering objective.

    Each restart seeds centers with distance-weighted sampling (weights
    are distances under the active norm), then alternates nearest-center
    assignment and center recomputation (coordinate-wise lower median for
    L1, mean for L2) until assignments stabilize or 200 iterations pass.
    The assignment step recomputes only the points whose nearest center
    is not proven unchanged by Hamerly's bounds (see :func:`_skip_margin`),
    so the iterates are those of plain Lloyd.  Deterministic for a fixed
    seed; restart r uses stream seed + r.
    """
    n = x.n_rows
    if k < 1 or k > n:
        raise ValidationError(f"cluster count must be in [1, {n}], got {k}")
    if restarts < 1:
        raise ValidationError("restarts must be >= 1")
    best: tuple[float, Partition, int] | None = None
    for r in range(restarts):
        part, iters = _lloyd_once(x.values, k, norm, (seed + r) & MASK64)
        c = oneway_row_cost(x, part, norm)
        if best is None or c < best[0]:
            best = (c, part, iters)
    cost, part, iters = best
    mode = SolverMode.heuristic(restarts=restarts, seed=seed)
    return OnewaySolution(part, cost, mode, iterations=iters)


def kcluster_rows(x: DataMatrix, k: int, norm: Norm, mode: SolverMode) -> OnewaySolution:
    if mode.is_exact:
        return exact_kcluster(x, k, norm)
    return lloyd_kcluster(x, k, norm, restarts=mode.restarts, seed=mode.seed)


def kcluster_cols(x: DataMatrix, k: int, norm: Norm, mode: SolverMode) -> OnewaySolution:
    """Cluster columns: exactly the row solver applied to the transpose."""
    return kcluster_rows(x.transpose(), k, norm, mode)


def _distances(points: np.ndarray, center: np.ndarray, norm: Norm) -> np.ndarray:
    if norm is Norm.L1:
        return np.abs(points - center).sum(axis=1)
    return ((points - center) ** 2).sum(axis=1)


def _seed_centers(points: np.ndarray, k: int, norm: Norm, rng: SplitMix64) -> np.ndarray:
    n = points.shape[0]
    chosen = [rng.randint_below(n)]
    dists = _distances(points, points[chosen[0]], norm)
    while len(chosen) < k:
        total = float(dists.sum())
        if total <= 0.0:
            idx = rng.randint_below(n)
        else:
            target = rng.random() * total
            cum = np.cumsum(dists)
            idx = int(np.searchsorted(cum, target, side="right"))
            idx = min(idx, n - 1)
        chosen.append(idx)
        dists = np.minimum(dists, _distances(points, points[idx], norm))
    return points[np.asarray(chosen)].copy()


def _centers_from_assignment(
    points: np.ndarray, assignment: np.ndarray, k: int, old: np.ndarray, norm: Norm
) -> np.ndarray:
    centers = old.copy()
    for c in range(k):
        members = points[assignment == c]
        if members.shape[0]:  # else keep the stale center; repair may repopulate later
            centers[c] = _center(members, norm)
    return centers


def _skip_margin(points: np.ndarray, norm: Norm) -> float:
    """Slack of the bounded assignment's skip test, in distance units.

    Derivation.  Let eps = 2**-53, m the number of columns, T =
    LLOYD_MAX_ITERATIONS and g = 2(m + 3)eps.  Distances are in metric
    form: the L1 distance, or the square root of the squared distance.

    * A computed distance is within a factor 1 +- g of the exact distance
      between the same two float vectors: each term is one rounded
      subtraction (and, under L2, one rounded square), a sum of m
      nonnegative terms errs by at most (m - 1)eps relative, and the
      square root adds one rounding.  The square root is correctly
      rounded and so monotone, so ordering the rooted values orders the
      squared ones that ``argmin`` compares.
    * Every point and every center lies in the data's bounding box,
      widened under L2 by a mean's summation error, 2n eps times the
      column's largest magnitude (an L1 center is a data value).  X, the
      box's diameter, bounds every distance, so each computed distance
      errs by at most gX in absolute terms, however far the data sits
      from the origin and however close two of its points are.
    * A lower bound is set from computed distances (error gX) and then
      lowered at most T times by a computed largest shift (error gX),
      each subtraction rounding by at most eps(T + 1)2X, the largest
      magnitude a bound reaches.  So it errs by at most
      E = (T + 1)gX + 2T(T + 1)eps X.
    * A skip with u + M < max(l, s) then proves that the computed
      distance to every other center exceeds the computed distance to
      the point's own center: it takes M >= E + 3gX against l, and
      M >= 2.5gX against s (half the computed distance to the nearest
      other center, itself within gX), plus 3 eps X for the rounding of
      u + M.

    Together M >= 2 eps X ((T + 4)(m + 3) + (T + 1)^2 + 1).  The return
    value is twice that, so that the rounding of X and of the product
    cannot bring it below.
    """
    eps = np.finfo(float).eps / 2
    n, m = points.shape
    t = LLOYD_MAX_ITERATIONS
    lo, hi = points.min(axis=0), points.max(axis=0)
    width = hi - lo
    if norm is Norm.L1:
        diameter = float(width.sum())
    else:
        width += 4 * n * eps * np.maximum(np.abs(lo), np.abs(hi))
        diameter = float(np.sqrt((width**2).sum()))
    return 4 * eps * diameter * ((t + 4) * (m + 3) + (t + 1) ** 2 + 1)


def _metric(dist: np.ndarray, norm: Norm) -> np.ndarray:
    """``_distances`` values as a metric: the root of the L2 ones, which
    are squared distances."""
    return dist if norm is Norm.L1 else np.sqrt(dist)


def _stale(upper, lower, half_gap, margin: float) -> np.ndarray:
    """Indexes of the points whose own center is not provably the nearest:
    those where upper + margin is not below max(lower, half_gap).  A tie
    or a NaN bound counts as not proven."""
    return np.flatnonzero(~(upper + margin < np.maximum(lower, half_gap)))


def _lloyd_once(points: np.ndarray, k: int, norm: Norm, seed: int) -> tuple[Partition, int]:
    """One Lloyd restart with Hamerly's bounds (SDM 2010): a point is
    re-assigned only when its own center is not provably still the
    nearest, so the iterates are those of plain Lloyd."""
    n = points.shape[0]
    rng = SplitMix64(seed)
    centers = _seed_centers(points, k, norm, rng)
    assignment = np.zeros(n, dtype=int)
    margin = _skip_margin(points, norm)
    # upper: distance to the own center; lower: a bound on the distance to
    # every other center.  Both are in metric form; +-inf forces a recompute.
    upper = np.full(n, np.inf)
    lower = np.full(n, -np.inf)
    prev_objective = float("inf")
    iterations = 0
    for iterations in range(1, LLOYD_MAX_ITERATIONS + 1):
        gaps = np.stack([_distances(centers, centers[c], norm) for c in range(k)])
        np.fill_diagonal(gaps, np.inf)
        half_gap = 0.5 * _metric(gaps.min(axis=1), norm)
        stale = _stale(upper, lower, half_gap[assignment], margin)
        new_assignment = assignment.copy()
        if stale.size:
            rows = points[stale]
            dist = np.stack([_distances(rows, centers[c], norm) for c in range(k)], axis=1)
            new_assignment[stale] = dist.argmin(axis=1)  # lowest index on ties
            if k > 1:  # with one center, half_gap is inf and proves every skip
                lower[stale] = _metric(np.partition(dist, 1, axis=1)[:, 1], norm)
        moved = _repair_empty_clusters(points, new_assignment, centers, k, norm)
        lower[moved] = -np.inf
        old = centers
        centers = _centers_from_assignment(points, new_assignment, k, centers, norm)
        lower -= _metric(_distances(centers, old, norm), norm).max()
        parts = []
        for c in range(k):
            members = new_assignment == c
            if members.any():
                own = _distances(points[members], centers[c], norm)
                upper[members] = own
                parts.append(own.sum())
        upper = _metric(upper, norm)
        objective = float(sum(parts))
        # Both steps can only lower the objective; a rise means a bug.
        if objective > prev_objective + 1e-9:
            raise CrossclustError(
                f"internal error: clustering objective rose from {prev_objective} to {objective}"
            )
        prev_objective = objective
        if np.array_equal(new_assignment, assignment) and iterations > 1:
            assignment = new_assignment
            break
        assignment = new_assignment
    return Partition.from_labels(assignment.tolist(), k=k), iterations


def _repair_empty_clusters(
    points: np.ndarray, assignment: np.ndarray, centers: np.ndarray, k: int, norm: Norm
) -> list[int]:
    """Reseed each empty cluster with the point farthest from its own
    current center, stealing only from clusters with >= 2 members.
    Returns the indexes of the points moved."""
    moved = []
    for c in range(k):
        if np.any(assignment == c):
            continue
        counts = np.bincount(assignment, minlength=k)
        own_dist = _distances(points, centers[assignment], norm)
        own_dist[counts[assignment] < 2] = -1.0
        far = int(own_dist.argmax())
        if own_dist[far] <= 0.0:
            continue  # nothing gains from splitting; leave the cluster empty
        assignment[far] = c
        moved.append(far)
    return moved
