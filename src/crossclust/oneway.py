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

import numpy as np

from .cost import Norm, _center, _exact_search, oneway_row_cost
from .errors import CapExceededError, CrossclustError, ValidationError, overflow_guard
from .model import ENUMERATION_CAP, DataMatrix, Partition, _canonical_partition
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


@overflow_guard
def exact_kcluster(x: DataMatrix, k: int, norm: Norm) -> OnewaySolution:
    """Globally optimal row clustering into at most ``k`` clusters.

    ``k`` must be in [1, n_rows].  With k == 1 the single all-in-one
    partition is returned directly and no enumeration cap applies;
    otherwise n_rows must be <= 14, and :func:`~crossclust.cost._exact_search`
    walks every partition, scores it and applies the tie rule.  The
    solution holds the winning partition and the exact cost it won on.
    """
    n = x.n_rows
    if k < 1 or k > n:
        raise ValidationError(f"cluster count must be in [1, {n}], got {k}")
    if k == 1:  # one direct cost; a one-partition table takes about 4x as long
        part = Partition((0,) * n, 1)
        return OnewaySolution(part, oneway_row_cost(x, part, norm), SolverMode.exact())
    if n > ENUMERATION_CAP:
        raise CapExceededError(
            f"exact clustering capped at {ENUMERATION_CAP} rows, got {n}"
        )
    part, _, cost = _exact_search(x, norm, k)
    return OnewaySolution(part, cost, SolverMode.exact())


@overflow_guard
def lloyd_kcluster(
    x: DataMatrix, k: int, norm: Norm, restarts: int = 8, seed: int = 0
) -> OnewaySolution:
    """Best-of-restarts local optimum of the row-clustering objective.

    Each restart seeds centers with distance-weighted sampling (weights
    are distances under the active norm), then alternates nearest-center
    assignment and center recomputation (coordinate-wise lower median for
    L1, found by selection, mean for L2) until assignments stabilize or
    200 iterations pass.  The assignment step keeps one lower bound per
    (center, point) pair, center-major (Elkan, ICML 2003), and computes
    only the distances those bounds and the centers' spacing cannot rule
    out, with the rounding margin of :func:`_skip_margin`; the center step
    recomputes only the clusters whose members changed.  So the iterates,
    iteration counts and errors are those of plain Lloyd.  Deterministic
    for a fixed seed; restart r uses stream seed + r.
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
    """Distances (squared under L2) along the last axis, which ``points``
    and ``center`` broadcast over."""
    d = points - center  # the one temporary; both norms work on it in place
    if norm is Norm.L1:
        np.abs(d, out=d)
    else:
        d *= d
    return d.sum(axis=-1)


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
    * Each (point, center) pair keeps its own lower bound l.  It is set
      from that pair's computed distance (error gX) and then lowered at
      most T times by that center's computed shift (error gX), each
      subtraction rounding by at most eps(T + 1)2X, the largest magnitude
      a bound reaches.  So every bound errs by at most
      E = (T + 1)gX + 2T(T + 1)eps X, as a bound shared by all the other
      centers would.
    * The point's own distance u is the one computed when its center was
      last set, and the assignment step reuses that very value.  A skip
      of center c with u + M < max(l, s) then proves that the computed
      distance to c exceeds u, so ``argmin`` cannot pick c:
      - against l, the computed distance is at least l - E - gX, which
        takes M >= E + gX;
      - against s, half the computed distance between the own center and
        c (within gX of the true one), the triangle inequality puts the
        computed distance at or above 2s - u - 3gX, which takes
        M >= 1.5gX;
      plus 3 eps X for the rounding of u + M.

    The formula allows M >= 2 eps X ((T + 4)(m + 3) + (T + 1)^2 + 1),
    which is E + 3gX + 3 eps X or more and so covers both cases.  The
    return value is twice that, so that the rounding of X and of the
    product cannot bring it below.
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


def _unproven(upper, lower, half_gap, margin: float) -> np.ndarray:
    """Mask of the (center, point) pairs whose distance must be computed:
    those where upper + margin is not below max(lower, half_gap).  ``upper``
    holds one value per point, ``lower`` and ``half_gap`` one row per
    center.  A tie or a NaN bound counts as not proven."""
    return ~(upper + margin < np.maximum(lower, half_gap))


def _reassign(
    points: np.ndarray,
    centers: np.ndarray,
    assignment: np.ndarray,
    own: np.ndarray,
    lower: np.ndarray,
    margin: float,
    norm: Norm,
) -> np.ndarray:
    """Nearest-center assignment that computes only the distances the
    bounds cannot rule out, and sets ``lower`` from those it computes.

    ``own`` holds each point's distance to its own center, as
    :func:`_distances` gives it (inf when there is none yet).  ``lower`` is
    center-major, (k, n): row c bounds every point's distance to center c,
    so each center's test, and the points it picks, read one contiguous
    row.  A center that is not computed is provably farther than the own
    one, so the ``argmin`` over the own and the computed distances picks
    the center plain Lloyd picks, the lowest index on ties.  The k x k
    center gaps come from one broadcast, each with the bits of
    ``_distances(centers, centers[c])``; a center that picks every point
    reads ``points`` itself rather than a gathered copy."""
    n, k = points.shape[0], centers.shape[0]
    gaps = _distances(centers[:, None], centers, norm)
    np.fill_diagonal(gaps, np.inf)  # so the own center is computed only when own is inf
    half_gap = 0.5 * _metric(gaps, norm)
    todo = _unproven(_metric(own, norm), lower, half_gap.take(assignment, axis=1), margin)
    stale = np.flatnonzero(np.logical_or.reduce(todo))
    new_assignment = assignment.copy()
    if stale.size:
        todo = todo[:, stale]
        dist = np.full(todo.shape, np.inf)
        dist[assignment[stale], np.arange(stale.size)] = own[stale]
        for c in range(k):
            pick = np.flatnonzero(todo[c])
            if pick.size:
                idx = stale[pick]
                rows = points if idx.size == n else points.take(idx, axis=0)
                d = _distances(rows, centers[c], norm)
                dist[c, pick] = d
                lower[c, idx] = _metric(d, norm)
        new_assignment[stale] = dist.argmin(axis=0)  # lowest index on ties
    return new_assignment


def _lloyd_once(points: np.ndarray, k: int, norm: Norm, seed: int) -> tuple[Partition, int]:
    """One Lloyd restart with Elkan's per-center bounds (ICML 2003): a
    (point, center) distance is computed only when the triangle
    inequality cannot prove that center farther than the point's own, so
    the iterates are those of plain Lloyd.

    Only the clusters whose members changed are recomputed: a point moved
    in or out, by the assignment step or by :func:`_repair_empty_clusters`.
    Each gathers its members once, in index order, which give its new
    center and their own distances to it; the objective sums those, and
    the next assignment step reuses them.  A cluster whose members did not
    change keeps its center, their distances and its objective term, which
    recomputing would give again bit for bit (the same rows in the same
    order), and its shift is 0, so its bounds stay."""
    n = points.shape[0]
    rng = SplitMix64(seed)
    centers = _seed_centers(points, k, norm, rng)
    assignment = np.zeros(n, dtype=int)
    margin = _skip_margin(points, norm)
    # own: the distance to the own center, as _distances gives it; lower: a
    # metric bound on the distance to each center, one row per center.  inf
    # and -inf force a computation.  terms: each cluster's objective term.
    own = np.full(n, np.inf)
    lower = np.full((k, n), -np.inf)
    terms = np.zeros(k)
    changed = np.ones(k, dtype=bool)  # the seeds are no cluster's center yet
    prev_objective = float("inf")
    iterations = 0
    for iterations in range(1, LLOYD_MAX_ITERATIONS + 1):
        new_assignment = _reassign(points, centers, assignment, own, lower, margin, norm)
        _repair_empty_clusters(points, new_assignment, centers, k, norm)
        moved = np.flatnonzero(new_assignment != assignment)
        if iterations > 1:
            changed[:] = False
            changed[assignment[moved]] = changed[new_assignment[moved]] = True
        old = centers.copy()
        for c in np.flatnonzero(changed):
            members = np.flatnonzero(new_assignment == c)
            terms[c] = 0.0
            if members.size:  # else keep the stale center; repair may repopulate later
                rows = points.take(members, axis=0)
                centers[c] = _center(rows, norm)
                d = _distances(rows, centers[c], norm)
                own[members] = d
                terms[c] = d.sum()
        # each row by its center's shift, 0 for a kept cluster
        lower -= _metric(_distances(centers, old, norm), norm)[:, None]
        objective = float(sum(terms))
        # Both steps can only lower the objective; a rise means a bug.
        if objective > prev_objective + 1e-9:
            raise CrossclustError(
                f"internal error: clustering objective rose from {prev_objective} to {objective}"
            )
        prev_objective = objective
        assignment = new_assignment
        if not moved.size and iterations > 1:
            break
    return _canonical_partition(assignment, k), iterations


def _repair_empty_clusters(
    points: np.ndarray, assignment: np.ndarray, centers: np.ndarray, k: int, norm: Norm
) -> list[int]:
    """Reseed each empty cluster with the point farthest from its own
    current center, stealing only from clusters with >= 2 members.
    Returns the indexes of the points moved.

    The sizes are counted once and kept up to date as points move, and
    the own distances are computed once: the only point whose own center
    changes is the one moved, and it is then alone in its cluster, so
    barred from moving again."""
    counts = np.bincount(assignment, minlength=k)
    empty = np.flatnonzero(counts == 0)
    moved = []
    if not empty.size:
        return moved
    own_dist = _distances(points, centers[assignment], norm)
    for c in empty:
        own_dist[counts[assignment] < 2] = -1.0
        far = int(own_dist.argmax())
        if own_dist[far] <= 0.0:
            break  # nothing gains from splitting; leave this and later clusters empty
        counts[assignment[far]] -= 1
        counts[c] = 1
        assignment[far] = c
        moved.append(far)
    return moved
