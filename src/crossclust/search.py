"""The independent-clustering scheme and the brute-force biclustering oracle.

The scheme clusters rows and columns independently (no alternation) and
crosses the two partitions.  The oracle enumerates row and column
partitions jointly and returns the global minimum of the biclustering
cost, which is the reference value for ratio certification.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Iterator

import numpy as np

from .cost import (
    TIE_RTOL,
    BatchCosts,
    CostBreakdown,
    FirstMinimum,
    Norm,
    biclustering_cost,
    block_costs,
    certificate_bound,
    oneway_row_cost,
    pooled_cost,
)
from .errors import BoundViolationError, CapExceededError, ValidationError
from .model import (
    ENUMERATION_CAP,
    Biclustering,
    DataMatrix,
    Partition,
    enumerate_partitions,
)
from .oneway import SolverMode, kcluster_cols, kcluster_rows

#: Default per-axis size caps for the joint oracle enumeration.  The joint
#: space is a product of Bell-sized spaces, so the default is deliberately
#: small; callers may raise the caps explicitly (up to the hard cap of 14).
DEFAULT_ORACLE_CAP = 8

ZERO_COST_EPS = 1e-12
RATIO_SLACK = 1e-9


@dataclass(frozen=True, eq=False)
class SchemeResult:
    """Outcome of the independent row/column clustering scheme."""

    biclustering: Biclustering
    breakdown: CostBreakdown
    mode: SolverMode


@dataclass(frozen=True, eq=False)
class OptimalBiclustering:
    """Globally optimal simultaneous row/column partition pair."""

    rows: Partition
    cols: Partition
    cost: float


@dataclass(frozen=True)
class RatioReport:
    """Scheme cost vs. oracle cost, with the certificate if one applies."""

    l_r: float
    l_c: float
    l: float
    l_star: float
    ratio: float
    alpha_bound: float | None
    certified: bool | None
    norm: Norm
    dims: tuple[int, int]
    k_r: int
    k_c: int
    seed: int | None = None


def run_scheme(
    x: DataMatrix, k_r: int, k_c: int, norm: Norm, mode: SolverMode
) -> SchemeResult:
    """Cluster rows and columns independently and evaluate the crossing."""
    rows_sol = kcluster_rows(x, k_r, norm, mode)
    cols_sol = kcluster_cols(x, k_c, norm, mode)
    breakdown, grid = biclustering_cost(x, rows_sol.partition, cols_sol.partition, norm)
    bic = Biclustering(rows_sol.partition, cols_sol.partition, grid)
    return SchemeResult(bic, breakdown, mode)


def _axis_partitions(t: int, k: int, cap: int, axis: str) -> Iterator[Partition]:
    """Partitions of one axis for the oracle.  k == 1 is trivial (a single
    all-in-one partition) and is exempt from every size cap."""
    if k < 1 or k > t:
        raise ValidationError(f"{axis} cluster count must be in [1, {t}], got {k}")
    if k == 1:
        return iter([Partition((0,) * t, 1)])
    if t > min(cap, ENUMERATION_CAP):
        raise CapExceededError(
            f"oracle enumeration over {axis}s capped at {min(cap, ENUMERATION_CAP)}, got {t}"
        )
    return enumerate_partitions(t, k)


def exact_biclustering(
    x: DataMatrix,
    k_r: int,
    k_c: int,
    norm: Norm,
    row_cap: int = DEFAULT_ORACLE_CAP,
    col_cap: int = DEFAULT_ORACLE_CAP,
) -> OptimalBiclustering:
    """Global minimum of the biclustering cost over all row partitions
    into at most ``k_r`` clusters crossed with all column partitions into
    at most ``k_c`` clusters.

    Every pair is scored, in nested canonical enumeration order (rows
    outer, columns inner).  Under L2 and under L1 on 0/1 input the scores
    of a batch of row partitions against all column partitions come from
    :class:`BatchCosts`.  Exact costs decide: pairs whose batched score is
    within ``TIE_RTOL`` times the one-block cost, plus twice the
    kernel's rounding bound, of the least one are re-scored directly (binary L1
    scores are exact integers and need no re-scoring).  L1 on real data
    sums the direct block costs of every pair, skipping a row partition
    whose one-way cost (a lower bound on any crossing that uses it) is
    already above the best pair.  Costs within ``TIE_RTOL`` times the
    one-block cost of the minimum count as tied, and the first tied pair
    wins.  The reported cost is the direct evaluation of the winner.
    """
    col_parts = list(_axis_partitions(x.n_cols, k_c, col_cap, "column"))
    row_parts = _axis_partitions(x.n_rows, k_r, row_cap, "row")
    tol = TIE_RTOL * pooled_cost(x, norm)

    def direct(pair: tuple[Partition, Partition]) -> float:
        return float(block_costs(x, pair[0], pair[1], norm).sum())

    if norm is Norm.L2 or x.is_binary:
        score = BatchCosts(x, norm, k_r, col_parts)
        pick = FirstMinimum(tol, score.err, direct if norm is Norm.L2 else None)
        p_c = len(col_parts)
        while rows := list(islice(row_parts, score.batch_size)):
            if pick.feed(score(rows), lambda i: (rows[i // p_c], col_parts[i % p_c])):
                break
    else:
        pick = FirstMinimum(tol)
        for rows in row_parts:
            if oneway_row_cost(x, rows, norm) > pick.best + tol:
                continue
            costs = np.array([direct((rows, cols)) for cols in col_parts])
            if pick.feed(costs, lambda i: (rows, col_parts[i])):
                break
    # validated partitions, unlike the walk's
    best_rows, best_cols = (Partition(p.assignment, p.k) for p in pick.winner)
    breakdown, _ = biclustering_cost(x, best_rows, best_cols, norm)
    return OptimalBiclustering(best_rows, best_cols, breakdown.l)


def ratio(
    x: DataMatrix,
    k_r: int,
    k_c: int,
    norm: Norm,
    row_cap: int = DEFAULT_ORACLE_CAP,
    col_cap: int = DEFAULT_ORACLE_CAP,
    seed: int | None = None,
) -> RatioReport:
    """Exact scheme cost over oracle cost, with the applicable certificate.

    A zero oracle cost forces a zero scheme cost (exact one-way solvers
    recover any zero-cost clustering), and the ratio is reported as 1 by
    convention in that case so sweep statistics stay meaningful.
    """
    scheme = run_scheme(x, k_r, k_c, norm, SolverMode.exact())
    opt = exact_biclustering(x, k_r, k_c, norm, row_cap=row_cap, col_cap=col_cap)
    l = scheme.breakdown.l
    l_star = opt.cost
    if l_star <= ZERO_COST_EPS:
        if l > RATIO_SLACK:
            raise BoundViolationError(
                f"optimal cost is 0 but scheme cost is {l}; this should be impossible"
            )
        value = 1.0
    else:
        value = l / l_star
    alpha = certificate_bound(norm, x.is_binary)
    certified = None if alpha is None else bool(value <= alpha + RATIO_SLACK)
    return RatioReport(
        l_r=scheme.breakdown.l_r,
        l_c=scheme.breakdown.l_c,
        l=l,
        l_star=l_star,
        ratio=value,
        alpha_bound=alpha,
        certified=certified,
        norm=norm,
        dims=(x.n_rows, x.n_cols),
        k_r=k_r,
        k_c=k_c,
        seed=seed,
    )
