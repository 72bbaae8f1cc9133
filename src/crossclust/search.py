"""The independent-clustering scheme and the brute-force biclustering oracle.

The scheme clusters rows and columns independently (no alternation) and
crosses the two partitions.  The oracle enumerates row and column
partitions jointly and returns the global minimum of the biclustering
cost, which is the reference value for ratio certification.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cost import (
    CostBreakdown,
    Norm,
    _exact_search,
    biclustering_cost,
    certificate_bound,
    pooled_cost,
)
from .errors import BoundViolationError, CapExceededError, ValidationError, overflow_guard
from .model import ENUMERATION_CAP, Biclustering, DataMatrix, Partition
from .oneway import SolverMode, kcluster_cols, kcluster_rows

#: Default per-axis size caps for the joint oracle enumeration.  The joint
#: space is a product of Bell-sized spaces, so the default is deliberately
#: small; callers may raise the caps explicitly (up to the hard cap of 14).
DEFAULT_ORACLE_CAP = 8

#: An oracle cost within this fraction of the one-block cost counts as 0.
ZERO_COST_EPS = 1e-12
#: Slack of the certificate test on the ratio; a zero optimum also allows the
#: scheme this fraction of the one-block cost.
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


def run_scheme(
    x: DataMatrix, k_r: int, k_c: int, norm: Norm, mode: SolverMode
) -> SchemeResult:
    """Cluster rows and columns independently and evaluate the crossing.

    The crossing's L_R and L_C are the costs the two one-way solves return
    with their partitions, which are the direct :func:`oneway_row_cost` of
    each partition (the column solve's on the transpose): the winner's
    exact cost in exact mode, the best restart's in heuristic mode.  Only
    the grid of block costs, and its sum L, is computed here.
    """
    rows_sol = kcluster_rows(x, k_r, norm, mode)
    cols_sol = kcluster_cols(x, k_c, norm, mode)
    breakdown, grid = biclustering_cost(
        x, rows_sol.partition, cols_sol.partition, norm, oneway=(rows_sol.cost, cols_sol.cost)
    )
    bic = Biclustering(rows_sol.partition, cols_sol.partition, grid)
    return SchemeResult(bic, breakdown, mode)


@overflow_guard
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

    Each cluster count must be in [1, axis length], and an axis with more
    than one cluster must be within its cap (``row_cap``, ``col_cap``,
    never above the hard cap of 14); an axis with one cluster has one
    partition and is exempt.  :func:`~crossclust.cost._exact_search`
    scores the pairs, rows outer and columns inner, skips those the
    one-way lower bound rules out when the row partitions fill more than
    one scoring batch, and applies the tie rule.  The result holds the
    winning pair and the exact cost it won on.
    """
    for t, k, cap, axis in ((x.n_cols, k_c, col_cap, "column"), (x.n_rows, k_r, row_cap, "row")):
        if k < 1 or k > t:
            raise ValidationError(f"{axis} cluster count must be in [1, {t}], got {k}")
        cap = min(cap, ENUMERATION_CAP)
        if k > 1 and t > cap:
            raise CapExceededError(f"oracle enumeration over {axis}s capped at {cap}, got {t}")
    rows, cols, cost = _exact_search(x, norm, k_r, k_c)
    return OptimalBiclustering(rows, cols, cost)


@overflow_guard
def ratio(
    x: DataMatrix,
    k_r: int,
    k_c: int,
    norm: Norm,
    row_cap: int = DEFAULT_ORACLE_CAP,
    col_cap: int = DEFAULT_ORACLE_CAP,
) -> RatioReport:
    """Exact scheme cost over oracle cost, with the applicable certificate.

    A zero oracle cost forces a zero scheme cost (exact one-way solvers
    recover any zero-cost clustering), and the ratio is reported as 1 by
    convention in that case so sweep statistics stay meaningful.  The zero
    test is relative, like the tie rule: the oracle cost counts as 0 when it
    is at most ``ZERO_COST_EPS`` times the one-block cost (the whole matrix
    as one bicluster), so the test does not depend on the data's scale.
    """
    scheme = run_scheme(x, k_r, k_c, norm, SolverMode.exact())
    opt = exact_biclustering(x, k_r, k_c, norm, row_cap=row_cap, col_cap=col_cap)
    l = scheme.breakdown.l
    l_star = opt.cost
    scale = pooled_cost(x, norm)
    if l_star <= ZERO_COST_EPS * scale:
        if l > RATIO_SLACK * scale:
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
    )
