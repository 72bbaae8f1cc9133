"""Certification machinery for the worst-case cost-ratio guarantees.

This module provides the checkable pieces behind the two certified ratios
(1 + sqrt(2) for 0/1 matrices under L1, 2 for real matrices under L2):

* a per-block inequality relating pooled dissimilarity to the sum of the
  block's row-side and column-side spreads;
* a lower bound tying the optimal biclustering cost to the exact one-way
  optima;
* the exact decomposition of squared-norm pooled spread into row spread
  plus column spread minus an additive-fit residual;
* majority-block analysis of 0/1 blocks, with the spread-reducing swap
  procedure that drives a block into one of three extremal structures;
* the constrained maximization whose supremum is the binary/L1 ratio
  constant, checked by lattice search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .cost import (
    BATCH_ENTRIES,
    Norm,
    _binary_l1,
    _values_of,
    columnwise_cost,
    pooled_cost,
    rowwise_cost,
)
from .errors import BoundViolationError, DescentViolationError, ValidationError, overflow_guard
from .model import DataMatrix
from .oneway import SolverMode, exact_kcluster, kcluster_cols
from .search import DEFAULT_ORACLE_CAP, exact_biclustering

#: Tolerance of the bound checks, relative to the pooled cost of the block
#: or matrix checked, so that no check depends on the data's scale.
PASS_TOL = 1e-9
#: Below this the ratio objective's denominator is treated as zero; the
#: x = y = 0 corner is a removable 0/0 degeneracy, not an error.
DENOM_GUARD = 1e-12
CONSTRAINT_TOL = 1e-9


# ---------------------------------------------------------------------------
# Per-block inequality and the lower bound.


@dataclass(frozen=True)
class MarginReport:
    """Slack of one block in the inequality
    pooled <= (alpha/2) * (columnwise + rowwise)."""

    pooled: float
    columnwise: float
    rowwise: float
    alpha: float
    slack: float
    passed: bool


@overflow_guard
def per_bicluster_bound(y, norm: Norm, alpha: float) -> MarginReport:
    """Evaluate the per-block inequality at the given ratio constant.

    For the constant to be a certificate under L1 the block must be 0/1
    valued; under L2 with alpha = 2 the inequality holds for any reals.
    The slack may fall ``PASS_TOL`` times the pooled cost below 0.  On a
    (B, n, m) stack of blocks every field but alpha is a per-block array.
    """
    v = pooled_cost(y, norm)
    vr = columnwise_cost(y, norm)
    vc = rowwise_cost(y, norm)
    slack = 0.5 * alpha * (vr + vc) - v
    return MarginReport(v, vr, vc, alpha, slack, slack >= -PASS_TOL * v)


@dataclass(frozen=True)
class LowerBoundReport:
    """Optimal biclustering cost against the exact one-way optima."""

    l_star: float
    l_r: float
    l_c: float
    passed: bool


@overflow_guard
def lower_bound_check(
    x: DataMatrix,
    k_r: int,
    k_c: int,
    norm: Norm,
    row_cap: int = DEFAULT_ORACLE_CAP,
    col_cap: int = DEFAULT_ORACLE_CAP,
) -> LowerBoundReport:
    """Verify l_star >= max(l_r, l_c) >= (l_r + l_c)/2 with l_r and l_c the
    exact one-way optima at the same cluster budgets, within ``PASS_TOL``
    times the one-block cost, so that the check is free of the data's
    scale."""
    l_star = exact_biclustering(x, k_r, k_c, norm, row_cap=row_cap, col_cap=col_cap).cost
    l_r = exact_kcluster(x, k_r, norm).cost
    l_c = kcluster_cols(x, k_c, norm, SolverMode.exact()).cost
    top = max(l_r, l_c)
    tol = PASS_TOL * pooled_cost(x, norm)
    passed = l_star >= top - tol and top >= 0.5 * (l_r + l_c) - tol
    return LowerBoundReport(l_star, l_r, l_c, passed)


# ---------------------------------------------------------------------------
# Squared-norm decomposition.


@dataclass(frozen=True)
class L2Decomposition:
    """pooled = columnwise + rowwise - residual, residual >= 0.

    The residual is the squared error of the additive fit
    row mean + column mean - grand mean.
    """

    pooled: float
    columnwise: float
    rowwise: float
    residual: float


@overflow_guard
def l2_decomposition(y) -> L2Decomposition:
    """Decompose a block, or each block of a (B, n, m) stack into per-block
    arrays.  The additive model is fitted to the block minus its grand
    mean, so the residual does not depend on an offset of the data, and a
    block of equal entries has a residual of exactly 0."""
    arr = _values_of(y, stack=True)
    block = (-2, -1)
    centered = arr - arr.mean(axis=block, keepdims=True)
    fitted = centered.mean(axis=-1, keepdims=True) + centered.mean(axis=-2, keepdims=True)
    fitted -= centered.mean(axis=block, keepdims=True)
    residual = ((centered - fitted) ** 2).sum(axis=block)
    residual = np.where(arr.min(axis=block) == arr.max(axis=block), 0.0, residual)
    if arr.ndim == 2:
        residual = float(residual)
    return L2Decomposition(
        pooled=pooled_cost(arr, Norm.L2),
        columnwise=columnwise_cost(arr, Norm.L2),
        rowwise=rowwise_cost(arr, Norm.L2),
        residual=residual,
    )


# ---------------------------------------------------------------------------
# Majority blocks and spread-reducing swaps (0/1 blocks only).


def _require_binary(arr: np.ndarray) -> None:
    if not np.all((arr == 0.0) | (arr == 1.0)):
        raise ValidationError("operation requires a 0/1 valued block")


def _quadrants(arr: np.ndarray) -> tuple[np.ndarray, np.ndarray, dict[str, np.ndarray]]:
    """Majority rows and columns of a 0/1 block (strictly more ones than
    zeros; exact ties go to the non-majority side), and the (n, m) boolean
    masks of its quadrants: A majority rows x majority columns, B majority
    rows x the rest, C the rest x majority columns, D the rest x the rest.
    A stack of blocks gives one mask per block on the leading axis."""
    n, m = arr.shape[-2:]
    row_mask = arr.sum(axis=-1) * 2 > m
    col_mask = arr.sum(axis=-2) * 2 > n
    rows, cols = row_mask[..., :, None], col_mask[..., None, :]
    quadrants = {"A": rows & cols, "B": rows & ~cols, "C": ~rows & cols, "D": ~rows & ~cols}
    return row_mask, col_mask, quadrants


@dataclass(frozen=True)
class BlockDecomposition:
    """Quadrant structure of a 0/1 block under majority splitting.

    Quadrant A is majority rows x majority columns, B majority rows x the
    rest, C the rest x majority columns, D the rest x the rest.  If the
    block had more ones than zeros it is complemented first so that the
    pooled L1 cost equals the total number of ones.
    """

    o_r: tuple[int, ...]
    o_c: tuple[int, ...]
    ones_a: int
    ones_b: int
    ones_c: int
    ones_d: int
    x_frac: float
    y_frac: float
    a_frac: float
    b_frac: float
    c_frac: float
    d_frac: float
    complemented: bool


def block_decomposition(y) -> BlockDecomposition:
    arr = _values_of(y)
    _require_binary(arr)
    n, m = arr.shape
    total_ones = int(round(arr.sum()))
    complemented = total_ones > n * m - total_ones
    work = 1.0 - arr if complemented else arr
    row_mask, col_mask, quadrants = _quadrants(work)
    ones = {name: int(round(work[mask].sum())) for name, mask in quadrants.items()}
    size = n * m
    return BlockDecomposition(
        o_r=tuple(int(i) for i in np.flatnonzero(row_mask)),
        o_c=tuple(int(j) for j in np.flatnonzero(col_mask)),
        ones_a=ones["A"],
        ones_b=ones["B"],
        ones_c=ones["C"],
        ones_d=ones["D"],
        x_frac=float(row_mask.sum()) / n,
        y_frac=float(col_mask.sum()) / m,
        a_frac=ones["A"] / size,
        b_frac=ones["B"] / size,
        c_frac=ones["C"] / size,
        d_frac=ones["D"] / size,
        complemented=complemented,
    )


@dataclass(frozen=True)
class SwapStep:
    """One applied swap: a one moved from ``one_pos`` to ``zero_pos``."""

    kind: str
    one_pos: tuple[int, int]
    zero_pos: tuple[int, int]
    spread_before: float
    spread_after: float


#: Swap scan order: a one in the source quadrant exchanged with a zero in
#: the destination quadrant.  Any of these strictly lowers the combined
#: row/column spread while the pooled cost (the number of ones, median 0)
#: stays fixed.
_SWAP_ORDER = (("D", "A"), ("D", "B"), ("D", "C"), ("B", "A"), ("C", "A"))


def _find_swaps(blocks: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """First applicable swap of each block of a (B, n, m) stack: the index
    into ``_SWAP_ORDER`` of the first quadrant pair with a one in the
    source and a zero in the destination (-1 when none applies), and the
    row-major flat positions of the first such one and zero."""
    flat = blocks.reshape(len(blocks), -1)
    ones, zeros = flat == 1.0, flat == 0.0
    quadrants = {q: mask.reshape(flat.shape) for q, mask in _quadrants(blocks)[2].items()}
    src = np.stack([quadrants[a] & ones for a, _ in _SWAP_ORDER])
    dst = np.stack([quadrants[b] & zeros for _, b in _SWAP_ORDER])
    applies = src.any(axis=2) & dst.any(axis=2)
    kind = np.where(applies.any(axis=0), applies.argmax(axis=0), -1)
    each = np.arange(len(blocks))
    return kind, src[kind, each].argmax(axis=1), dst[kind, each].argmax(axis=1)


def _spread(arr: np.ndarray):
    """Combined L1 spread, ``columnwise_cost + rowwise_cost``, of a 0/1
    block, or of each block of a (B, n, m) stack.

    Counted, not sorted: each column's cost is min(ones, n - ones) and each
    row's min(ones, m - ones) (:func:`~crossclust.cost._binary_l1`).  The
    one-counts are sums of 0s and 1s, exact in floating point, and so is
    every sum of these integers, so the result equals the direct costs."""
    n, m = arr.shape[-2:]
    return (_binary_l1(arr.sum(axis=-2), n).sum(axis=-1)
            + _binary_l1(arr.sum(axis=-1), m).sum(axis=-1))


def swap_normalize(y) -> tuple[np.ndarray, tuple[SwapStep, ...]]:
    """Apply spread-reducing swaps until none applies.

    Requires a 0/1 block with at most as many ones as zeros.  Majority
    rows/columns are recomputed after every swap (a swap can flip a line's
    majority status), and every applied swap is checked to lower the
    combined spread by at least one; a violation raises
    :class:`DescentViolationError` instead of being accepted silently.
    The terminal block always matches one of the three extremal structures
    (see :func:`terminal_structure`).

    A (B, n, m) stack of blocks is normalized in lockstep, one swap per
    unfinished block and step, under the same checks.  It returns the
    stack of terminal blocks and each block's number of swaps, not a trace.
    """
    arr = np.array(_values_of(y, stack=True), dtype=float)
    blocks = arr.reshape(-1, *arr.shape[-2:])  # a view: swaps land in arr
    m = blocks.shape[2]
    _require_binary(blocks)
    if np.any(2 * np.rint(blocks.sum(axis=(1, 2))) > blocks[0].size):
        raise ValidationError("swap normalization requires ones <= zeros")
    spread = _spread(blocks)
    steps = np.zeros(len(blocks), dtype=int)
    trace: list[SwapStep] = []
    live = np.arange(len(blocks))
    while True:
        kind, one, zero = _find_swaps(blocks[live])
        found = kind >= 0
        if not found.any():
            break
        live, kind, one, zero = live[found], kind[found], one[found], zero[found]
        blocks[live, one // m, one % m] = 0.0
        blocks[live, zero // m, zero % m] = 1.0
        new_spread = _spread(blocks[live])
        bad = new_spread > spread[live] - 1.0 + PASS_TOL
        i = int(bad.argmax())  # the first violating block, else the first (a 2-D block's)
        step = SwapStep(
            "->".join(_SWAP_ORDER[kind[i]]), divmod(int(one[i]), m),
            divmod(int(zero[i]), m), float(spread[live[i]]), float(new_spread[i]),
        )
        if bad[i]:
            raise DescentViolationError(
                f"swap {step.kind} at {step.one_pos}/{step.zero_pos} changed spread "
                f"{step.spread_before} -> {step.spread_after}; expected a drop of at least 1"
            )
        trace.append(step)
        spread[live] = new_spread
        steps[live] += 1
    if np.any(np.equal(terminal_structure(blocks), None)):
        raise BoundViolationError(
            "swap-normalized block matches none of the expected structures"
        )
    arr.setflags(write=False)
    return arr, (tuple(trace) if arr.ndim == 2 else steps)


#: :func:`terminal_structure`'s answers, by case index.
_TERMINALS = np.array(["i", "ii", "iii", None], dtype=object)


def terminal_structure(y) -> str | None:
    """Classify a 0/1 block into one of the swap-terminal structures.

    Returns "i" when quadrants A, B, C are all ones, "ii" when A is all
    ones and D all zeros, "iii" when B, C, D are all zeros (empty
    quadrants count as satisfying either), or None when none applies.
    A (B, n, m) stack of blocks gives an object array of these answers.
    """
    arr = _values_of(y, stack=True)
    _require_binary(arr)
    quadrants = _quadrants(arr)[2]
    a, d = quadrants["A"], quadrants["D"]
    ones = arr == 1.0
    block = (-2, -1)
    i = (ones | d).all(axis=block)  # all ones outside D
    ii = (ones | ~a).all(axis=block) & ~(ones & d).any(axis=block)
    iii = ~(ones & ~a).any(axis=block)  # no ones outside A
    return _TERMINALS[np.where(i, 0, np.where(ii, 1, np.where(iii, 2, 3)))]


# ---------------------------------------------------------------------------
# The ratio-constant maximization.
#
# Normalized block variables: x and y are the fractions of majority rows
# and columns, a/b/c/d the per-quadrant one-counts divided by the block
# size.  The objective 2(a+b+c+d)/(x+y-2a+2d) is maximized subject to at
# most half the entries being ones and one of three structural constraint
# sets mirroring the swap-terminal structures.


@dataclass(frozen=True)
class AlphaPoint:
    x: float
    y: float
    a: float
    b: float
    c: float
    d: float
    case_tag: str
    objective: float | None = None


def alpha_objective(point: AlphaPoint) -> float | None:
    """Evaluate 2(a+b+c+d)/(x+y-2a+2d) after validating the point's
    constraints.  Returns None (not an error) when the denominator is
    below the guard, which only happens at the degenerate all-zero corner.
    """
    _check_constraints(point)
    den = point.x + point.y - 2.0 * point.a + 2.0 * point.d
    if den <= DENOM_GUARD:
        return None
    return 2.0 * (point.a + point.b + point.c + point.d) / den


def make_alpha_point(
    x: float, y: float, a: float, b: float, c: float, d: float, case_tag: str
) -> AlphaPoint:
    point = AlphaPoint(x, y, a, b, c, d, case_tag)
    return replace(point, objective=alpha_objective(point))


def _check_constraints(p: AlphaPoint) -> None:
    tol = CONSTRAINT_TOL

    def fail(what: str) -> None:
        raise ValidationError(f"case {p.case_tag}: constraint {what} violated")

    if p.case_tag not in ("i", "ii", "iii"):
        raise ValidationError(f"unknown case tag {p.case_tag!r}")
    if not (-tol <= p.x <= 1.0 + tol):
        fail("x in [0, 1]")
    if not (-tol <= p.y <= 1.0 + tol):
        fail("y in [0, 1]")
    for name in ("a", "b", "c", "d"):
        if getattr(p, name) < -tol:
            fail(f"{name} >= 0")
    if p.a + p.b + p.c + p.d > 0.5 + tol:
        fail("a+b+c+d <= 1/2")
    if p.case_tag == "i":
        if abs(p.a - p.x * p.y) > tol:
            fail("a = x*y")
        if abs(p.b - p.x * (1.0 - p.y)) > tol:
            fail("b = x*(1-y)")
        if abs(p.c - (1.0 - p.x) * p.y) > tol:
            fail("c = (1-x)*y")
        if p.d > (1.0 - p.x) * (1.0 - p.y) + tol:
            fail("d <= (1-x)*(1-y)")
    elif p.case_tag == "ii":
        if abs(p.a - p.x * p.y) > tol:
            fail("a = x*y")
        if p.b > p.x * (1.0 - p.y) + tol:
            fail("b <= x*(1-y)")
        if p.c > (1.0 - p.x) * p.y + tol:
            fail("c <= (1-x)*y")
        if abs(p.d) > tol:
            fail("d = 0")
    else:
        if p.a > p.x * p.y + tol:
            fail("a <= x*y")
        for name in ("b", "c", "d"):
            if abs(getattr(p, name)) > tol:
                fail(f"{name} = 0")


def analytic_optima() -> tuple[AlphaPoint, AlphaPoint]:
    """The two closed-form maximizers; both evaluate to 1 + sqrt(2)."""
    x1 = 1.0 - math.sqrt(0.5)
    p1 = make_alpha_point(
        x1, x1, x1 * x1, x1 * (1.0 - x1), (1.0 - x1) * x1, 0.0, "i"
    )
    x2 = math.sqrt(0.5)
    p2 = make_alpha_point(x2, x2, x2 * x2, 0.0, 0.0, 0.0, "ii")
    return p1, p2


@dataclass(frozen=True)
class GridSearchResult:
    """Maximizer found by the lattice search.

    ``best`` includes the two analytic optima as lattice-external
    candidates; ``lattice_best`` is the best point of the lattice itself.
    """

    best: AlphaPoint
    lattice_best: AlphaPoint
    resolution: int

    @property
    def best_value(self) -> float:
        assert self.best.objective is not None
        return self.best.objective

    @property
    def lattice_value(self) -> float:
        assert self.lattice_best.objective is not None
        return self.lattice_best.objective


def grid_search_alpha(resolution: int) -> GridSearchResult:
    """Maximize the ratio objective over the step-1/resolution lattice.

    Within each constraint case the objective is monotone along the free
    one-count variables (their lattice ranges are intervals and the
    denominator involves none of b, c and only d with monotone effect), so
    for every lattice (x, y) the case maximum over the remaining free
    variables sits at an interval endpoint.  Only those endpoints are
    evaluated; every skipped lattice point is dominated by an evaluated
    one, so the returned lattice maximum is the exact lattice maximum.

    The lattice is evaluated in tiles of whole rows of x, at most
    ``BATCH_ENTRIES`` points each (one row when a row is longer), so
    memory stays flat however fine the resolution.  Every point gets the
    float operations a whole-lattice evaluation gives it
    (:func:`_lattice_cases`), and each case keeps its first row-major
    maximum across tiles, so the result does not depend on the tiling.
    """
    if resolution < 2:
        raise ValidationError("resolution must be >= 2")
    res = resolution
    g = np.arange(res + 1) / res
    one_minus_g = 1.0 - g
    step = max(1, BATCH_ENTRIES // (res + 1))
    # per case, in the order of _lattice_cases: the best value and its flat index
    case_best = [(-np.inf, 0)] * 4
    for i in range(0, res + 1, step):
        rows = slice(i, i + step)
        objs = _lattice_cases(g[rows, None], one_minus_g[rows, None], g, one_minus_g, res)[0]
        for case, obj in enumerate(objs):
            j = int(np.argmax(obj))
            if obj.flat[j] > case_best[case][0]:
                case_best[case] = (float(obj.flat[j]), i * (res + 1) + j)

    best_lattice: AlphaPoint | None = None
    for case, (val, flat) in enumerate(case_best):
        if not np.isfinite(val):
            continue
        if best_lattice is None or val > best_lattice.objective:
            i, j = divmod(flat, res + 1)
            best_lattice = _lattice_point(case, g[i], one_minus_g[i], g[j], one_minus_g[j], res)

    assert best_lattice is not None and best_lattice.objective is not None
    best = best_lattice
    for candidate in analytic_optima():
        assert candidate.objective is not None
        if candidate.objective > best.objective:
            best = candidate
    return GridSearchResult(best=best, lattice_best=best_lattice, resolution=res)


def _lattice_cases(x, one_minus_x, y, one_minus_y, res: int):
    """The ratio objective at lattice points (x, y), broadcast against each
    other, per case, in the order i at d = 0, i at its top lattice d, ii,
    iii (-inf where the case is infeasible or the denominator vanishes),
    and the per-point values that :func:`_lattice_point` reads."""
    eps = 1e-9
    a_full = x * y
    b_full = x * one_minus_y
    c_full = one_minus_x * y

    # Case i: a, b, c pinned to their quadrant capacities, d free.  The
    # objective is monotone in d, so check both endpoints of the d range.
    s0 = a_full + b_full + c_full
    d_room = np.minimum(one_minus_x * one_minus_y, 0.5 - s0)
    feasible = d_room >= -1e-15
    d_top = np.floor(np.maximum(d_room, 0.0) * res + eps) / res
    den0 = x + y - 2.0 * a_full
    objs = []
    for d_grid in (0.0, d_top):
        den = den0 + 2.0 * d_grid
        ok = feasible & (den > DENOM_GUARD)
        objs.append(np.where(ok, 2.0 * (s0 + d_grid) / np.where(ok, den, 1.0), -np.inf))

    # Case ii: a pinned to x*y, d = 0, b and c free on the lattice.  The
    # denominator involves neither, so the maximum is at the largest
    # feasible lattice value of b + c.
    nb = np.floor(b_full * res + eps)
    nc = np.floor(c_full * res + eps)
    cap = np.floor((0.5 - a_full) * res + eps)
    s_units = np.minimum(nb + nc, cap)
    ok = (cap >= 0) & (den0 > DENOM_GUARD)
    objs.append(np.where(ok, 2.0 * (a_full + s_units / res) / np.where(ok, den0, 1.0), -np.inf))

    # Case iii: b = c = d = 0, a free; monotone in a, so only the top
    # lattice value below min(x*y, 1/2) matters.
    a_top = np.floor(np.minimum(a_full, 0.5) * res + eps) / res
    den = x + y - 2.0 * a_top
    ok = den > DENOM_GUARD
    objs.append(np.where(ok, 2.0 * a_top / np.where(ok, den, 1.0), -np.inf))
    return objs, (a_full, b_full, c_full, d_top, nb, s_units, a_top)


def _lattice_point(case: int, x, one_minus_x, y, one_minus_y, res: int) -> AlphaPoint:
    """The point that case ``case`` of :func:`_lattice_cases` evaluates at
    the lattice point (x, y), from the same operations."""
    a_full, b_full, c_full, d_top, nb, s_units, a_top = map(
        float, _lattice_cases(x, one_minus_x, y, one_minus_y, res)[1]
    )
    x, y = float(x), float(y)
    if case < 2:
        return make_alpha_point(x, y, a_full, b_full, c_full, d_top if case else 0.0, "i")
    if case == 2:
        b_units = min(nb, s_units)
        return make_alpha_point(x, y, a_full, b_units / res, (s_units - b_units) / res, 0.0, "ii")
    return make_alpha_point(x, y, a_top, 0.0, 0.0, 0.0, "iii")
