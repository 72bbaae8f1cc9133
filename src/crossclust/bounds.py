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
    _Blocks,
    _padded,
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
#: The lattice's floor snapping: a one-count v goes on the step-1/res
#: lattice as floor(v * res + LATTICE_SNAP) / res, which rounds v up to the
#: lattice value above it when v * res is within LATTICE_SNAP below it.
LATTICE_SNAP = 1e-9
#: Rounding allowance of the ratio objective's box bounds
#: (:func:`_alpha_box_bound`), relative to the box's least denominator.
BOX_ROUNDING = 2.0**-40
#: The lattice search evaluates a box point by point once both of its
#: sides are at most this many lattice points.
LEAF_SIDE = 4


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
    stack of blocks, a (B, n, m) array or a list of 2-D blocks of any
    shapes, every field but alpha is a per-block array, in order.
    """
    y = _values_of(y, stack=True)
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
    """Decompose a block, or each block of a stack (a (B, n, m) array or a
    list of 2-D blocks of any shapes) into per-block arrays, in order.
    The additive model is fitted to the block minus its grand mean, so the
    residual does not depend on an offset of the data, and a block of
    equal entries has a residual of exactly 0."""
    arr = _values_of(y, stack=True)
    if isinstance(arr, _Blocks):
        residual = _stack_residual(arr)
    else:
        block = (-2, -1)
        centered = arr - arr.mean(axis=block, keepdims=True)
        fitted = centered.mean(axis=-1, keepdims=True) + centered.mean(axis=-2, keepdims=True)
        fitted -= centered.mean(axis=block, keepdims=True)
        residual = ((centered - fitted) ** 2).sum(axis=block)
        residual = float(np.where(arr.min(axis=block) == arr.max(axis=block), 0.0, residual))
    return L2Decomposition(
        pooled=pooled_cost(arr, Norm.L2),
        columnwise=columnwise_cost(arr, Norm.L2),
        rowwise=rowwise_cost(arr, Norm.L2),
        residual=residual,
    )


def _stack_residual(blocks: _Blocks) -> np.ndarray:
    """:func:`l2_decomposition`'s residual of each block of a padded
    stack: its means are sums over the block's own cells divided by its
    own counts, and its padding is left out of every sum."""
    values, valid = blocks.values, blocks.valid
    n, m = blocks.rows[:, :, None], blocks.cols[:, :, None]
    block = (1, 2)
    centered = np.where(valid, values - values.sum(axis=block, keepdims=True) / (n * m), 0.0)
    fitted = centered.sum(axis=2, keepdims=True) / m + centered.sum(axis=1, keepdims=True) / n
    fitted -= centered.sum(axis=block, keepdims=True) / (n * m)
    residual = (np.where(valid, centered - fitted, 0.0) ** 2).sum(axis=block)
    lo = np.where(valid, values, np.inf).min(axis=block)
    hi = np.where(valid, values, -np.inf).max(axis=block)
    return np.where(lo == hi, 0.0, residual)


# ---------------------------------------------------------------------------
# Majority blocks and spread-reducing swaps (0/1 blocks only).


def _require_binary(arr: np.ndarray) -> None:
    if not np.all((arr == 0.0) | (arr == 1.0)):
        raise ValidationError("operation requires a 0/1 valued block")


def _quadrants(arr: np.ndarray, n, m) -> tuple[np.ndarray, np.ndarray, dict[str, np.ndarray]]:
    """Majority rows and columns of a 0/1 block of n rows and m columns
    (strictly more ones than zeros; exact ties go to the non-majority
    side), and the (n, m) boolean masks of its quadrants: A majority rows x
    majority columns, B majority rows x the rest, C the rest x majority
    columns, D the rest x the rest.  A padded stack (:class:`_Blocks`'
    values, with its (B, 1) counts as n and m) gives one mask per block on
    the leading axis; padding is never majority, so it lies in B, C or D."""
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
    row_mask, col_mask, quadrants = _quadrants(work, n, m)
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


def _find_swaps(blocks: _Blocks) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """First applicable swap of each block of a padded stack: the index
    into ``_SWAP_ORDER`` of the first quadrant pair with a one in the
    source and a zero in the destination (-1 when none applies), and the
    row-major flat positions, in the padded width, of the first such one
    and zero.  Padding is neither a one nor a zero, and a padded row keeps
    its real cells' order, so the swap found is the unpadded block's."""
    values = blocks.values
    flat = values.reshape(len(values), -1)
    ones = flat == 1.0
    zeros = (flat == 0.0) & blocks.valid.reshape(flat.shape)
    quadrants = _quadrants(values, blocks.rows, blocks.cols)[2]
    quadrants = {q: mask.reshape(flat.shape) for q, mask in quadrants.items()}
    src = np.stack([quadrants[a] & ones for a, _ in _SWAP_ORDER])
    dst = np.stack([quadrants[b] & zeros for _, b in _SWAP_ORDER])
    applies = src.any(axis=2) & dst.any(axis=2)
    kind = np.where(applies.any(axis=0), applies.argmax(axis=0), -1)
    each = np.arange(len(values))
    return kind, src[kind, each].argmax(axis=1), dst[kind, each].argmax(axis=1)


def _spread(y):
    """Combined L1 spread, ``columnwise_cost + rowwise_cost``, of a 0/1
    block, or of each block of a stack (a (B, n, m) array, a list of 2-D
    blocks of any shapes, or :class:`_Blocks`).

    Counted, not sorted: each column's cost is min(ones, n - ones) and each
    row's min(ones, m - ones) (:func:`~crossclust.cost._binary_l1`), with
    each block's own n and m; a padded line has no ones and costs 0.  The
    one-counts are sums of 0s and 1s, exact in floating point, and so is
    every sum of these integers, so the result equals the direct costs."""
    arr = _values_of(y, stack=True)
    if isinstance(arr, _Blocks):
        arr, n, m = arr.values, arr.rows, arr.cols
    else:
        n, m = arr.shape
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

    A stack of blocks, a (B, n, m) array or a list of 2-D blocks of any
    shapes, is normalized in lockstep on one padded stack, one swap per
    unfinished block and step, under the same checks.  It returns the
    terminal blocks, in the input's form, and each block's number of
    swaps, not a trace.
    """
    arr = _values_of(y, stack=True)
    single = not isinstance(arr, _Blocks)
    padded = _padded(arr[None] if single else arr)
    blocks = padded._replace(values=padded.values.copy())
    values = blocks.values  # swaps land here
    m = values.shape[2]
    _require_binary(values)
    if np.any(2 * np.rint(values.sum(axis=(1, 2))) > (blocks.rows * blocks.cols)[:, 0]):
        raise ValidationError("swap normalization requires ones <= zeros")
    spread = _spread(blocks)
    steps = np.zeros(len(values), dtype=int)
    trace: list[SwapStep] = []
    live = np.arange(len(values))
    unfinished = blocks
    while True:
        kind, one, zero = _find_swaps(unfinished)
        found = kind >= 0
        if not found.any():
            break
        live, kind, one, zero = live[found], kind[found], one[found], zero[found]
        values[live, one // m, one % m] = 0.0
        values[live, zero // m, zero % m] = 1.0
        unfinished = blocks.take(live)
        new_spread = _spread(unfinished)
        bad = new_spread > spread[live] - 1.0 + PASS_TOL
        if single or bad.any():
            i = int(bad.argmax())  # the first violating block, else the only one
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
    values.setflags(write=False)
    if single:
        return values[0], tuple(trace)
    if isinstance(y, _Blocks):
        return blocks, steps
    return (values if isinstance(y, np.ndarray) else blocks.blocks()), steps


#: :func:`terminal_structure`'s answers, by case index.
_TERMINALS = np.array(["i", "ii", "iii", None], dtype=object)


def terminal_structure(y) -> str | None:
    """Classify a 0/1 block into one of the swap-terminal structures.

    Returns "i" when quadrants A, B, C are all ones, "ii" when A is all
    ones and D all zeros, "iii" when B, C, D are all zeros (empty
    quadrants count as satisfying either), or None when none applies.
    A stack of blocks, a (B, n, m) array or a list of 2-D blocks of any
    shapes, gives an object array of these answers, in order; padding
    satisfies every test.
    """
    arr = _values_of(y, stack=True)
    blocks = arr if isinstance(arr, _Blocks) else _padded(arr[None])
    values = blocks.values
    _require_binary(values)
    quadrants = _quadrants(values, blocks.rows, blocks.cols)[2]
    a, d = quadrants["A"], quadrants["D"]
    ones = values == 1.0
    block = (-2, -1)
    i = (ones | d | ~blocks.valid).all(axis=block)  # all ones outside D
    ii = (ones | ~a).all(axis=block) & ~(ones & d).any(axis=block)
    iii = ~(ones & ~a).any(axis=block)  # no ones outside A
    answers = _TERMINALS[np.where(i, 0, np.where(ii, 1, np.where(iii, 2, 3)))]
    return answers if isinstance(arr, _Blocks) else answers[0]


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
    evaluated (:func:`_lattice_cases`); every skipped lattice point is
    dominated by an evaluated one.

    The search is a branch-and-bound over boxes of lattice indices.  The
    incumbent is the best lattice value at the lattice points nearest the
    two analytic maximizers, so it never exceeds the lattice maximum.
    Starting from the whole lattice, each level bounds all live boxes in one
    vectorized pass (:func:`_alpha_box_bound`: one corner evaluation per box
    and case, plus a margin for the lattice's floor snapping and float
    rounding), drops every box whose bound plus margin is strictly below the
    incumbent, and halves the rest along each side, until a box's sides are
    at most ``LEAF_SIDE`` points.  A dropped box holds no value within the
    margin's headroom of the incumbent, so every point that could win or tie
    any comparison below is evaluated, and the result is the exact lattice
    maximum.

    The kept leaves are evaluated in chunks of at most ``BATCH_ENTRIES``
    points.  Each case keeps its largest value and, among the points that
    attain it, the smallest row-major flat index ``i * (res + 1) + j``;
    then the first case whose value beats the point picked so far wins, as
    a whole-lattice evaluation would pick.  Every point gets the float
    operations a whole-lattice evaluation gives it, since coordinates are
    formed as ``i / res`` on index arrays, so the result is the same bit
    for bit whatever the leaf side and chunk size.

    Memory is flat in the resolution: no array spans a lattice side, a
    chunk holds at most ``BATCH_ENTRIES`` points, and the live boxes are
    those the bound cannot rule out, which stay few: at resolution 400 the
    search evaluates 0.9% of the lattice's points, at 1001 0.3%, at 20000
    0.002%.
    """
    if resolution < 2:
        raise ValidationError("resolution must be >= 2")
    res = resolution
    near = np.array([f(t * res) for t in (1.0 - math.sqrt(0.5), math.sqrt(0.5))
                     for f in (math.floor, math.ceil)])
    incumbent = max(obj.max() for obj in _lattice_cases(near[:, None], near, res)[0])

    # rows (i0, i1, j0, j1): the inclusive index ranges of x and y
    boxes = np.array([[0, res, 0, res]])
    leaves = []
    while len(boxes):
        bound, margin = _alpha_box_bound(*(boxes.T / res), LATTICE_SNAP / res)
        boxes = boxes[bound + margin >= incumbent]
        leaf = (boxes[:, 1] - boxes[:, 0] < LEAF_SIDE) & (boxes[:, 3] - boxes[:, 2] < LEAF_SIDE)
        leaves.append(boxes[leaf])
        boxes = _split_boxes(boxes[~leaf])
    leaves = np.concatenate(leaves)

    cols = leaves[:, 3] - leaves[:, 2] + 1
    sizes = (leaves[:, 1] - leaves[:, 0] + 1) * cols
    starts = np.cumsum(sizes) - sizes
    total = int(sizes.sum())
    # per case, in the order of _lattice_cases: the best value and its least flat index
    case_best = [(-np.inf, 0)] * 4
    for start in range(0, total, BATCH_ENTRIES):
        pos = np.arange(start, min(start + BATCH_ENTRIES, total))
        box = np.searchsorted(starts, pos, side="right") - 1
        di, dj = np.divmod(pos - starts[box], cols[box])
        i = leaves[box, 0] + di
        j = leaves[box, 2] + dj
        flat = i * (res + 1) + j
        for case, obj in enumerate(_lattice_cases(i, j, res)[0]):
            top = obj.max()
            val, first = case_best[case]
            if top < val or top == -np.inf:
                continue
            at = int(flat[obj == top].min())
            case_best[case] = (float(top), at if top > val else min(at, first))

    best_lattice: AlphaPoint | None = None
    for case, (val, flat) in enumerate(case_best):
        if not np.isfinite(val):
            continue
        if best_lattice is None or val > best_lattice.objective:
            best_lattice = _lattice_point(case, *divmod(flat, res + 1), res)

    assert best_lattice is not None and best_lattice.objective is not None
    best = best_lattice
    for candidate in analytic_optima():
        assert candidate.objective is not None
        if candidate.objective > best.objective:
            best = candidate
    return GridSearchResult(best=best, lattice_best=best_lattice, resolution=res)


def _alpha_box_bound(x0, x1, y0, y1, snap: float):
    """Upper bounds of the ratio objective over boxes [x0, x1] x [y0, y1]
    of [0, 1]^2, as ``(bound, margin)`` arrays: at no point of a box does
    any case of the objective, with its free one-counts anywhere in their
    ranges, exceed ``bound + margin``, and neither does any value that
    :func:`_lattice_cases` computes there.  ``bound`` is inf (keep the box)
    where a denominator below is under ``BOX_ROUNDING``.  ``snap`` is the
    most that snapping raises a one-count: ``LATTICE_SNAP / res`` on the
    step-1/res lattice, 0 on the continuum.

    In u = x + y and p = xy, a box has u >= u_lo = x0 + y0 and
    p_lo = x0 y0 <= p <= p_hi = x1 y1; s = u - p = x + y - xy increases in
    both x and y, so s >= s_lo = u_lo - p_lo.

    * Cases i and ii pin a = p, and b + c is at most
      x(1 - y) + (1 - x)y = u - 2p, with a + b + c <= 1/2.  Case i's d
      only lowers its objective (A + 2d)/(B + 2d), since A = 2(u - p) >= B
      = u - 2p.  So both are at most g(u, p) = min(2(u - p), 1)/(u - 2p).
      Its two branches have partial derivatives -2p/(u - 2p)^2 and
      -1/(u - 2p)^2 in u, 2u/(u - 2p)^2 and 2/(u - 2p)^2 in p: g
      decreases in u and increases in p, so g(u_lo, p_hi) bounds the box
      once u_lo - 2 p_hi > 0.  Case i is feasible only where s <= 1/2 and
      case ii only where p <= 1/2, so a box with s_lo > 1/2 and
      p_lo > 1/2 has neither.
    * Case iii has a <= q = min(p, 1/2) and b = c = d = 0, and 2a/(u - 2a)
      increases in a and decreases in u, so 2q/(u_lo - 2q) with
      q = min(p_hi, 1/2) bounds the box.

    The margin, added to the bound and never subtracted:

    * Snapping.  Each ``floor(v * res + LATTICE_SNAP) / res`` rounds v
      up to a lattice value at most LATTICE_SNAP / res above it.  Case
      ii's b + c snaps up by at most 2 snap, so its numerator rises by at
      most 4 snap, and case iii's a by at most snap; case ii stays feasible
      up to p = 1/2 + snap.  These enter the corner evaluation (the
      numerator of g gets + 4 snap, q gets + snap), which keeps the
      monotonicity above.  Case i's d only lowers its value, and case i is
      feasible up to s = 1/2 + 1e-15.
    * Rounding.  The coordinates are the floats ``i / res``, so the box
      corners bound them exactly.  Every other quantity lies in [0, 2] and
      comes from a few float operations, so every computed numerator N and
      denominator D, of a lattice value and of the bound alike, is within
      e <= 2^-48 of its exact value, and N/D is within
      e (1 + N/D)/(D - e) of the exact quotient.  With D >= den, the
      least denominator the bound divides by, and den >= BOX_ROUNDING =
      2^-40, both errors together are below 2^-46 (1 + bound)/den.  The
      margin ``BOX_ROUNDING * (1 + bound)/den`` is 64 times that, so a
      dropped box also holds no value within rounding of the incumbent.
      The feasibility tests have ``BOX_ROUNDING`` of slack, above the
      1e-15 of case i and the rounding of s and p.
    """
    u_lo = x0 + y0
    p_lo = x0 * y0
    p_hi = x1 * y1
    # case i or case ii may be feasible somewhere in the box
    pair = (u_lo - p_lo <= 0.5 + BOX_ROUNDING) | (p_lo <= 0.5 + snap + BOX_ROUNDING)
    q = np.minimum(p_hi, 0.5) + snap
    den_pair = np.where(pair, u_lo - 2.0 * p_hi, np.inf)
    den_iii = u_lo - 2.0 * q
    den = np.minimum(den_pair, den_iii)
    kept = den < BOX_ROUNDING
    den_pair, den_iii, den = (np.where(kept, 1.0, d) for d in (den_pair, den_iii, den))
    bound = np.maximum(
        (np.minimum(2.0 * (u_lo - p_hi), 1.0) + 4.0 * snap) / den_pair, 2.0 * q / den_iii
    )
    bound = np.where(kept, np.inf, bound)
    return bound, BOX_ROUNDING * (1.0 + bound) / den


def _split_boxes(boxes):
    """Halve each (i0, i1, j0, j1) box along both sides; a side of one
    index gives one half, not two."""
    i0, i1, j0, j1 = boxes.T
    mi, mj = (i0 + i1 + 1) // 2, (j0 + j1 + 1) // 2
    children = np.stack([
        np.concatenate([i0, i0, mi, mi]), np.concatenate([mi - 1, mi - 1, i1, i1]),
        np.concatenate([j0, mj, j0, mj]), np.concatenate([mj - 1, j1, mj - 1, j1]),
    ], axis=1)
    return children[(children[:, 0] <= children[:, 1]) & (children[:, 2] <= children[:, 3])]


def _lattice_cases(i, j, res: int):
    """The ratio objective at lattice points (x, y) = (i / res, j / res),
    index arrays broadcast against each other, per case, in the order i at
    d = 0, i at its top lattice d, ii, iii (-inf where the case is
    infeasible or the denominator vanishes), and the per-point values that
    :func:`_lattice_point` reads."""
    eps = LATTICE_SNAP
    x, y = i / res, j / res
    one_minus_x, one_minus_y = 1.0 - x, 1.0 - y
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


def _lattice_point(case: int, i: int, j: int, res: int) -> AlphaPoint:
    """The point that case ``case`` of :func:`_lattice_cases` evaluates at
    the lattice point (i / res, j / res), from the same operations."""
    a_full, b_full, c_full, d_top, nb, s_units, a_top = map(float, _lattice_cases(i, j, res)[1])
    x, y = i / res, j / res
    if case < 2:
        return make_alpha_point(x, y, a_full, b_full, c_full, d_top if case else 0.0, "i")
    if case == 2:
        b_units = min(nb, s_units)
        return make_alpha_point(x, y, a_full, b_units / res, (s_units - b_units) / res, 0.0, "ii")
    return make_alpha_point(x, y, a_top, 0.0, 0.0, 0.0, "iii")
