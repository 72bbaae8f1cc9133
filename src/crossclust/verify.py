"""The verification battery: seeded samples of the checkable pieces behind
the two certified ratios, run as five batteries by :func:`verify_bounds`."""

from __future__ import annotations

import numpy as np

from .bounds import (
    PASS_TOL,
    _check_resolution,
    _lower_bound_holds,
    analytic_optima,
    grid_search_alpha,
    l2_decomposition,
    lower_bound_check,
    per_bicluster_bound,
    swap_normalize,
    terminal_structure,
)
from .cost import (
    BINARY_L1_RATIO_BOUND,
    REAL_L2_RATIO_BOUND,
    Norm,
    _Blocks,
    _lower_bound_costs,
    _stacked,
    columnwise_cost,
    rowwise_cost,
)
from .errors import BoundViolationError, ValidationError
from .rng import SplitMix64, uniforms
from .worstcase import random_binary_matrix, random_real_matrix


def verify_bounds(seed: int, count: int, resolution: int) -> list[dict]:
    """Run the five batteries, drawing every instance from one SplitMix64
    stream seeded with ``seed``: the per-block inequality, the one-way lower
    bound against the oracle (on ``max(8, count // 8)`` matrices), swap
    descent and the squared-norm identity, ``count`` samples each, then the
    ratio-constant search on the step-1/``resolution`` lattice, whose
    resolution in [2, ``MAX_RESOLUTION``] is checked before any battery
    runs.  Returns one record per battery, in that order: ``name``,
    ``checks``, ``failures`` (plus ``alpha`` and ``lattice_alpha`` for the
    search) and ``passed``."""
    if count < 1:
        raise ValidationError("count must be >= 1")
    _check_resolution(resolution)
    rng = SplitMix64(seed)
    batteries = [
        _tally("per-block inequality", _battery_per_block(rng, count)),
        _tally("one-way lower bound", _battery_lower_bound(rng, max(8, count // 8))),
        _tally("swap descent", _battery_swaps(rng, count)),
        _tally("squared-norm identity", _battery_l2_identity(rng, count)),
        _battery_alpha(resolution),
    ]
    for battery in batteries:
        battery["passed"] = battery["failures"] == 0
    return batteries


def _drawn_blocks(rng: SplitMix64, count: int, side: int) -> tuple[np.ndarray, np.ndarray]:
    """Entries and shapes, as :func:`~crossclust.cost._stacked` takes them,
    of ``count`` blocks of 1..``side`` rows and columns, each one's shape
    and seed drawn from ``rng`` and its entries as ``random_real_matrix``."""
    draws = rng.next_uint64s(3 * count).reshape(count, 3)
    shapes = (draws[:, :2] % side + 1).astype(int)
    return uniforms(draws[:, 2].tolist(), shapes.prod(axis=1)), shapes


def _battery_per_block(rng: SplitMix64, count: int):
    draws = rng.next_uint64s(5 * count).reshape(count, 5)
    shapes = (draws[:, :2] % 6 + 1).astype(int)
    sizes = shapes.prod(axis=1)
    ones_p = np.array([0.2, 0.5, 0.8])[draws[:, 2] % 3]
    # the first count blocks are made binary, the last count stay real
    u = uniforms(draws[:, 3:].T.ravel().tolist(), np.tile(sizes, 2))
    half = int(sizes.sum())
    binary = (u[:half] < np.repeat(ones_p, sizes)).astype(float)
    l1 = per_bicluster_bound(_stacked(binary, shapes), Norm.L1, BINARY_L1_RATIO_BOUND)
    l2 = per_bicluster_bound(_stacked(u[half:], shapes), Norm.L2, REAL_L2_RATIO_BOUND)
    return l1.passed.tolist() + l2.passed.tolist()


def _battery_lower_bound(rng: SplitMix64, count: int):
    """L* >= max(L_R*, L_C*) on 2-5 x 2-5 matrices at budgets up to 3, 0/1
    under L1 and uniform under L2 in turn, one padded stack per norm read by
    :func:`~crossclust.cost._lower_bound_costs`.  The first of each norm
    also goes through its generator and ``lower_bound_check``, which must
    pass and agree with them."""
    cases = rng.next_uint64s(5 * count).reshape(count, 5)  # n, m, k_r, k_c, seed
    cases[:, :2] = cases[:, :2] % 4 + 2
    cases[:, 2:4] = cases[:, 2:4] % np.minimum(cases[:, :2], 3) + 1
    for norm, half in ((Norm.L1, cases[::2]), (Norm.L2, cases[1::2])):
        shapes = half[:, :2].astype(int)
        u = uniforms(half[:, 4].tolist(), shapes.prod(axis=1))
        x = _stacked(u < 0.5 if norm is Norm.L1 else u, shapes)
        l_star, l_r, l_c, pooled = costs = _lower_bound_costs(x, half[:, 2:4].astype(int), norm).T
        ok = _lower_bound_holds(l_star, l_r, l_c, pooled, pooled)
        n, m, k_r, k_c, s = half[0].tolist()
        first = random_binary_matrix(n, m, 0.5, s) if norm is Norm.L1 else random_real_matrix(n, m, s)
        r = lower_bound_check(first, k_r, k_c, norm)
        tol = PASS_TOL * pooled[0]
        ok[0] &= r.passed and (abs(costs[:3, 0] - (r.l_star, r.l_r, r.l_c)) <= tol).all()
        yield from ok.tolist()


def _swap_checks(x: _Blocks) -> list[bool]:
    """Swap descent on a padded stack of 0/1 blocks with ones <= zeros,
    one bool per block.  A stack that raises is re-checked block by block,
    so that only the blocks that raise fail."""
    try:
        terminal, steps = swap_normalize(x)
    except BoundViolationError:
        if len(x.values) == 1:
            return [False]
        return [ok for i in range(len(x.values)) for ok in _swap_checks(x.take([i]))]
    ones = x.values.sum(axis=(1, 2))  # also the pooled L1 cost
    kept = terminal.values.sum(axis=(1, 2)) == ones
    ok = np.not_equal(terminal_structure(terminal), None) & kept
    # every swap lowers the combined spread by at least 1
    before = columnwise_cost(x, Norm.L1) + rowwise_cost(x, Norm.L1)
    after = columnwise_cost(terminal, Norm.L1) + rowwise_cost(terminal, Norm.L1)
    return (ok & (after <= before - steps + PASS_TOL * ones)).tolist()


def _battery_swaps(rng: SplitMix64, count: int):
    u, shapes = _drawn_blocks(rng, count, 6)
    sizes = shapes.prod(axis=1)
    x = (u < 0.4).astype(float)
    # complement every block with more ones than zeros
    flip = 2 * np.add.reduceat(x, np.cumsum(sizes) - sizes) > sizes
    x = np.where(np.repeat(flip, sizes), 1.0 - x, x)
    # one padded stack for every check, not one per check
    return _swap_checks(_stacked(x, shapes))


def _battery_l2_identity(rng: SplitMix64, count: int):
    dec = l2_decomposition(_stacked(*_drawn_blocks(rng, count, 8)))
    tol = PASS_TOL * dec.pooled
    ok = abs(dec.pooled - (dec.columnwise + dec.rowwise - dec.residual)) <= tol
    return (ok & (dec.residual >= -tol)).tolist()


def _tally(name: str, results) -> dict:
    """Count a battery's checks, one pass/fail bool each."""
    results = list(results)
    return {"name": name, "checks": len(results), "failures": results.count(False)}


def _battery_alpha(resolution: int) -> dict:
    result = grid_search_alpha(resolution)
    failures = 0
    if abs(result.best_value - BINARY_L1_RATIO_BOUND) > 1e-9:
        failures += 1
    if result.lattice_value > BINARY_L1_RATIO_BOUND + 1e-9:
        failures += 1
    for point in analytic_optima():
        if point.objective is None or abs(point.objective - BINARY_L1_RATIO_BOUND) > 1e-12:
            failures += 1
    return {
        "name": "ratio-constant search",
        "checks": 4,
        "failures": failures,
        "alpha": result.best_value,
        "lattice_alpha": result.lattice_value,
    }
