"""The verification battery: seeded samples of the checkable pieces behind
the two certified ratios, run as five batteries by :func:`verify_bounds`."""

from __future__ import annotations

import numpy as np

from .bounds import (
    PASS_TOL,
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
    ratio-constant search on the step-1/``resolution`` lattice.  Returns one
    record per battery, in that order: ``name``, ``checks``, ``failures``
    (plus ``alpha`` and ``lattice_alpha`` for the search) and ``passed``."""
    if count < 1:
        raise ValidationError("count must be >= 1")
    if resolution < 2:
        raise ValidationError("resolution must be >= 2")
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


def _draw(shapes: list[tuple[int, int]], seeds) -> tuple[np.ndarray, np.ndarray]:
    """One bulk draw for blocks of the given shapes: block i holds the
    first n * m floats of the stream ``seeds[i]``, row-major, as
    ``random_real_matrix`` draws them.  Returns every block's entries, end
    to end, as :func:`~crossclust.cost._stacked` pads them, and the blocks'
    sizes."""
    sizes = np.array([n * m for n, m in shapes])
    return uniforms(seeds, sizes.tolist()), sizes


def _drawn_shapes(rng: SplitMix64, count: int, side: int):
    """Rows and columns (1..side) and a seed of ``count`` blocks, drawn
    from ``rng`` in that order: the shapes, and the seeds."""
    draws = [(rng.randint_below(side) + 1, rng.randint_below(side) + 1, rng.next_uint64())
             for _ in range(count)]
    n, m, seeds = zip(*draws)
    return list(zip(n, m)), seeds


def _battery_per_block(rng: SplitMix64, count: int):
    draws = [(rng.randint_below(6) + 1, rng.randint_below(6) + 1,
              (0.2, 0.5, 0.8)[rng.randint_below(3)], rng.next_uint64(), rng.next_uint64())
             for _ in range(count)]
    n, m, ones_p, binary_seeds, real_seeds = zip(*draws)
    shapes = list(zip(n, m))
    # the first count blocks are made binary, the last count stay real
    u, sizes = _draw(shapes * 2, binary_seeds + real_seeds)
    half = int(sizes[:count].sum())
    binary = (u[:half] < np.repeat(ones_p, sizes[:count])).astype(float)
    l1 = per_bicluster_bound(_stacked(binary, shapes), Norm.L1, BINARY_L1_RATIO_BOUND)
    l2 = per_bicluster_bound(_stacked(u[half:], shapes), Norm.L2, REAL_L2_RATIO_BOUND)
    return l1.passed.tolist() + l2.passed.tolist()


def _battery_lower_bound(rng: SplitMix64, count: int):
    for i in range(count):
        n = rng.randint_below(4) + 2
        m = rng.randint_below(4) + 2
        k_r = rng.randint_below(min(3, n)) + 1
        k_c = rng.randint_below(min(3, m)) + 1
        if i % 2 == 0:
            x = random_binary_matrix(n, m, 0.5, rng.next_uint64())
            norm = Norm.L1
        else:
            x = random_real_matrix(n, m, rng.next_uint64())
            norm = Norm.L2
        yield lower_bound_check(x, k_r, k_c, norm).passed


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
    shapes, seeds = _drawn_shapes(rng, count, 6)
    u, sizes = _draw(shapes, seeds)
    x = (u < 0.4).astype(float)
    # complement every block with more ones than zeros
    flip = 2 * np.add.reduceat(x, np.cumsum(sizes) - sizes) > sizes
    x = np.where(np.repeat(flip, sizes), 1.0 - x, x)
    # one padded stack for every check, not one per check
    return _swap_checks(_stacked(x, shapes))


def _battery_l2_identity(rng: SplitMix64, count: int):
    shapes, seeds = _drawn_shapes(rng, count, 8)
    dec = l2_decomposition(_stacked(_draw(shapes, seeds)[0], shapes))
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
