"""Acceptance battery: one test per criterion, at the stated tolerances.

Each test prints a single PASS line with its headline numbers (visible
with ``pytest -s`` or in the captured output).  The instance batteries
for the randomized criteria are built once per module and shared.
"""

import numpy as np
import pytest

from crossclust import (
    BINARY_L1_RATIO_BOUND,
    Norm,
    analytic_optima,
    grid_search_alpha,
    l2_decomposition,
    lloyd_kcluster,
    kcluster_cols,
    per_bicluster_bound,
    planted_real_matrix,
    random_binary_matrix,
    random_real_matrix,
    ratio,
    swap_normalize,
    terminal_structure,
    worst_case_report,
)
from crossclust.oneway import SolverMode
from crossclust.rng import derive_seed

TOL = 1e-9
ALPHA_BINARY = BINARY_L1_RATIO_BOUND
ALPHA_REAL = 2.0


def _collect(x, k_r, k_c, norm, seed):
    """Ratio report plus heuristic one-way costs for one instance."""
    rep = ratio(x, k_r, k_c, norm)
    heur_rows = lloyd_kcluster(x, k_r, norm, restarts=2, seed=seed)
    heur_cols = kcluster_cols(x, k_c, norm, SolverMode.heuristic(restarts=2, seed=seed))
    return {
        "x": x,
        "report": rep,
        "heuristic_l_r": heur_rows.cost,
        "heuristic_l_c": heur_cols.cost,
    }


@pytest.fixture(scope="module")
def binary_battery():
    """>= 500 seeded binary instances: n, m in 2..6, ones probability in
    {0.2, 0.5}, cluster budgets in {1, 2, 3} (capped by the dimension)."""
    records = []
    seed = 0
    for n in range(2, 7):
        for m in range(2, 7):
            for p in (0.2, 0.5):
                for k_r in range(1, min(3, n) + 1):
                    for k_c in range(1, min(3, m) + 1):
                        for _ in range(2):
                            seed += 1
                            x = random_binary_matrix(n, m, p, derive_seed(1000, seed))
                            records.append(_collect(x, k_r, k_c, Norm.L1, seed))
    assert len(records) >= 500
    return records


@pytest.fixture(scope="module")
def real_battery():
    """>= 500 seeded uniform and planted real instances: n, m in 2..5,
    cluster budgets in {1, 2}."""
    records = []
    seed = 0
    for n in range(2, 6):
        for m in range(2, 6):
            for k_r in (1, 2):
                for k_c in (1, 2):
                    for planted in (False, True):
                        for _ in range(4):
                            seed += 1
                            s = derive_seed(2000, seed)
                            x = (
                                planted_real_matrix(n, m, s)
                                if planted
                                else random_real_matrix(n, m, s)
                            )
                            records.append(_collect(x, k_r, k_c, Norm.L2, seed))
    assert len(records) >= 500
    return records


def test_criterion_1_worst_case_family_exactness():
    for q in range(1, 101):
        rep = worst_case_report(q)
        assert rep.passed, f"q={q}: {rep.failures}"
        assert int(rep.l_scheme) == 8 * q - 2
        assert int(rep.l_star) == 4 * q
        assert rep.scheme_rows.assignment == (0, 0, 1, 1)
        assert rep.optimal_rows.assignment == (0, 1, 0, 1)
    print("\n[criterion 1] worst-case family exactness q=1..100: PASS")


def test_criterion_2_binary_l1_ratio_bound(binary_battery):
    violations = [
        r for r in binary_battery if r["report"].ratio > ALPHA_BINARY + TOL
    ]
    assert not violations
    assert all(r["report"].certified for r in binary_battery)
    worst = max(r["report"].ratio for r in binary_battery)
    print(
        f"\n[criterion 2] binary/L1 ratio bound on {len(binary_battery)} instances: "
        f"PASS (max ratio {worst:.6f} <= {ALPHA_BINARY:.6f})"
    )


def test_criterion_3_real_l2_ratio_bound(real_battery):
    violations = [r for r in real_battery if r["report"].ratio > ALPHA_REAL + TOL]
    assert not violations
    assert all(r["report"].certified for r in real_battery)
    worst = max(r["report"].ratio for r in real_battery)
    print(
        f"\n[criterion 3] real/L2 ratio bound on {len(real_battery)} instances: "
        f"PASS (max ratio {worst:.6f} <= 2)"
    )


def test_criterion_4_per_bicluster_inequality():
    # exhaustive over every 0/1 matrix with at most 4 rows and 4 columns
    checked = 0
    for n in range(1, 5):
        for m in range(1, 5):
            cells = n * m
            for bits in range(2**cells):
                arr = np.array(
                    [(bits >> i) & 1 for i in range(cells)], dtype=float
                ).reshape(n, m)
                rep = per_bicluster_bound(arr, Norm.L1, ALPHA_BINARY)
                assert rep.slack >= -TOL, f"{arr.tolist()} slack={rep.slack}"
                checked += 1
    assert checked >= 65536

    # under L2 with alpha = 2 the slack equals the additive-fit residual
    residual_checked = 0
    for i in range(1000):
        rng_seed = derive_seed(4000, i)
        n = (i % 8) + 1
        m = ((i // 8) % 8) + 1
        x = random_real_matrix(n, m, rng_seed)
        rep = per_bicluster_bound(x, Norm.L2, ALPHA_REAL)
        dec = l2_decomposition(x)
        assert abs(rep.slack - dec.residual) <= TOL * max(1.0, dec.pooled)
        assert rep.passed
        residual_checked += 1
    print(
        f"\n[criterion 4] per-block inequality: PASS "
        f"({checked} exhaustive binary blocks, {residual_checked} L2 residual checks)"
    )


def test_criterion_5_lower_bound(binary_battery, real_battery):
    # the scheme's exact one-way components are the exact one-way optima
    for record in binary_battery + real_battery:
        rep = record["report"]
        assert rep.l_star >= max(rep.l_r, rep.l_c) - TOL
    total = len(binary_battery) + len(real_battery)
    print(f"\n[criterion 5] one-way lower bound on {total} instances: PASS")


def test_criterion_6_alpha_optimization():
    result = grid_search_alpha(400)
    assert abs(result.best_value - ALPHA_BINARY) <= TOL
    assert result.best_value <= ALPHA_BINARY + TOL
    assert result.lattice_value <= ALPHA_BINARY + TOL
    for point in analytic_optima():
        assert point.objective is not None
        assert abs(point.objective - ALPHA_BINARY) <= 1e-12
    print(
        f"\n[criterion 6] ratio-constant search: PASS "
        f"(value {result.best_value:.12f}, lattice {result.lattice_value:.12f})"
    )


def test_criterion_7_swap_descent():
    checked = swaps = 0
    for i in range(1000):
        n = (i % 6) + 1
        m = ((i // 6) % 6) + 1
        x = random_binary_matrix(n, m, 0.3 + 0.2 * (i % 2), derive_seed(3000, i))
        arr = x.values
        if 2 * arr.sum() > arr.size:
            arr = 1.0 - arr
        ones_before = int(arr.sum())
        terminal, trace = swap_normalize(arr)
        for step in trace:
            assert step.spread_after <= step.spread_before - 1.0 + TOL
        assert int(terminal.sum()) == ones_before  # pooled cost preserved
        assert terminal_structure(terminal) in ("i", "ii", "iii")
        checked += 1
        swaps += len(trace)
    assert checked == 1000
    print(
        f"\n[criterion 7] swap descent: PASS ({checked} matrices, {swaps} swaps applied)"
    )


def test_criterion_8_oracle_consistency(binary_battery, real_battery):
    for record in binary_battery + real_battery:
        rep = record["report"]
        assert rep.l_star <= rep.l + TOL
        assert record["heuristic_l_r"] >= rep.l_r - TOL
        assert record["heuristic_l_c"] >= rep.l_c - TOL
    total = len(binary_battery) + len(real_battery)
    print(f"\n[criterion 8] oracle and heuristic consistency on {total} instances: PASS")
