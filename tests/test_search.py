"""Tests for the scheme and the brute-force biclustering oracle."""

from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from crossclust import (
    BINARY_L1_RATIO_BOUND,
    CapExceededError,
    DataMatrix,
    Norm,
    Partition,
    SolverMode,
    ValidationError,
    biclustering_cost,
    exact_biclustering,
    exact_kcluster,
    planted_real_matrix,
    random_binary_matrix,
    random_real_matrix,
    ratio,
    run_scheme,
    worst_case_matrix,
)
from crossclust import cost, search

from oracles import exact_biclustering_naive

EXACT = SolverMode.exact()

#: Quarters whose medians tie, a -0.0 among them, and column 4 shifted by
#: 1e7: its one-block L1 cost is 70,000,013.25, and its optima cost a few
#: units, 1e-8 to 2e-7 of that (the literal 7x7 matrix of
#: ``tools/same_outputs.py``'s real-L1 median ops).
MEDIANS_7X7 = DataMatrix([
    [-0.0 if (i, j) == (1, 0) else (2 * i + 3 * j) % 5 / 4 - 0.5 + (1e7 if j == 4 else 0.0)
     for j in range(7)]
    for i in range(7)
])


class TestRunScheme:
    def test_all_singletons_zero(self):
        x = random_real_matrix(4, 3, seed=1)
        result = run_scheme(x, 4, 3, Norm.L2, EXACT)
        assert result.breakdown.l == 0.0

    def test_worst_case_q2(self):
        result = run_scheme(worst_case_matrix(2), 2, 1, Norm.L1, EXACT)
        assert result.breakdown.l == 14.0
        assert result.biclustering.rows.assignment == (0, 0, 1, 1)

    def test_one_by_one(self):
        x = DataMatrix([[0.7]])
        result = run_scheme(x, 1, 1, Norm.L2, EXACT)
        assert result.breakdown.l == 0.0
        assert result.biclustering.per_bicluster_costs.shape == (1, 1)

    def test_row_component_matches_exact_solver_exactly(self):
        x = random_binary_matrix(6, 5, 0.5, seed=12)
        result = run_scheme(x, 3, 2, Norm.L1, EXACT)
        assert result.breakdown.l_r == exact_kcluster(x, 3, Norm.L1).cost

    def test_breakdown_consistent_with_recomputation(self):
        x = random_real_matrix(5, 5, seed=3)
        result = run_scheme(x, 2, 2, Norm.L2, EXACT)
        recomputed, _ = biclustering_cost(
            x, result.biclustering.rows, result.biclustering.cols, Norm.L2
        )
        assert result.breakdown.l == pytest.approx(recomputed.l, abs=1e-9)

    def test_heuristic_mode(self):
        # the scheme minimizes the two one-way objectives, not the crossed
        # cost, so only the one-way components are comparable across modes
        x = random_real_matrix(5, 5, seed=3)
        result = run_scheme(x, 2, 2, Norm.L2, SolverMode.heuristic(restarts=3, seed=1))
        exact = run_scheme(x, 2, 2, Norm.L2, EXACT)
        assert result.mode.kind == "heuristic"
        assert result.breakdown.l_r >= exact.breakdown.l_r - 1e-9
        assert result.breakdown.l_c >= exact.breakdown.l_c - 1e-9


@st.composite
def scheme_cases(draw):
    """A matrix of up to 6 x 6 (0/1, uniform, planted, or uniform shifted
    by 1e7), cluster counts with k = 1 drawn often on either axis, a norm
    and a mode: exact, or heuristic with 1 or 3 restarts."""
    n, m, seed = draw(st.integers(1, 6)), draw(st.integers(1, 6)), draw(st.integers(0, 2**32))
    x = draw(st.sampled_from([
        lambda: random_binary_matrix(n, m, 0.5, seed),
        lambda: random_real_matrix(n, m, seed),
        lambda: planted_real_matrix(n, m, seed),
        lambda: DataMatrix(random_real_matrix(n, m, seed).values + 1e7),
    ]))()
    k_r, k_c = (draw(st.one_of(st.just(1), st.integers(1, min(t, 3)))) for t in (n, m))
    mode = draw(st.sampled_from([EXACT, SolverMode.heuristic(1, seed), SolverMode.heuristic(3, seed)]))
    return x, k_r, k_c, draw(st.sampled_from(Norm)), mode


class TestSchemeCrossing:
    """``run_scheme`` takes the crossing's L_R and L_C from its one-way
    solves; they must be the costs a from-scratch evaluation gives, bit
    for bit."""

    @settings(max_examples=300, deadline=None)
    @given(scheme_cases())
    def test_breakdown_is_the_from_scratch_one(self, case):
        x, k_r, k_c, norm, mode = case
        result = run_scheme(x, k_r, k_c, norm, mode)
        bic = result.biclustering
        breakdown, grid = biclustering_cost(x, bic.rows, bic.cols, norm)
        assert result.breakdown == breakdown
        assert np.array_equal(bic.per_bicluster_costs, grid)

    def test_given_costs_skip_the_oneway_evaluation(self):
        x = random_real_matrix(5, 4, seed=2)
        rows, cols = Partition((0, 1, 0, 1, 2), 3), Partition((0, 0, 1, 1), 2)
        calls = []

        def spy(name):
            original = getattr(cost, name)
            return patch.object(cost, name, lambda *a: calls.append(name) or original(*a))

        with spy("oneway_row_cost"), spy("oneway_col_cost"):
            full, grid = biclustering_cost(x, rows, cols, Norm.L2)
            assert calls == ["oneway_row_cost", "oneway_col_cost"]
            calls.clear()
            given_costs, given_grid = biclustering_cost(
                x, rows, cols, Norm.L2, oneway=(full.l_r, full.l_c)
            )
        assert not calls
        assert given_costs == full and np.array_equal(given_grid, grid)


class TestExactBiclustering:
    def test_constant_matrix_first_canonical(self):
        x = DataMatrix(np.full((3, 3), 4.0))
        opt = exact_biclustering(x, 2, 2, Norm.L1)
        assert opt.cost == 0.0
        # every pair costs zero, so the very first enumerated pair wins
        assert opt.rows.assignment == (0, 0, 0)
        assert opt.cols.assignment == (0, 0, 0)

    def test_worst_case_q2(self):
        opt = exact_biclustering(worst_case_matrix(2), 2, 1, Norm.L1)
        assert opt.rows.assignment == (0, 1, 0, 1)
        assert opt.cost == 8.0

    @pytest.mark.parametrize("norm", [Norm.L1, Norm.L2])
    @pytest.mark.parametrize("seed", range(6))
    def test_never_above_scheme(self, norm, seed):
        x = (
            random_binary_matrix(5, 4, 0.5, seed)
            if norm is Norm.L1
            else random_real_matrix(5, 4, seed)
        )
        opt = exact_biclustering(x, 2, 2, norm)
        scheme = run_scheme(x, 2, 2, norm, EXACT)
        assert opt.cost <= scheme.breakdown.l + 1e-9

    @pytest.mark.parametrize("seed", range(5))
    def test_binary_l1_matches_naive_oracle(self, seed):
        x = random_binary_matrix(4, 3, 0.5, seed)
        for k_r, k_c in ((1, 2), (2, 2), (3, 2), (2, 3)):
            opt = exact_biclustering(x, k_r, k_c, Norm.L1)
            naive = exact_biclustering_naive(x.values.tolist(), k_r, k_c, "l1")
            assert opt.cost == pytest.approx(naive, abs=1e-9)

    def test_exhaustive_3x3_binary_matches_naive_oracle(self):
        # every 0/1 matrix on 3x3, two clusters per axis
        for bits in range(2**9):
            rows = [[float((bits >> (3 * i + j)) & 1) for j in range(3)] for i in range(3)]
            x = DataMatrix(rows)
            opt = exact_biclustering(x, 2, 2, Norm.L1)
            naive = exact_biclustering_naive(rows, 2, 2, "l1")
            assert opt.cost == naive

    @pytest.mark.parametrize("seed", range(5))
    def test_real_l2_matches_naive_oracle(self, seed):
        x = random_real_matrix(4, 3, seed)
        opt = exact_biclustering(x, 2, 2, Norm.L2)
        naive = exact_biclustering_naive(x.values.tolist(), 2, 2, "l2")
        assert opt.cost == pytest.approx(naive, abs=1e-9)

    @pytest.mark.parametrize("seed", range(4))
    def test_real_l1_slow_path_matches_naive_oracle(self, seed):
        # L1 on real values has no blockwise fast path; this exercises the
        # direct-evaluation branch
        x = random_real_matrix(4, 3, seed)
        assert not x.is_binary
        opt = exact_biclustering(x, 2, 2, Norm.L1)
        naive = exact_biclustering_naive(x.values.tolist(), 2, 2, "l1")
        assert opt.cost == pytest.approx(naive, abs=1e-9)

    def test_cost_is_recomputable(self):
        x = random_binary_matrix(5, 5, 0.3, seed=8)
        opt = exact_biclustering(x, 2, 2, Norm.L1)
        breakdown, _ = biclustering_cost(x, opt.rows, opt.cols, Norm.L1)
        assert opt.cost == pytest.approx(breakdown.l, abs=1e-12)

    def test_a_near_tie_relative_to_scale_keeps_the_least_cost(self):
        # the all-in-one row partition comes first and costs 14.75, 1.4e-8 of
        # the one-block cost above the optimum: a tie tolerance of 1e-6 would
        # let it win
        opt = exact_biclustering(MEDIANS_7X7, 2, 2, Norm.L1)
        assert opt.rows.assignment == (0, 1, 0, 0, 0, 0, 1)
        assert opt.cols.assignment == (0, 0, 0, 0, 1, 0, 0)
        assert opt.cost == 13.75

    def test_default_caps(self):
        x = random_binary_matrix(9, 4, 0.5, seed=2)
        with pytest.raises(CapExceededError):
            exact_biclustering(x, 2, 2, Norm.L1)
        # caller may raise the cap explicitly
        opt = exact_biclustering(x, 2, 2, Norm.L1, row_cap=9)
        assert opt.cost >= 0.0

    def test_trivial_axis_bypasses_cap(self):
        # a single column cluster needs no enumeration at any width
        x = worst_case_matrix(30)  # 4 x 119
        opt = exact_biclustering(x, 2, 1, Norm.L1)
        assert opt.cost == 120.0  # 4q

    def test_invalid_k(self):
        x = random_binary_matrix(3, 3, 0.5, seed=2)
        with pytest.raises(ValidationError):
            exact_biclustering(x, 0, 1, Norm.L1)
        with pytest.raises(ValidationError):
            exact_biclustering(x, 1, 4, Norm.L1)


class TestRatio:
    def test_constant_matrix_convention(self):
        x = DataMatrix(np.zeros((3, 3)))
        rep = ratio(x, 2, 2, Norm.L1)
        assert rep.ratio == 1.0
        assert rep.l == 0.0 and rep.l_star == 0.0
        assert rep.certified is True

    def test_worst_case_q2(self):
        rep = ratio(worst_case_matrix(2), 2, 1, Norm.L1)
        assert rep.ratio == pytest.approx(1.75)
        assert rep.alpha_bound == pytest.approx(BINARY_L1_RATIO_BOUND)
        assert rep.certified is True

    def test_worst_case_q50(self):
        rep = ratio(worst_case_matrix(50), 2, 1, Norm.L1)
        assert rep.ratio == pytest.approx(1.99)

    def test_l1_real_has_no_certificate(self):
        x = random_real_matrix(4, 4, seed=5)
        rep = ratio(x, 2, 2, Norm.L1)
        assert rep.alpha_bound is None
        assert rep.certified is None

    def test_l2_binary_certified_at_two(self):
        x = random_binary_matrix(4, 4, 0.5, seed=5)
        rep = ratio(x, 2, 2, Norm.L2)
        assert rep.alpha_bound == 2.0
        assert rep.certified is True

    def test_zero_cost_planted_blocks(self):
        # block-constant matrix: optimal cost 0, and the scheme must
        # also reach 0 through the exact one-way solvers
        rows = [[5.0] * 3 + [1.0] * 2] * 2 + [[0.0] * 3 + [7.0] * 2] * 2
        x = DataMatrix(rows)
        rep = ratio(x, 2, 2, Norm.L2)
        assert rep.l_star == pytest.approx(0.0, abs=1e-12)
        assert rep.l == pytest.approx(0.0, abs=1e-12)
        assert rep.ratio == 1.0

    @pytest.mark.parametrize("k, l_r, l_c, l, l_star, value", [
        pytest.param(2, 8.25, 12.75, 14.25, 13.75, 1.0363636363636364, id="k22"),
        pytest.param(3, 5.0, 5.0, 8.0, 6.75, 1.1851851851851851, id="k33"),
    ])
    def test_a_small_optimum_relative_to_scale_is_not_zero(self, k, l_r, l_c, l, l_star, value):
        # l* is 2e-7 and 1e-7 of the one-block cost: a zero test at 1e-6 of
        # it would call it 0, and the nonzero scheme cost a violation
        rep = ratio(MEDIANS_7X7, k, k, Norm.L1)
        assert (rep.l_r, rep.l_c, rep.l, rep.l_star) == (l_r, l_c, l, l_star)
        assert rep.ratio == value
        assert rep.certified is None

    @pytest.mark.parametrize("excess, certified", [(1e-7, False), (1e-10, True)])
    def test_certificate_slack(self, excess, certified):
        # a ratio above alpha by at most RATIO_SLACK (1e-9) is certified, and
        # one 1e-7 above it is not
        x = random_real_matrix(5, 4, seed=3)
        value = ratio(x, 2, 2, Norm.L2).ratio
        with patch.object(search, "certificate_bound", lambda norm, is_binary: value - excess):
            rep = ratio(x, 2, 2, Norm.L2)
        assert (rep.ratio, rep.alpha_bound) == (value, value - excess)
        assert rep.certified is certified

    def test_report_metadata(self):
        x = random_binary_matrix(4, 5, 0.5, seed=9)
        rep = ratio(x, 2, 3, Norm.L1)
        assert rep.dims == (4, 5)
        assert (rep.k_r, rep.k_c) == (2, 3)
        assert rep.norm is Norm.L1
