"""Metamorphic properties of the exact path: ``exact_kcluster``,
``exact_biclustering`` and ``ratio`` under transformations whose effect on
every cost the maths fixes (scaling, translation, transpose, permutation,
0/1 complement), plus the scale-free tolerances of ``ratio`` and
``lower_bound_check``.

Costs are compared within the exact solvers' tie tolerance, ``TIE_RTOL``
times the cost of the whole matrix as one block, and ratios within
``RATIO_SLACK``."""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from crossclust import (
    DataMatrix,
    Norm,
    exact_biclustering,
    exact_kcluster,
    lower_bound_check,
    per_bicluster_bound,
    random_real_matrix,
    ratio,
)
from crossclust.cost import TIE_RTOL, pooled_cost
from crossclust.search import RATIO_SLACK

SETTINGS = settings(max_examples=25, deadline=None)


@st.composite
def instances(draw, kinds=("uniform", "dyadic", "binary"), norms=(Norm.L1, Norm.L2)):
    """(values, norm, k_r, k_c) with at most 5x5 values: uniform reals, 0/1,
    or multiples of 1/8 in [0, 4), which hold exact ties and shift exactly."""
    norm = draw(st.sampled_from(norms))
    kind = draw(st.sampled_from(kinds))
    n, m = draw(st.integers(2, 5)), draw(st.integers(1, 5))
    if kind == "uniform":
        values = random_real_matrix(n, m, draw(st.integers(0, 2**32))).values
    else:
        cells = st.sampled_from([0, 1]) if kind == "binary" else st.integers(0, 31)
        grid = draw(st.lists(st.lists(cells, min_size=m, max_size=m), min_size=n, max_size=n))
        values = np.array(grid, dtype=float) / (1 if kind == "binary" else 8)
    return values, norm, draw(st.integers(1, min(3, n))), draw(st.integers(1, min(3, m)))


def solve(values, norm, k_r, k_c):
    x = DataMatrix(values)
    return exact_kcluster(x, k_r, norm), exact_biclustering(x, k_r, k_c, norm), ratio(x, k_r, k_c, norm)


def assume_real(*arrays):
    """0/1 input carries the L1 certificate; a transformation that makes or
    unmakes 0/1 input changes the report by design."""
    assume(not any(DataMatrix(a).is_binary for a in arrays))


def assert_close(got, expected, values, norm):
    assert abs(got - expected) <= TIE_RTOL * pooled_cost(values, norm)


class TestScaling:
    @SETTINGS
    @given(instances(kinds=("uniform", "dyadic")), st.integers(-40, 40))
    def test_costs_scale_and_the_report_does_not_change(self, inst, e):
        # a power of two scales every float operation exactly
        values, norm, k_r, k_c = inst
        s = 2.0**e
        assume_real(values, values * s)
        power = 1 if norm is Norm.L1 else 2
        (sol, opt, rep), (sol_s, opt_s, rep_s) = solve(*inst), solve(values * s, norm, k_r, k_c)
        assert sol_s.partition == sol.partition
        assert (opt_s.rows, opt_s.cols) == (opt.rows, opt.cols)
        for got, expected in [(sol_s.cost, sol.cost), (opt_s.cost, opt.cost),
                              (rep_s.l, rep.l), (rep_s.l_star, rep.l_star)]:
            assert_close(got, expected * s**power, values * s, norm)
        assert rep_s.ratio == rep.ratio
        assert rep_s.certified == rep.certified


class TestTranslation:
    @SETTINGS
    @given(instances(kinds=("dyadic",)), st.integers(-64, 64))
    def test_costs_and_partitions_do_not_change(self, inst, shift):
        values, norm, k_r, k_c = inst
        assume_real(values, values + shift)
        (sol, opt, rep), (sol_t, opt_t, rep_t) = solve(*inst), solve(values + shift, norm, k_r, k_c)
        assert sol_t.partition == sol.partition
        assert (opt_t.rows, opt_t.cols) == (opt.rows, opt.cols)
        for got, expected in [(sol_t.cost, sol.cost), (opt_t.cost, opt.cost),
                              (rep_t.l, rep.l), (rep_t.l_star, rep.l_star)]:
            assert_close(got, expected, values, norm)
        assert rep_t.ratio == pytest.approx(rep.ratio, rel=RATIO_SLACK)
        assert rep_t.certified == rep.certified


class TestTranspose:
    @SETTINGS
    @given(instances())
    def test_swapping_the_budgets_keeps_the_optimum(self, inst):
        values, norm, k_r, k_c = inst
        x, xt = DataMatrix(values), DataMatrix(values.T)
        opt, opt_t = exact_biclustering(x, k_r, k_c, norm), exact_biclustering(xt, k_c, k_r, norm)
        assert_close(opt_t.cost, opt.cost, values, norm)
        rep, rep_t = ratio(x, k_r, k_c, norm), ratio(xt, k_c, k_r, norm)
        for got, expected in [(rep_t.l_r, rep.l_c), (rep_t.l_c, rep.l_r),
                              (rep_t.l, rep.l), (rep_t.l_star, rep.l_star)]:
            assert_close(got, expected, values, norm)
        assert rep_t.ratio == pytest.approx(rep.ratio, rel=RATIO_SLACK)


class TestPermutation:
    @SETTINGS
    @given(instances(), st.data())
    def test_optimal_costs_do_not_change(self, inst, data):
        # the scheme's crossing cost l is left out: equally good one-way
        # partitions may be tie-broken differently once reordered
        values, norm, k_r, k_c = inst
        rows = data.draw(st.permutations(range(values.shape[0])))
        cols = data.draw(st.permutations(range(values.shape[1])))
        (sol, opt, rep), (sol_p, opt_p, rep_p) = solve(*inst), solve(
            values[np.ix_(rows, cols)], norm, k_r, k_c
        )
        for got, expected in [(sol_p.cost, sol.cost), (opt_p.cost, opt.cost),
                              (rep_p.l_r, rep.l_r), (rep_p.l_c, rep.l_c)]:
            assert_close(got, expected, values, norm)


class TestComplement:
    @SETTINGS
    @given(instances(kinds=("binary",), norms=(Norm.L1,)))
    def test_binary_l1_is_unchanged(self, inst):
        # a 0/1 group costs min(ones, zeros), which swapping 0 and 1 keeps
        values, norm, k_r, k_c = inst
        (sol, opt, rep), (sol_c, opt_c, rep_c) = solve(*inst), solve(1.0 - values, norm, k_r, k_c)
        assert (sol_c.partition, sol_c.cost) == (sol.partition, sol.cost)
        assert (opt_c.rows, opt_c.cols, opt_c.cost) == (opt.rows, opt.cols, opt.cost)
        assert rep_c == rep


class TestScaleFreeTolerances:
    def test_ratio_l2_keeps_its_value_at_small_scale(self):
        x = DataMatrix(random_real_matrix(5, 5, 1).values * 2.0**-20)
        rep = ratio(x, 2, 2, Norm.L2)
        assert rep.ratio == pytest.approx(1.2364, abs=1e-4)
        assert rep.certified

    def test_ratio_l1_keeps_its_value_at_small_scale(self):
        x = DataMatrix(random_real_matrix(5, 5, 0).values * 2.0**-44)
        assert ratio(x, 2, 2, Norm.L1).ratio == pytest.approx(1.0230, abs=1e-4)

    def test_lower_bound_holds_at_large_scale(self):
        # with one row cluster and every column alone, l_star equals the
        # one-way row optimum, but the two come from different routines
        x = DataMatrix(random_real_matrix(4, 4, 0).values * 2.0**20)
        rep = lower_bound_check(x, 1, 4, Norm.L2)
        assert rep.l_star == pytest.approx(rep.l_r, rel=1e-12)
        assert rep.passed

    @pytest.mark.parametrize("e", [0, 20, 30])
    def test_per_block_bound_holds_at_large_scale(self, e):
        # an additive block meets the L2 inequality with equality
        block = np.add.outer([0.1, 0.1, 0.8], [0.7, 0.8, 0.5]) * 2.0**e
        assert per_bicluster_bound(block, Norm.L2, 2.0).passed
