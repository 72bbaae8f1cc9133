"""Tests for the certification machinery: per-block inequality, lower
bound, squared-norm identity, majority blocks, swaps, and the ratio
constant search."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from crossclust import (
    BINARY_L1_RATIO_BOUND,
    REAL_L2_RATIO_BOUND,
    AlphaPoint,
    DataMatrix,
    Norm,
    Partition,
    ValidationError,
    alpha_objective,
    analytic_optima,
    biclustering_cost,
    block_decomposition,
    columnwise_cost,
    grid_search_alpha,
    l2_decomposition,
    lower_bound_check,
    make_alpha_point,
    per_bicluster_bound,
    pooled_cost,
    random_binary_matrix,
    random_real_matrix,
    rowwise_cost,
    swap_normalize,
    terminal_structure,
    worst_case_matrix,
)
from crossclust.bounds import PASS_TOL, _spread

SQRT2 = math.sqrt(2.0)

finite = st.floats(min_value=-5, max_value=5, allow_nan=False)


def real_block(max_n=6, max_m=6):
    return st.integers(1, max_n).flatmap(
        lambda n: st.integers(1, max_m).flatmap(
            lambda m: st.lists(
                st.lists(finite, min_size=m, max_size=m), min_size=n, max_size=n
            )
        )
    )


def binary_block(max_n=5, max_m=5):
    return st.integers(1, max_n).flatmap(
        lambda n: st.integers(1, max_m).flatmap(
            lambda m: st.lists(
                st.lists(st.sampled_from([0.0, 1.0]), min_size=m, max_size=m),
                min_size=n,
                max_size=n,
            )
        )
    )


class TestPerBiclusterBound:
    def test_constant_block_zero_slack(self):
        block = np.full((3, 4), 2.0)
        for norm, alpha in ((Norm.L1, BINARY_L1_RATIO_BOUND), (Norm.L2, 2.0)):
            rep = per_bicluster_bound(block, norm, alpha)
            assert rep.slack == 0.0
            assert rep.passed

    def test_single_one_block(self):
        rep = per_bicluster_bound([[1.0, 0.0], [0.0, 0.0]], Norm.L1, BINARY_L1_RATIO_BOUND)
        assert rep.pooled == 1.0
        assert rep.columnwise + rep.rowwise == 2.0
        assert rep.slack == pytest.approx(SQRT2)
        assert rep.passed

    def test_exhaustive_3x3_binary(self):
        for bits in range(2**9):
            block = np.array([(bits >> i) & 1 for i in range(9)], dtype=float).reshape(3, 3)
            assert per_bicluster_bound(block, Norm.L1, BINARY_L1_RATIO_BOUND).passed

    @pytest.mark.parametrize("n,m", [(5, 5), (6, 6), (5, 6)])
    def test_sampled_larger_binary_blocks(self, n, m):
        for seed in range(150):
            x = random_binary_matrix(n, m, 0.2 + 0.1 * (seed % 6), seed)
            assert per_bicluster_bound(x, Norm.L1, BINARY_L1_RATIO_BOUND).passed

    @given(real_block())
    @settings(max_examples=80)
    def test_l2_alpha_two_always_passes(self, rows):
        rep = per_bicluster_bound(np.array(rows), Norm.L2, 2.0)
        assert rep.passed

    @given(real_block())
    @settings(max_examples=80)
    def test_l2_slack_equals_additive_fit_residual(self, rows):
        block = np.array(rows)
        rep = per_bicluster_bound(block, Norm.L2, 2.0)
        dec = l2_decomposition(block)
        assert rep.slack == pytest.approx(dec.residual, abs=1e-8)

    @given(binary_block(max_n=4, max_m=4), st.data())
    @settings(max_examples=40)
    def test_summing_over_grid_bounds_total_cost(self, rows, data):
        # adding the per-block inequality over a full grid bounds the
        # biclustering cost by (alpha/2) * (one-way costs sum)
        x = DataMatrix(rows)
        row_part = Partition.from_labels(
            data.draw(st.lists(st.integers(0, 1), min_size=x.n_rows, max_size=x.n_rows))
        )
        col_part = Partition.from_labels(
            data.draw(st.lists(st.integers(0, 1), min_size=x.n_cols, max_size=x.n_cols))
        )
        breakdown, grid = biclustering_cost(x, row_part, col_part, Norm.L1)
        lhs = float(grid.sum())
        rhs = 0.5 * BINARY_L1_RATIO_BOUND * (breakdown.l_r + breakdown.l_c)
        assert lhs <= rhs + 1e-9


class TestLowerBound:
    def test_constant_matrix(self):
        rep = lower_bound_check(DataMatrix(np.zeros((3, 3))), 2, 2, Norm.L1)
        assert rep.l_star == rep.l_r == rep.l_c == 0.0
        assert rep.passed

    def test_worst_case_q2(self):
        rep = lower_bound_check(worst_case_matrix(2), 2, 1, Norm.L1)
        assert rep.l_star == 8.0
        assert rep.l_r == 6.0
        assert rep.l_c == 8.0
        assert rep.passed

    @pytest.mark.parametrize("seed", range(5))
    def test_random_binary(self, seed):
        x = random_binary_matrix(5, 5, 0.5, seed)
        assert lower_bound_check(x, 2, 2, Norm.L1).passed

    @pytest.mark.parametrize("seed", range(3))
    def test_random_real_l2(self, seed):
        x = random_real_matrix(4, 5, seed)
        assert lower_bound_check(x, 2, 2, Norm.L2).passed


class TestL2Decomposition:
    def test_constant(self):
        dec = l2_decomposition(np.full((2, 3), 1.5))
        assert (dec.pooled, dec.columnwise, dec.rowwise, dec.residual) == (0, 0, 0, 0)

    def test_checkerboard(self):
        dec = l2_decomposition([[0.0, 1.0], [1.0, 0.0]])
        assert dec.pooled == pytest.approx(1.0)
        assert dec.columnwise == pytest.approx(1.0)
        assert dec.rowwise == pytest.approx(1.0)
        assert dec.residual == pytest.approx(1.0)

    def test_single_row(self):
        dec = l2_decomposition([[0.0, 3.0, 1.0]])
        assert dec.columnwise == 0.0
        assert dec.pooled == pytest.approx(dec.rowwise)
        assert dec.residual == pytest.approx(0.0, abs=1e-12)

    @given(real_block(max_n=8, max_m=8))
    @settings(max_examples=100)
    def test_identity_holds(self, rows):
        dec = l2_decomposition(np.array(rows))
        scale = max(1.0, abs(dec.pooled))
        assert dec.pooled == pytest.approx(
            dec.columnwise + dec.rowwise - dec.residual, abs=1e-9 * scale
        )
        assert dec.residual >= -1e-12


    @pytest.mark.parametrize(
        "offset, scale", [(1e7, 1.0), (-1e7, 1.0), (0.0, 2.0**40), (0.0, 2.0**-40)]
    )
    def test_identity_survives_offsets_and_scales(self, offset, scale):
        rng = np.random.default_rng(11)
        for _ in range(500):
            n, m = rng.integers(1, 9, size=2)
            dec = l2_decomposition(rng.random((n, m)) * scale + offset)
            miss = abs(dec.pooled - (dec.columnwise + dec.rowwise - dec.residual))
            assert miss <= PASS_TOL * dec.pooled
            assert dec.residual >= 0.0

    @pytest.mark.parametrize("value", [0.1, -3.3, 1e7 + 0.1, 2.0**40 / 3])
    @pytest.mark.parametrize("shape", [(1, 1), (3, 1), (1, 4), (3, 5), (8, 8)])
    def test_constant_block_has_zero_residual(self, value, shape):
        dec = l2_decomposition(np.full(shape, value))
        assert type(dec.residual) is float
        assert (dec.pooled, dec.columnwise, dec.rowwise, dec.residual) == (0.0, 0.0, 0.0, 0.0)


class TestBlockDecomposition:
    def test_all_zeros(self):
        dec = block_decomposition(np.zeros((3, 3)))
        assert dec.o_r == () and dec.o_c == ()
        assert (dec.ones_a, dec.ones_b, dec.ones_c, dec.ones_d) == (0, 0, 0, 0)
        assert not dec.complemented

    def test_single_one(self):
        dec = block_decomposition([[1.0, 0.0], [0.0, 0.0]])
        assert dec.o_r == () and dec.o_c == ()
        assert dec.ones_d == 1
        assert dec.x_frac == dec.y_frac == 0.0
        assert dec.d_frac == 0.25

    def test_all_ones_complemented(self):
        dec = block_decomposition(np.ones((3, 3)))
        assert dec.complemented
        assert (dec.ones_a, dec.ones_b, dec.ones_c, dec.ones_d) == (0, 0, 0, 0)

    def test_majority_is_strict(self):
        # 2x2 column with one 1 is a tie, not a majority
        dec = block_decomposition([[1.0, 0.0], [0.0, 0.0]])
        assert dec.o_c == ()
        dec2 = block_decomposition([[1.0, 0.0], [1.0, 0.0], [1.0, 0.0], [0.0, 0.0]])
        assert dec2.o_c == (0,)

    def test_non_binary_rejected(self):
        with pytest.raises(ValidationError):
            block_decomposition([[0.5, 1.0]])

    @given(binary_block())
    @settings(max_examples=100)
    def test_fraction_invariants(self, rows):
        arr = np.array(rows)
        dec = block_decomposition(arr)
        n, m = arr.shape
        assert dec.x_frac == pytest.approx(len(dec.o_r) / n)
        assert dec.y_frac == pytest.approx(len(dec.o_c) / m)
        total = dec.ones_a + dec.ones_b + dec.ones_c + dec.ones_d
        assert total <= n * m / 2
        assert dec.a_frac <= dec.x_frac * dec.y_frac + 1e-12
        assert dec.b_frac <= dec.x_frac * (1 - dec.y_frac) + 1e-12
        assert dec.c_frac <= (1 - dec.x_frac) * dec.y_frac + 1e-12
        assert dec.d_frac <= (1 - dec.x_frac) * (1 - dec.y_frac) + 1e-12

    @given(binary_block())
    @settings(max_examples=100)
    def test_spreads_from_counts(self, rows):
        # closed forms for the two spreads in terms of quadrant one-counts
        arr = np.array(rows)
        dec = block_decomposition(arr)
        work = 1.0 - arr if dec.complemented else arr
        n, m = work.shape
        a, b, c, d = dec.ones_a, dec.ones_b, dec.ones_c, dec.ones_d
        expected_col = n * len(dec.o_c) - a + b - c + d
        expected_row = m * len(dec.o_r) - a - b + c + d
        assert columnwise_cost(work, Norm.L1) == pytest.approx(expected_col)
        assert rowwise_cost(work, Norm.L1) == pytest.approx(expected_row)


class TestSwapNormalize:
    def test_all_zeros_no_swaps(self):
        terminal, trace = swap_normalize(np.zeros((3, 3)))
        assert trace == ()
        assert np.array_equal(terminal, np.zeros((3, 3)))

    def test_constructed_4x4_swap(self):
        # a one in the low-density quadrant and a zero in the dense corner
        block = np.array(
            [[0, 1, 1, 1], [1, 0, 0, 0], [1, 0, 0, 0], [1, 0, 0, 1]], dtype=float
        )
        spread_before = columnwise_cost(block, Norm.L1) + rowwise_cost(block, Norm.L1)
        terminal, trace = swap_normalize(block)
        assert len(trace) >= 1
        assert trace[0].spread_before == spread_before
        for step in trace:
            assert step.spread_after <= step.spread_before - 1.0 + 1e-9
        assert terminal.sum() == block.sum()
        assert terminal_structure(terminal) in ("i", "ii", "iii")

    @pytest.mark.parametrize("seed", range(25))
    def test_random_terminals_classified(self, seed):
        x = random_binary_matrix(5, 5, 0.4, seed)
        arr = x.values
        if 2 * arr.sum() > arr.size:
            arr = 1.0 - arr
        terminal, trace = swap_normalize(arr)
        assert terminal_structure(terminal) in ("i", "ii", "iii")
        assert terminal.sum() == arr.sum()
        spreads = [trace[0].spread_before] + [s.spread_after for s in trace] if trace else []
        assert all(b - a >= 1.0 - 1e-9 for b, a in zip(spreads, spreads[1:]))

    def test_trace_length_bounded_by_initial_spread(self):
        x = random_binary_matrix(6, 6, 0.45, seed=99)
        arr = x.values
        if 2 * arr.sum() > arr.size:
            arr = 1.0 - arr
        initial = columnwise_cost(arr, Norm.L1) + rowwise_cost(arr, Norm.L1)
        _, trace = swap_normalize(arr)
        assert len(trace) <= initial

    def test_exhaustive_small_matrices(self):
        # every 0/1 matrix up to 3x4 with ones <= zeros terminates in a
        # classified structure with the pooled cost intact
        for n in range(1, 4):
            for m in range(1, 5):
                cells = n * m
                for bits in range(2**cells):
                    arr = np.array(
                        [(bits >> i) & 1 for i in range(cells)], dtype=float
                    ).reshape(n, m)
                    if 2 * arr.sum() > cells:
                        continue
                    terminal, trace = swap_normalize(arr)
                    assert terminal_structure(terminal) in ("i", "ii", "iii")
                    assert terminal.sum() == arr.sum()

    def test_precondition_ones_le_zeros(self):
        with pytest.raises(ValidationError):
            swap_normalize(np.ones((2, 2)))

    def test_non_binary_rejected(self):
        with pytest.raises(ValidationError):
            swap_normalize([[0.25, 0.0]])


class TestTerminalStructure:
    def test_vacuous_cases(self):
        assert terminal_structure(np.zeros((2, 2))) is not None

    def test_non_terminal_detected(self):
        # one in the sparse quadrant, zero in the dense corner: a swap applies
        block = np.array(
            [[0, 1, 1, 1], [1, 0, 0, 0], [1, 0, 0, 0], [1, 0, 0, 1]], dtype=float
        )
        assert terminal_structure(block) is None


def block_stack(entries):
    """A (B, n, m) stack of 1-6 blocks of 1-8 x 1-8 entries."""
    shapes = st.tuples(st.integers(1, 6), st.integers(1, 8), st.integers(1, 8))
    return shapes.flatmap(
        lambda shape: st.lists(
            entries, min_size=math.prod(shape), max_size=math.prod(shape)
        ).map(lambda values: np.array(values).reshape(shape))
    )


def fewer_ones(stack):
    """The stack with every block that has more ones than zeros complemented."""
    flip = 2 * stack.sum(axis=(1, 2)) > stack[0].size
    stack[flip] = 1.0 - stack[flip]
    return stack


class TestStacks:
    """Each check on a stack of blocks equals the check on every block."""

    @staticmethod
    def assert_close(stacked, single, pooled):
        assert abs(stacked - single) <= PASS_TOL * pooled

    @given(block_stack(st.sampled_from([0.0, 1.0])))
    @settings(max_examples=60, deadline=None)
    def test_per_block_inequality_binary(self, stack):
        self.check_margins(stack, Norm.L1, BINARY_L1_RATIO_BOUND)

    @given(block_stack(finite))
    @settings(max_examples=60, deadline=None)
    def test_per_block_inequality_real(self, stack):
        self.check_margins(stack, Norm.L2, REAL_L2_RATIO_BOUND)
        self.check_margins(stack, Norm.L1, BINARY_L1_RATIO_BOUND)

    def check_margins(self, stack, norm, alpha):
        rep = per_bicluster_bound(stack, norm, alpha)
        assert rep.passed.shape == (len(stack),)
        for i, block in enumerate(stack):
            one = per_bicluster_bound(block, norm, alpha)
            assert rep.passed[i] == one.passed
            for field in ("pooled", "columnwise", "rowwise", "slack"):
                self.assert_close(getattr(rep, field)[i], getattr(one, field), one.pooled)

    @given(block_stack(finite))
    @settings(max_examples=60, deadline=None)
    def test_l2_decomposition(self, stack):
        dec = l2_decomposition(stack)
        for i, block in enumerate(stack):
            one = l2_decomposition(block)
            for field in ("pooled", "columnwise", "rowwise", "residual"):
                self.assert_close(getattr(dec, field)[i], getattr(one, field), one.pooled)

    @given(block_stack(st.sampled_from([0.0, 1.0])))
    @settings(max_examples=60, deadline=None)
    def test_swap_normalize_in_lockstep(self, stack):
        stack = fewer_ones(stack)
        terminals, steps = swap_normalize(stack)
        labels = terminal_structure(terminals)
        assert not terminals.flags.writeable
        for i, block in enumerate(stack):
            terminal, trace = swap_normalize(block)
            assert np.array_equal(terminals[i], terminal)
            assert steps[i] == len(trace)
            assert labels[i] == terminal_structure(terminal) == terminal_structure(terminals[i])

    @given(block_stack(st.sampled_from([0.0, 1.0])))
    @example(np.array([[[1.0, 0.0, 1.0, 1.0]], [[0.0, 0.0, 0.0, 1.0]]]))  # 1 x m
    @example(np.array([[[1.0], [1.0], [0.0]]]))  # n x 1
    @settings(max_examples=100, deadline=None)
    def test_spread_by_counting_equals_the_direct_costs(self, stack):
        direct = columnwise_cost(stack, Norm.L1) + rowwise_cost(stack, Norm.L1)
        assert np.array_equal(_spread(stack), direct)
        for block, expected in zip(stack, direct):
            assert _spread(block) == expected

    def test_stack_rejections_match_single_blocks(self):
        stack = np.zeros((3, 2, 2))
        stack[1] = 1.0
        with pytest.raises(ValidationError, match="ones <= zeros"):
            swap_normalize(stack)
        stack[1, 0, 0] = 0.5
        with pytest.raises(ValidationError, match="0/1"):
            swap_normalize(stack)
        with pytest.raises(ValidationError, match="0/1"):
            terminal_structure(stack)
        with pytest.raises(ValidationError):
            l2_decomposition(np.zeros((2, 2, 2, 2)))


def ragged_blocks(entries):
    """Lists of 1-40 blocks of 1-8 x 1-8 entries, of mixed shapes.  A
    block is drawn whole, or with equal rows, equal columns or all entries
    equal, so that constant lines and blocks are common."""
    def block(shape):
        n, m = shape
        return st.one_of(
            arrays(float, shape, elements=entries),
            arrays(float, (1, m), elements=entries).map(lambda row: np.repeat(row, n, axis=0)),
            arrays(float, (n, 1), elements=entries).map(lambda col: np.repeat(col, m, axis=1)),
            entries.map(lambda value: np.full(shape, value)),
        )

    blocks = st.tuples(st.integers(1, 8), st.integers(1, 8)).flatmap(block)
    # a length drawn first, so that long lists are as common as short ones
    return st.integers(1, 40).flatmap(lambda k: st.lists(blocks, min_size=k, max_size=k))


def fewer_ones_blocks(blocks):
    """Every block with more ones than zeros complemented."""
    return [1.0 - b if 2 * b.sum() > b.size else b for b in blocks]


ONE_BY_ONE_M_N_BY_ONE = [np.array([[1.0]]), np.array([[0.0, 1.0, 1.0, 0.0]]),
                         np.array([[1.0], [0.0], [0.0]])]


class TestRaggedStacks:
    """A list of blocks of mixed shapes gives, block for block, what the
    2-D call on each block gives."""

    @given(ragged_blocks(st.sampled_from([0.0, 1.0])))
    @example(ONE_BY_ONE_M_N_BY_ONE)
    @example([np.array([[0.0, 1.0], [1.0, 1.0]])])  # a list of one block
    @settings(max_examples=60, deadline=None)
    def test_binary_costs_swaps_and_structures_are_equal(self, blocks):
        self.check_costs(blocks, Norm.L1, BINARY_L1_RATIO_BOUND, tol=0.0)
        self.check_costs(blocks, Norm.L2, REAL_L2_RATIO_BOUND, tol=1e-12)
        assert list(terminal_structure(blocks)) == [terminal_structure(b) for b in blocks]
        assert list(_spread(blocks)) == [_spread(b) for b in blocks]
        x = fewer_ones_blocks(blocks)
        terminals, steps = swap_normalize(x)
        assert len(terminals) == len(steps) == len(x)
        for block, terminal, n_steps in zip(x, terminals, steps):
            single, trace = swap_normalize(block)
            assert terminal.shape == block.shape and not terminal.flags.writeable
            assert np.array_equal(terminal, single)
            assert n_steps == len(trace)

    @given(ragged_blocks(finite), st.sampled_from([0.0, 1e7]))
    @example(ONE_BY_ONE_M_N_BY_ONE, 1e7)
    @example([np.full((3, 2), 0.1)], 0.0)  # three 0.1s average to no float of their own
    # a spread of 66 ulps of the offset: the 2-D pooled cost is 0.1% off the stack's
    @example([np.repeat([[0.0], [0.0], [1.22706546e-07]], 2, axis=1)], 1e7)
    @settings(max_examples=60, deadline=None)
    def test_real_costs_are_close_and_constants_cost_zero(self, blocks, offset):
        blocks = [b + offset for b in blocks]
        self.check_costs(blocks, Norm.L2, REAL_L2_RATIO_BOUND, tol=1e-12)
        self.check_costs(blocks, Norm.L1, BINARY_L1_RATIO_BOUND, tol=1e-12)
        dec = l2_decomposition(blocks)
        for i, block in enumerate(blocks):
            one = l2_decomposition(block)
            err = 1e-12 * one.pooled + block.size * (4 * np.spacing(np.abs(block).max())) ** 2
            for field in ("pooled", "columnwise", "rowwise", "residual"):
                assert abs(getattr(dec, field)[i] - getattr(one, field)) <= err
            if (block == block[:1]).all():  # every column constant
                assert dec.columnwise[i] == 0.0
            if (block == block[:, :1]).all():  # every row constant
                assert dec.rowwise[i] == 0.0
            if (block == block[0, 0]).all():
                assert dec.pooled[i] == dec.residual[i] == 0.0

    @staticmethod
    def check_costs(blocks, norm, alpha, tol):
        """Each cost within ``tol`` times the pooled cost of the 2-D call's,
        plus, under L2, what rounding the means can do: each mean is within
        a few ulps of the largest entry, and a mean off by e moves a sum of
        s squared deviations by s * e**2.  That term matters only where the
        spread is a few ulps of the offset, where the 2-D costs are no
        closer to the exact ones."""
        rep = per_bicluster_bound(blocks, norm, alpha)
        costs = (pooled_cost(blocks, norm), columnwise_cost(blocks, norm),
                 rowwise_cost(blocks, norm))
        for i, block in enumerate(blocks):
            one = per_bicluster_bound(block, norm, alpha)
            err = tol * one.pooled
            if norm is Norm.L2:
                err += block.size * (4 * np.spacing(np.abs(block).max())) ** 2
            # passed thresholds the slack, which may move by the costs' errors
            if err == 0.0 or abs(one.slack + PASS_TOL * one.pooled) > 4 * err:
                assert rep.passed[i] == one.passed
            singles = (one.pooled, one.columnwise, one.rowwise)
            for field, cost, single in zip(("pooled", "columnwise", "rowwise"), costs, singles):
                assert getattr(rep, field)[i] == cost[i]
                assert abs(cost[i] - single) <= err

    @given(block_stack(st.sampled_from([0.0, 1.0])), st.sampled_from([0.0, 1e7]))
    @settings(max_examples=40, deadline=None)
    def test_an_equal_shape_stack_equals_its_list(self, stack, offset):
        blocks = list(stack)
        assert list(terminal_structure(stack)) == list(terminal_structure(blocks))
        assert np.array_equal(_spread(stack), _spread(blocks))
        terminals, steps = swap_normalize(fewer_ones(stack.copy()))
        listed, listed_steps = swap_normalize(fewer_ones_blocks(blocks))
        assert np.array_equal(terminals, np.stack(listed)) and np.array_equal(steps, listed_steps)
        stack = stack + offset
        blocks = list(stack)
        for norm in Norm:
            for cost in (pooled_cost, columnwise_cost, rowwise_cost):
                assert np.array_equal(cost(stack, norm), cost(blocks, norm))
        for a, b in zip(l2_decomposition(stack).__dict__.values(),
                        l2_decomposition(blocks).__dict__.values()):
            assert np.array_equal(a, b)

    def test_list_rejections_match_single_blocks(self):
        blocks = [np.zeros((2, 3)), np.ones((1, 1)), np.zeros((3, 1))]
        with pytest.raises(ValidationError, match="ones <= zeros"):
            swap_normalize(blocks)
        blocks[1] = np.full((1, 1), 0.5)
        for fn in (swap_normalize, terminal_structure):
            with pytest.raises(ValidationError, match="0/1"):
                fn(blocks)
        for bad in ([np.zeros((2, 2)), np.zeros(3)], [np.zeros((2, 2)), np.zeros((0, 2))]):
            with pytest.raises(ValidationError):
                pooled_cost(bad, Norm.L2)


class TestAlphaObjective:
    def test_dense_corner_optimum(self):
        x = math.sqrt(0.5)
        p = make_alpha_point(x, x, x * x, 0.0, 0.0, 0.0, "ii")
        assert p.objective == pytest.approx(1.0 + SQRT2, abs=1e-12)

    def test_full_margin_optimum(self):
        x = 1.0 - math.sqrt(0.5)
        p = make_alpha_point(x, x, x * x, x * (1 - x), (1 - x) * x, 0.0, "i")
        assert p.objective == pytest.approx(1.0 + SQRT2, abs=1e-12)

    def test_case_iii_boundary(self):
        p = make_alpha_point(1.0, 1.0, 0.5, 0.0, 0.0, 0.0, "iii")
        assert p.objective == pytest.approx(1.0)

    def test_denominator_guard_reports_undefined(self):
        p = AlphaPoint(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, "iii")
        assert alpha_objective(p) is None

    def test_constraint_violations_named(self):
        with pytest.raises(ValidationError, match="a = x\\*y"):
            alpha_objective(AlphaPoint(0.5, 0.5, 0.1, 0.0, 0.0, 0.0, "i"))
        with pytest.raises(ValidationError, match="d = 0"):
            alpha_objective(AlphaPoint(0.5, 0.5, 0.25, 0.0, 0.0, 0.1, "ii"))
        with pytest.raises(ValidationError, match="a\\+b\\+c\\+d"):
            alpha_objective(AlphaPoint(1.0, 1.0, 1.0, 0.0, 0.0, 0.0, "iii"))
        with pytest.raises(ValidationError, match="b = 0"):
            alpha_objective(AlphaPoint(0.5, 0.5, 0.2, 0.1, 0.0, 0.0, "iii"))
        with pytest.raises(ValidationError):
            alpha_objective(AlphaPoint(0.5, 0.5, 0.25, 0.0, 0.0, 0.0, "iv"))


def lattice_max_bruteforce(res):
    """Full lattice enumeration in pure Python: every feasible lattice
    point of every case is evaluated.  Independent check of the search's
    endpoint reduction."""
    guard = 1e-12
    eps = 1e-9
    best = float("-inf")
    g = [i / res for i in range(res + 1)]
    for x in g:
        for y in g:
            a_pin = x * y
            b = x * (1.0 - y)
            c = (1.0 - x) * y
            s0 = a_pin + b + c
            d_room = min((1.0 - x) * (1.0 - y), 0.5 - s0)
            if d_room >= -1e-15:
                for k in range(int(max(d_room, 0.0) * res + eps) + 1):
                    d = k / res
                    den = x + y - 2.0 * a_pin + 2.0 * d
                    if den > guard:
                        best = max(best, 2.0 * (s0 + d) / den)
            den = x + y - 2.0 * a_pin
            cap = int((0.5 - a_pin) * res + eps) if a_pin <= 0.5 else -1
            if den > guard and cap >= 0:
                nb = int(b * res + eps)
                nc = int(c * res + eps)
                for ib in range(nb + 1):
                    for ic in range(nc + 1):
                        if ib + ic <= cap:
                            best = max(best, 2.0 * (a_pin + (ib + ic) / res) / den)
            for ia in range(int(min(a_pin, 0.5) * res + eps) + 1):
                a = ia / res
                den = x + y - 2.0 * a
                if den > guard:
                    best = max(best, 2.0 * a / den)
    return best


class TestGridSearch:
    def test_injected_optima_dominate_coarse_grid(self):
        result = grid_search_alpha(2)
        assert result.best_value == pytest.approx(1.0 + SQRT2, abs=1e-9)

    @pytest.mark.parametrize("res", [8, 20, 33])
    def test_reduction_matches_full_lattice_enumeration(self, res):
        assert grid_search_alpha(res).lattice_value == lattice_max_bruteforce(res)

    def test_resolution_400(self):
        result = grid_search_alpha(400)
        assert result.best_value == pytest.approx(1.0 + SQRT2, abs=1e-9)
        assert abs(result.lattice_value - (1.0 + SQRT2)) < 0.01
        assert result.lattice_value <= 1.0 + SQRT2 + 1e-9

    def test_lattice_improves_with_resolution(self):
        coarse = grid_search_alpha(50)
        fine = grid_search_alpha(400)
        assert fine.lattice_value >= coarse.lattice_value - 1e-12
        for r in (coarse, fine):
            assert r.lattice_value <= 1.0 + SQRT2 + 1e-9

    def test_analytic_optima_match(self):
        for point in analytic_optima():
            assert point.objective == pytest.approx(1.0 + SQRT2, abs=1e-12)

    def test_lattice_point_is_valid(self):
        result = grid_search_alpha(80)
        p = result.lattice_best
        # re-validating through the public evaluator must succeed
        assert alpha_objective(p) == pytest.approx(p.objective)

    def test_resolution_validation(self):
        with pytest.raises(ValidationError):
            grid_search_alpha(1)
