"""The verification battery as a library call: ``crossclust.verify``."""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from crossclust import (
    DescentViolationError,
    Norm,
    SolverMode,
    SplitMix64,
    ValidationError,
    exact_biclustering,
    exact_kcluster,
    kcluster_cols,
    pooled_cost,
    random_binary_matrix,
    random_real_matrix,
    verify_bounds,
)
from crossclust.bounds import MAX_RESOLUTION, PASS_TOL, grid_search_alpha
from crossclust import cost, verify
from crossclust.cost import _lower_bound_costs, _stacked
from crossclust.cli import main

from oracles import unpadded


@pytest.mark.parametrize("seed", [5, -1, 2**64 + 1])
def test_blocks_match_the_generator(seed):
    """Each block's shape and seed come off the outer stream in turn, and
    its entries are ``random_real_matrix``'s at that seed."""
    entries, shapes = verify._drawn_blocks(SplitMix64(seed), 40, 4)
    stack = _stacked(entries, shapes)
    rng, blocks = SplitMix64(seed), []
    for _ in range(40):
        n, m = rng.randint_below(4) + 1, rng.randint_below(4) + 1
        blocks.append(random_real_matrix(n, m, rng.next_uint64()).values)
    # one ragged stack holds every block, in order, each in its own shape
    assert len({b.shape for b in unpadded(stack)}) >= 2
    assert [b.shape for b in unpadded(stack)] == [b.shape for b in blocks]
    assert [b.shape for b in blocks] == [tuple(shape) for shape in shapes.tolist()]
    for block, padded in zip(blocks, unpadded(stack)):
        assert np.array_equal(padded, block)
    # each padded to the largest shape with zeros that are not valid
    assert stack.values.shape == stack.valid.shape == (40, *shapes.max(axis=0))
    assert stack.rows.tolist() == [[n] for n, _ in shapes]
    assert stack.cols.tolist() == [[m] for _, m in shapes]
    for values, valid, block in zip(stack.values, stack.valid, blocks):
        assert valid[:block.shape[0], :block.shape[1]].all()
        assert valid.sum() == block.size and not values[~valid].any()


def test_a_failing_block_fails_alone(monkeypatch):
    """A block whose swap descent fails is counted once, not with the
    rest of its ragged stack."""
    real = verify.swap_normalize
    stacks = []

    def spy(x):
        stacks.append(unpadded(x))
        return real(x)

    monkeypatch.setattr(verify, "swap_normalize", spy)
    assert verify._tally("swap descent", verify._battery_swaps(SplitMix64(3), 80))["failures"] == 0
    (stack,) = stacks  # one call on one ragged stack of every block
    assert len(stack) == 80 and len({b.shape for b in stack}) >= 2
    poison = max((b for b in stack if sum(np.array_equal(b, o) for o in stack) == 1), key=np.size)

    def failing(x):
        if any(np.array_equal(block, poison) for block in unpadded(x)):
            raise DescentViolationError("injected")
        return real(x)

    monkeypatch.setattr(verify, "swap_normalize", failing)
    tally = verify._tally("swap descent", verify._battery_swaps(SplitMix64(3), 80))
    assert tally == {"name": "swap descent", "checks": 80, "failures": 1}


@pytest.mark.parametrize("seed", [-1, 60000])
@pytest.mark.parametrize("count", [1, 7, 40])
def test_the_cli_prints_the_library_records(capsys, seed, count):
    argv = ["verify-bounds", "--seed", str(seed), "--count", str(count), "--format", "json"]
    assert main(argv) == 0
    printed = json.loads(capsys.readouterr().out)["batteries"]
    assert printed == verify_bounds(seed, count, 400)


def test_count_is_checked():
    with pytest.raises(ValidationError, match="count must be >= 1"):
        verify_bounds(1, 0, 400)


def test_resolution_is_checked_before_any_battery(monkeypatch, capsys):
    ran = []
    for name in ("_battery_per_block", "_battery_lower_bound", "_battery_swaps",
                 "_battery_l2_identity"):
        monkeypatch.setattr(verify, name, lambda *args, name=name: ran.append(name) or [])
    assert main(["verify-bounds", "--resolution", "1"]) == 3
    assert "resolution must be >= 2" in capsys.readouterr().err
    assert ran == []


def test_resolution_above_the_limit_exits_3_before_any_battery(monkeypatch, capsys):
    # the lattice search's memory is vouched for up to MAX_RESOLUTION only;
    # far above it a run exhausts the host's memory, so it is never run here
    ran = []
    for name in ("_battery_per_block", "_battery_lower_bound", "_battery_swaps",
                 "_battery_l2_identity"):
        monkeypatch.setattr(verify, name, lambda *args, name=name: ran.append(name) or [])
    assert MAX_RESOLUTION == 20_000
    assert main(["verify-bounds", "--resolution", "20001"]) == 3
    captured = capsys.readouterr()
    assert captured.err.splitlines() == ["error: resolution must be <= 20000, got 20001"]
    assert captured.out == ""
    assert ran == []
    with pytest.raises(ValidationError, match="resolution must be <= 20000"):
        grid_search_alpha(MAX_RESOLUTION + 1)


def test_resolution_at_the_limit_runs(capsys):
    assert main(["verify-bounds", "--count", "1", "--resolution", "20000"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["resolution"] == 20_000 and report["passed"] is True


#: One matrix as the lower-bound battery draws it: 2-5 rows and columns,
#: budgets of at most 3 (and at most the side), and a seed.
lower_bound_case = st.tuples(st.integers(2, 5), st.integers(2, 5), st.integers(1, 3),
                             st.integers(1, 3), st.integers(0, 2**64 - 1))


def stack_of(xs):
    """The padded stack of the matrices ``xs``, in order."""
    return _stacked(np.concatenate([x.values.ravel() for x in xs]), [x.shape for x in xs])


def assert_table_costs_are_exact(cases, norm):
    """The stacked table costs of ``cases`` (n, m, k_r, k_c, seed) against
    the public solvers: 0/1 matrices at p = 0.5 under L1 exactly, uniform
    ones under L2 within the check's tolerance."""
    xs = [random_binary_matrix(n, m, 0.5, seed) if norm is Norm.L1 else random_real_matrix(n, m, seed)
          for n, m, _, _, seed in cases]
    budgets = [(min(k_r, n), min(k_c, m)) for n, m, k_r, k_c, _ in cases]
    costs = _lower_bound_costs(stack_of(xs), budgets, norm)
    for x, (k_r, k_c), got in zip(xs, budgets, costs):
        want = (exact_biclustering(x, k_r, k_c, norm).cost, exact_kcluster(x, k_r, norm).cost,
                kcluster_cols(x, k_c, norm, SolverMode.exact()).cost, pooled_cost(x, norm))
        tol = 0.0 if norm is Norm.L1 else PASS_TOL * want[3]
        assert np.abs(got - want).max() <= tol


@settings(max_examples=40, deadline=None)
@given(cases=st.lists(lower_bound_case, min_size=1, max_size=5), binary=st.booleans())
def test_the_table_costs_are_the_exact_solvers(cases, binary):
    assert_table_costs_are_exact(cases, Norm.L1 if binary else Norm.L2)


@pytest.mark.parametrize("norm", list(Norm))
def test_a_stack_below_five_by_five_gets_its_own_table(monkeypatch, norm):
    """A stack whose largest block is 3 x 4 is read off a table over the
    groups of 3 rows and 4 columns."""
    real, shapes = cost._sum_table, []

    def spy(*args, **kwargs):
        table = real(*args, **kwargs)
        shapes.append(table.shape)
        return table

    monkeypatch.setattr(cost, "_sum_table", spy)
    cases = [(3, 4, 3, 2, 1), (2, 2, 2, 1, 2), (3, 2, 1, 2, 3), (2, 4, 2, 3, 4), (3, 3, 2, 2, 5)]
    assert_table_costs_are_exact(cases, norm)
    # the exact solvers' own tables are 2-D, one matrix each
    assert [s for s in shapes if len(s) == 3] == [(5, 2**3, 2**4)]


def test_the_table_costs_do_not_depend_on_the_chunk():
    """Over 70 matrices, three table chunks, each matrix's costs are those
    it gets alone."""
    rng = SplitMix64(11)
    for norm in (Norm.L1, Norm.L2):
        xs, budgets = [], []
        for _ in range(70):
            n, m = rng.randint_below(4) + 2, rng.randint_below(4) + 2
            if norm is Norm.L1:
                xs.append(random_binary_matrix(n, m, 0.5, rng.next_uint64()))
            else:
                xs.append(random_real_matrix(n, m, rng.next_uint64()))
            budgets.append((rng.randint_below(min(3, n)) + 1, rng.randint_below(min(3, m)) + 1))
        stacked = _lower_bound_costs(stack_of(xs), budgets, norm)
        alone = np.concatenate([_lower_bound_costs(stack_of([x]), [k], norm)
                                for x, k in zip(xs, budgets)])
        tol = 0.0 if norm is Norm.L1 else PASS_TOL * alone[:, 3:]
        assert np.all(np.abs(stacked - alone) <= tol)


@pytest.mark.parametrize("seed", [3, -1, 60000, 2**64 + 1])
def test_the_battery_stack_is_the_generators(monkeypatch, seed):
    """Battery 2's stack per norm holds, block by block, in shape and in
    bits, the matrices its generator draws at each case's seed, with each
    case's budgets; each case comes off the outer stream in turn."""
    real, seen = verify._lower_bound_costs, []

    def spy(x, budgets, norm):
        seen.append((x, np.asarray(budgets).tolist(), norm))
        return real(x, budgets, norm)

    monkeypatch.setattr(verify, "_lower_bound_costs", spy)
    assert all(verify._battery_lower_bound(SplitMix64(seed), 40))
    rng, want = SplitMix64(seed), {Norm.L1: ([], []), Norm.L2: ([], [])}
    for i in range(40):
        n, m, k_r, k_c, s = (rng.next_uint64() for _ in range(5))
        n, m = n % 4 + 2, m % 4 + 2
        norm = Norm.L1 if i % 2 == 0 else Norm.L2
        x = random_binary_matrix(n, m, 0.5, s) if norm is Norm.L1 else random_real_matrix(n, m, s)
        want[norm][0].append(x.values)
        want[norm][1].append([k_r % min(n, 3) + 1, k_c % min(m, 3) + 1])
    assert [norm for _, _, norm in seen] == [Norm.L1, Norm.L2]
    for stack, budgets, norm in seen:
        blocks, want_budgets = want[norm]
        assert budgets == want_budgets
        assert [b.shape for b in unpadded(stack)] == [b.shape for b in blocks]
        for got, block in zip(unpadded(stack), blocks):
            assert got.tobytes() == block.tobytes()
        assert not stack.values[~stack.valid].any()


@pytest.mark.parametrize("count", [8, 25, 1000])
def test_the_battery_builds_two_matrices(monkeypatch, count):
    """Only the two cross-checked matrices go through the generators."""
    built = []
    for name in ("random_binary_matrix", "random_real_matrix"):
        real = getattr(verify, name)
        monkeypatch.setattr(verify, name, lambda *a, real=real: built.append(a) or real(*a))
    assert len(list(verify._battery_lower_bound(SplitMix64(1), count))) == count
    assert len(built) == 2


def test_the_cross_check_bites(monkeypatch):
    """The first matrix of each norm goes through ``lower_bound_check``; an
    l* off the table's by more than the tolerance fails those two, and only
    those."""
    real = verify.lower_bound_check
    calls = []

    def inflated(x, k_r, k_c, norm):
        calls.append(norm)
        report = real(x, k_r, k_c, norm)
        return dataclasses.replace(report, l_star=report.l_star + 1e-6)

    battery = verify._battery_lower_bound
    assert verify._tally("one-way lower bound", battery(SplitMix64(60000), 25))["failures"] == 0
    monkeypatch.setattr(verify, "lower_bound_check", inflated)
    tally = verify._tally("one-way lower bound", battery(SplitMix64(60000), 25))
    assert tally == {"name": "one-way lower bound", "checks": 25, "failures": 2}
    assert calls == [Norm.L1, Norm.L2]
