"""Input whose costs overflow: every public function that computes on the
caller's values raises one ValidationError, with no numpy warning (pytest
turns warnings into errors), whatever the caller's ``np.errstate``."""

import threading
import traceback

import numpy as np
import pytest

from crossclust import (
    DataMatrix,
    Norm,
    Partition,
    SolverMode,
    ValidationError,
    biclustering_cost,
    columnwise_cost,
    dissimilarity,
    exact_biclustering,
    exact_kcluster,
    kcluster_cols,
    kcluster_rows,
    l2_decomposition,
    lloyd_kcluster,
    lower_bound_check,
    oneway_col_cost,
    oneway_row_cost,
    per_bicluster_bound,
    pooled_cost,
    ratio,
    rowwise_cost,
    run_scheme,
)
from crossclust.cli import main
from crossclust.cost import block_costs
from crossclust.errors import overflow_guard

MESSAGE = "matrix entries too large: a cost overflows"

#: The inputs of ``tests/test_cli.py::TestOverflow``, with their norms.
MATRICES = {
    "l1": ([[1e308, 1], [-1e308, 0], [0, 1]], Norm.L1),
    "l2": ([[1e200], [-1e200], [0]], Norm.L2),
}


def _one(t: int) -> Partition:
    return Partition((0,) * t, 1)


#: Every entry point, called so that it works on the three rows of the
#: matrix: the column-side ones get the transpose.
CALLS = {
    "dissimilarity": lambda x, t, norm: dissimilarity(x.values, norm),
    "pooled_cost": lambda x, t, norm: pooled_cost(x, norm),
    "columnwise_cost": lambda x, t, norm: columnwise_cost(x, norm),
    "rowwise_cost": lambda x, t, norm: rowwise_cost(t, norm),
    "oneway_row_cost": lambda x, t, norm: oneway_row_cost(x, _one(3), norm),
    "oneway_col_cost": lambda x, t, norm: oneway_col_cost(t, _one(3), norm),
    "block_costs": lambda x, t, norm: block_costs(x, _one(3), _one(x.n_cols), norm),
    "biclustering_cost": lambda x, t, norm: biclustering_cost(x, _one(3), _one(x.n_cols), norm),
    "exact_kcluster": lambda x, t, norm: exact_kcluster(x, 2, norm),
    "lloyd_kcluster": lambda x, t, norm: lloyd_kcluster(x, 2, norm),
    "exact_biclustering": lambda x, t, norm: exact_biclustering(x, 2, 1, norm),
    "ratio": lambda x, t, norm: ratio(x, 2, 1, norm),
    "per_bicluster_bound": lambda x, t, norm: per_bicluster_bound(x, norm, 2.0),
    "l2_decomposition": lambda x, t, norm: l2_decomposition(x),
    "lower_bound_check": lambda x, t, norm: lower_bound_check(x, 2, 1, norm),
    "kcluster_rows/exact": lambda x, t, norm: kcluster_rows(x, 2, norm, SolverMode.exact()),
    "kcluster_rows/heuristic": lambda x, t, norm: kcluster_rows(
        x, 2, norm, SolverMode.heuristic()
    ),
    "kcluster_cols/exact": lambda x, t, norm: kcluster_cols(t, 2, norm, SolverMode.exact()),
    "kcluster_cols/heuristic": lambda x, t, norm: kcluster_cols(
        t, 2, norm, SolverMode.heuristic()
    ),
    "run_scheme/exact": lambda x, t, norm: run_scheme(x, 2, 1, norm, SolverMode.exact()),
    "run_scheme/heuristic": lambda x, t, norm: run_scheme(
        x, 2, 1, norm, SolverMode.heuristic()
    ),
}


@pytest.mark.parametrize("callers", [{}, {"all": "ignore"}], ids=["default", "ignore"])
@pytest.mark.parametrize("matrix", sorted(MATRICES))
@pytest.mark.parametrize("call", sorted(CALLS))
def test_one_validation_error(call, matrix, callers):
    """Also inside a caller's errstate, which the call leaves as it was."""
    rows, norm = MATRICES[matrix]
    x = DataMatrix(rows)
    before = np.geterr()
    with np.errstate(**callers):
        inside = np.geterr()
        with pytest.raises(ValidationError) as info:
            CALLS[call](x, x.transpose(), norm)
        assert np.geterr() == inside
    assert np.geterr() == before
    assert str(info.value) == MESSAGE


def test_a_nested_guarded_call_raises_under_the_callers_errstate():
    """Only the outermost guard enters ``np.errstate``: the overflow comes
    from ``pooled_cost``, a guarded call nested in ``exact_biclustering``,
    and still raises one ValidationError over the FloatingPointError."""
    x = DataMatrix(MATRICES["l2"][0])
    with np.errstate(over="ignore", invalid="ignore"):
        inside = np.geterr()
        with pytest.raises(ValidationError) as info:
            exact_biclustering(x, 2, 1, Norm.L2)
        assert np.geterr() == inside
    cause = info.value.__cause__
    assert isinstance(cause, FloatingPointError)
    assert "pooled_cost" in [frame.name for frame in traceback.extract_tb(cause.__traceback__)]


def test_a_thread_started_inside_a_guard_enters_its_own():
    x = DataMatrix(MATRICES["l2"][0])
    raised = []

    def work():
        try:
            pooled_cost(x, Norm.L2)
        except ValidationError as exc:
            raised.append(str(exc))

    @overflow_guard
    def outer():
        thread = threading.Thread(target=work)
        thread.start()
        thread.join(timeout=60)
        assert not thread.is_alive()

    outer()
    assert raised == [MESSAGE]


#: [[1e150], [-1e150], [0]] under L2: the squares stay finite.
LARGE = [[1e150], [-1e150], [0]]
LARGE_COST = 4.9999999999999995e299


def test_large_finite_costs_still_compute():
    x = DataMatrix(LARGE)
    for mode in (SolverMode.exact(), SolverMode.heuristic()):
        br = run_scheme(x, 2, 1, Norm.L2, mode).breakdown
        assert (br.l_r, br.l_c, br.l) == (LARGE_COST, 0.0, LARGE_COST)
    assert exact_biclustering(x, 2, 1, Norm.L2).cost == LARGE_COST
    rep = ratio(x, 2, 1, Norm.L2)
    assert (rep.l_star, rep.ratio, rep.certified) == (LARGE_COST, 1.0, True)


@pytest.mark.parametrize(
    "argv, field",
    [(["run"], "l"), (["run", "--mode", "heuristic"], "l"), (["exact"], "l_star"),
     (["ratio"], "l_star")],
)
def test_large_finite_costs_through_the_cli(capsys, tmp_path, argv, field):
    path = tmp_path / "large.csv"
    path.write_text("1e150\n-1e150\n0\n")
    code = main(argv + ["--input", str(path), "--norm", "l2", "--kr", "2", "--kc", "1"])
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    assert f'"{field}": 4.9999999999999995e+299' in captured.out
