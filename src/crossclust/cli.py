"""Command-line front end.

Subcommands: ``run`` (the scheme), ``exact`` (the brute-force oracle),
``ratio`` (scheme vs. oracle with certificate), ``worstcase`` (the
adversarial family), ``sweep`` (ratio over seeded random instances) and
``verify-bounds`` (the whole verification battery).

Reports go to stdout as a single JSON object or a CSV table; diagnostics
go to stderr.  Exit codes: 0 success, 2 I/O error, 3 validation error
(usage errors and input whose costs overflow included), 4 enumeration cap
exceeded, 5 certified-bound violation, failed check or failed internal
check.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import sys

import numpy as np

from .bounds import (
    PASS_TOL,
    _spread,
    grid_search_alpha,
    analytic_optima,
    l2_decomposition,
    lower_bound_check,
    per_bicluster_bound,
    swap_normalize,
    terminal_structure,
)
from .cost import BINARY_L1_RATIO_BOUND, REAL_L2_RATIO_BOUND, Norm
from .errors import BoundViolationError, CapExceededError, CrossclustError, ValidationError
from .model import Partition, load_matrix_csv
from .oneway import SolverMode
from .rng import SplitMix64, derive_seed, uniforms
from .search import RatioReport, exact_biclustering, ratio, run_scheme
from .worstcase import (
    planted_real_matrix,
    random_binary_matrix,
    random_real_matrix,
    worst_case_report,
)

EXIT_OK = 0
EXIT_IO = 2
EXIT_VALIDATION = 3
EXIT_CAP = 4
EXIT_VIOLATION = 5


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crossclust",
        description=(
            "Bicluster a matrix by clustering rows and columns independently, "
            "and verify the scheme's cost-ratio guarantees against exact oracles."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, handler, text: str, with_input: bool = False):
        sp = sub.add_parser(name, help=text)
        sp.set_defaults(handler=handler)
        if with_input:
            sp.add_argument("--input", required=True, help="CSV matrix file, one row per line, no header")
        sp.add_argument("--kr", type=int, default=2, help="row cluster budget")
        sp.add_argument("--kc", type=int, default=2, help="column cluster budget")
        sp.add_argument("--norm", choices=["l1", "l2"], default="l1")
        sp.add_argument("--seed", type=int, default=1)
        sp.add_argument("--format", choices=["json", "csv"], default="json", dest="output_format")
        return sp

    sp = command("run", _cmd_run, "run the independent-clustering scheme", with_input=True)
    sp.add_argument("--mode", choices=["exact", "heuristic"], default="exact")
    sp.add_argument("--restarts", type=int, default=8, help="heuristic restarts")
    command("exact", _cmd_exact, "brute-force optimal biclustering", with_input=True)
    command("ratio", _cmd_ratio, "scheme cost over optimal cost, with certificate", with_input=True)

    sp = command("worstcase", _cmd_worstcase, "check the adversarial 4x(4q-1) family")
    sp.add_argument("--q", type=int, default=2, help="family parameter")

    sp = command("sweep", _cmd_sweep, "ratio over seeded random instances")
    sp.add_argument("--count", type=int, default=100, help="number of instances")
    sp.add_argument("--rows", type=int, default=4)
    sp.add_argument("--cols", type=int, default=4)
    sp.add_argument("--ones-p", type=float, default=0.5, dest="ones_p", help="ones probability (binary instances)")
    sp.add_argument("--planted", action="store_true", help="use planted two-block real instances for the L2 norm")

    sp = command("verify-bounds", _cmd_verify_bounds, "run the whole verification battery")
    sp.add_argument("--count", type=int, default=200, help="samples per battery")
    sp.add_argument("--resolution", type=int, default=400, help="ratio-search lattice resolution")

    return parser


#: The parser, built on first use; every parse returns a new namespace.
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 0 after --help, 2 on a usage error
        return EXIT_VALIDATION if exc.code else EXIT_OK
    try:
        args.norm = Norm.parse(args.norm)
        if getattr(args, "mode", "exact") == "exact":  # only `run` takes --mode
            args.mode = SolverMode.exact()
        else:
            args.mode = SolverMode.heuristic(restarts=args.restarts, seed=args.seed)
        if args.kr < 1 or args.kc < 1:
            raise ValidationError("cluster counts must be >= 1")
        if "count" in args and args.count < 1:
            raise ValidationError("count must be >= 1")
        # stop at the first overflow, not at a warning per kernel it reaches
        with np.errstate(over="raise", invalid="raise"):
            return args.handler(args)
    except FloatingPointError:
        print("error: matrix entries too large: a cost overflows", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except CapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except BoundViolationError as exc:
        print(f"finding: {exc}", file=sys.stderr)
        return EXIT_VIOLATION
    except CrossclustError as exc:  # a failed internal check
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VIOLATION


# ---------------------------------------------------------------------------
# Report plumbing.


def _maybe_int(value: float, integral: bool):
    """Costs on 0/1 input under L1 are integers; report them as such."""
    if not integral:
        return value
    nearest = round(value)
    if abs(value - nearest) > 1e-9:
        raise BoundViolationError(f"cost {value} expected to be integral on binary input")
    return int(nearest)


def _partition_fields(prefix: str, part: Partition) -> dict:
    display = "{" + ",".join(
        "{" + ",".join(str(i) for i in grp) + "}" for grp in part.one_based_clusters()
    ) + "}"
    return {
        f"{prefix}_assignment": list(part.assignment),
        f"{prefix}_clusters": [list(g) for g in part.one_based_clusters()],
        f"{prefix}_display": display,
    }


def _emit(report: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(report))
        return
    writer = csv.writer(sys.stdout, lineterminator="\n")
    keys = list(report.keys())
    writer.writerow(keys)
    writer.writerow([_csv_cell(report[k]) for k in keys])


def _csv_cell(value):
    if isinstance(value, (list, tuple, dict)):
        return json.dumps(value)
    if value is None:
        return ""
    return value


def _config_echo(args: argparse.Namespace) -> dict:
    return {
        "command": args.command,
        "k_r": args.kr,
        "k_c": args.kc,
        "norm": args.norm.value,
        "mode": args.mode.kind,
        "restarts": args.mode.restarts,
        "seed": args.seed,
    }


# ---------------------------------------------------------------------------
# Commands.


def _cmd_run(args: argparse.Namespace) -> int:
    x = load_matrix_csv(args.input)
    result = run_scheme(x, args.kr, args.kc, args.norm, args.mode)
    integral = x.is_binary and args.norm is Norm.L1
    report = _config_echo(args)
    report.update(
        input=args.input,
        n_rows=x.n_rows,
        n_cols=x.n_cols,
        is_binary=x.is_binary,
    )
    report.update(_partition_fields("rows", result.biclustering.rows))
    report.update(_partition_fields("cols", result.biclustering.cols))
    grid = result.biclustering.per_bicluster_costs
    report["bicluster_costs"] = [[_maybe_int(float(v), integral) for v in row] for row in grid]
    report["l_r"] = _maybe_int(result.breakdown.l_r, integral)
    report["l_c"] = _maybe_int(result.breakdown.l_c, integral)
    report["l"] = _maybe_int(result.breakdown.l, integral)
    _emit(report, args.output_format)
    return EXIT_OK


def _cmd_exact(args: argparse.Namespace) -> int:
    x = load_matrix_csv(args.input)
    opt = exact_biclustering(x, args.kr, args.kc, args.norm)
    integral = x.is_binary and args.norm is Norm.L1
    report = _config_echo(args)
    report.update(input=args.input, n_rows=x.n_rows, n_cols=x.n_cols, is_binary=x.is_binary)
    report.update(_partition_fields("rows", opt.rows))
    report.update(_partition_fields("cols", opt.cols))
    report["l_star"] = _maybe_int(opt.cost, integral)
    _emit(report, args.output_format)
    return EXIT_OK


def _ratio_fields(rep: RatioReport, integral: bool) -> dict:
    return {
        "l_r": _maybe_int(rep.l_r, integral),
        "l_c": _maybe_int(rep.l_c, integral),
        "l": _maybe_int(rep.l, integral),
        "l_star": _maybe_int(rep.l_star, integral),
        "ratio": rep.ratio,
        "alpha_bound": rep.alpha_bound,
        "certified": rep.certified,
    }


def _cmd_ratio(args: argparse.Namespace) -> int:
    x = load_matrix_csv(args.input)
    rep = ratio(x, args.kr, args.kc, args.norm, seed=args.seed)
    integral = x.is_binary and args.norm is Norm.L1
    report = _config_echo(args)
    report.update(input=args.input, n_rows=x.n_rows, n_cols=x.n_cols, is_binary=x.is_binary)
    report.update(_ratio_fields(rep, integral))
    _emit(report, args.output_format)
    return EXIT_VIOLATION if rep.certified is False else EXIT_OK


def _cmd_worstcase(args: argparse.Namespace) -> int:
    rep = worst_case_report(args.q)
    report = _config_echo(args)
    report.update(
        q=args.q,
        l=int(rep.l_scheme),
        l_star=int(rep.l_star),
        ratio=rep.ratio,
        passed=rep.passed,
        failures=list(rep.failures),
    )
    report.update(_partition_fields("scheme_rows", rep.scheme_rows))
    report.update(_partition_fields("optimal_rows", rep.optimal_rows))
    _emit(report, args.output_format)
    return EXIT_OK if rep.passed else EXIT_VIOLATION


def _cmd_sweep(args: argparse.Namespace) -> int:
    instances = []
    max_ratio = 0.0
    violations = 0
    for i in range(args.count):
        seed_i = derive_seed(args.seed, i)
        if args.norm is Norm.L1:
            x = random_binary_matrix(args.rows, args.cols, args.ones_p, seed_i)
        elif args.planted:
            x = planted_real_matrix(args.rows, args.cols, seed_i)
        else:
            x = random_real_matrix(args.rows, args.cols, seed_i)
        rep = ratio(x, args.kr, args.kc, args.norm, seed=seed_i)
        integral = x.is_binary and args.norm is Norm.L1
        violated = rep.certified is False
        violations += violated
        max_ratio = max(max_ratio, rep.ratio)
        row = {
            "index": i,
            "n_rows": args.rows,
            "n_cols": args.cols,
            "k_r": args.kr,
            "k_c": args.kc,
            "norm": args.norm.value,
            "seed": seed_i,
            "planted": args.planted and args.norm is Norm.L2,
        }
        row.update(_ratio_fields(rep, integral))
        row["violation"] = int(violated)
        instances.append(row)
    summary = {
        "index": "summary",
        "count": args.count,
        "max_ratio": max_ratio,
        "violations": violations,
    }
    if args.output_format == "json":
        report = _config_echo(args)
        report.update(
            count=args.count, rows=args.rows, cols=args.cols,
            ones_p=args.ones_p, planted=args.planted,
        )
        report["instances"] = instances
        report["summary"] = summary
        print(json.dumps(report))
    else:
        writer = csv.writer(sys.stdout, lineterminator="\n")
        columns = list(instances[0])
        writer.writerow(columns)
        for row in instances:
            writer.writerow([_csv_cell(row[col]) for col in columns])
        summary_cells = {"index": "summary", "ratio": max_ratio, "violation": violations}
        writer.writerow([_csv_cell(summary_cells.get(col, "")) for col in columns])
    return EXIT_OK if violations == 0 else EXIT_VIOLATION


# ---------------------------------------------------------------------------
# Verification battery.


def _stacks(shapes: list[tuple[int, int]], seeds):
    """Block i of shape ``shapes[i]`` holds the first n * m floats of the
    stream ``seeds[i]``, row-major, as ``random_real_matrix`` draws them;
    all blocks come from one bulk draw.  Yields (indices, (B, n, m) stack)
    once per distinct shape."""
    sizes = [n * m for n, m in shapes]
    flat = uniforms(seeds, sizes)
    starts = np.cumsum(sizes) - sizes
    groups: dict[tuple[int, int], list[int]] = {}
    for i, shape in enumerate(shapes):
        groups.setdefault(shape, []).append(i)
    for (n, m), members in groups.items():
        idx = np.array(members)
        yield idx, flat[starts[idx, None] + np.arange(n * m)].reshape(-1, n, m)


def _drawn_stacks(rng: SplitMix64, count: int, side: int):
    """:func:`_stacks` of ``count`` blocks whose rows, columns (1..side)
    and seed are drawn from ``rng`` in that order."""
    draws = [(rng.randint_below(side) + 1, rng.randint_below(side) + 1, rng.next_uint64())
             for _ in range(count)]
    n, m, seeds = zip(*draws)
    return _stacks(list(zip(n, m)), seeds)


def _battery_per_block(rng: SplitMix64, count: int):
    draws = [(rng.randint_below(6) + 1, rng.randint_below(6) + 1,
              (0.2, 0.5, 0.8)[rng.randint_below(3)], rng.next_uint64(), rng.next_uint64())
             for _ in range(count)]
    n, m, ones_p, binary_seeds, real_seeds = zip(*draws)
    # blocks 0..count-1 are the binary ones, count..2*count-1 the real ones
    for idx, u in _stacks(list(zip(n, m)) * 2, binary_seeds + real_seeds):
        binary = idx < count
        xb = (u[binary] < np.take(ones_p, idx[binary])[:, None, None]).astype(float)
        yield from per_bicluster_bound(xb, Norm.L1, BINARY_L1_RATIO_BOUND).passed.tolist()
        yield from per_bicluster_bound(u[~binary], Norm.L2, REAL_L2_RATIO_BOUND).passed.tolist()


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


def _swap_checks(x) -> list[bool]:
    """Swap descent on a stack of 0/1 blocks with ones <= zeros, one bool
    per block.  A stack that raises is re-checked block by block, so that
    only the blocks that raise fail."""
    try:
        terminal, steps = swap_normalize(x)
    except BoundViolationError:
        return [ok for block in x for ok in _swap_checks(block[None])] if len(x) > 1 else [False]
    ones = x.sum(axis=(1, 2))  # also the pooled L1 cost
    ok = np.not_equal(terminal_structure(terminal), None) & (terminal.sum(axis=(1, 2)) == ones)
    # every swap lowers the spread by at least 1
    return (ok & (_spread(terminal) <= _spread(x) - steps + PASS_TOL * ones)).tolist()


def _battery_swaps(rng: SplitMix64, count: int):
    for _, u in _drawn_stacks(rng, count, 6):
        x = (u < 0.4).astype(float)
        flip = 2 * x.sum(axis=(1, 2)) > x[0].size
        x[flip] = 1.0 - x[flip]
        yield from _swap_checks(x)


def _battery_l2_identity(rng: SplitMix64, count: int):
    for _, x in _drawn_stacks(rng, count, 8):
        dec = l2_decomposition(x)
        tol = PASS_TOL * dec.pooled
        ok = abs(dec.pooled - (dec.columnwise + dec.rowwise - dec.residual)) <= tol
        yield from (ok & (dec.residual >= -tol)).tolist()


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


def _cmd_verify_bounds(args: argparse.Namespace) -> int:
    rng = SplitMix64(args.seed)
    batteries = [
        _tally("per-block inequality", _battery_per_block(rng, args.count)),
        _tally("one-way lower bound", _battery_lower_bound(rng, max(8, args.count // 8))),
        _tally("swap descent", _battery_swaps(rng, args.count)),
        _tally("squared-norm identity", _battery_l2_identity(rng, args.count)),
        _battery_alpha(args.resolution),
    ]
    for battery in batteries:
        battery["passed"] = battery["failures"] == 0
    passed = all(b["passed"] for b in batteries)
    report = _config_echo(args)
    report.update(count=args.count, resolution=args.resolution, batteries=batteries, passed=passed)
    _emit(report, args.output_format)
    return EXIT_OK if passed else EXIT_VIOLATION


if __name__ == "__main__":
    sys.exit(main())
