"""Command-line front end.

Subcommands: ``run`` (the scheme), ``exact`` (the brute-force oracle),
``ratio`` (scheme vs. oracle with certificate), ``worstcase`` (the
adversarial family), ``sweep`` (ratio over seeded random instances) and
``verify-bounds`` (the whole verification battery).

Reports go to stdout as a single JSON object or a CSV table; diagnostics
go to stderr.  Exit codes: 0 success, 2 I/O error, 3 validation error
(usage errors and input whose costs overflow included), 4 enumeration cap
exceeded, 5 certified-bound violation, failed check or failed internal
check, 6 out of memory.

``verify-bounds --resolution`` must be in [2, 20000]
(``bounds.MAX_RESOLUTION``), the range over which the lattice search's
memory was measured flat; any other value exits 3 before a battery runs.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import sys

from .cost import Norm
from .errors import BoundViolationError, CapExceededError, CrossclustError, ValidationError
from .model import DataMatrix, Partition, load_matrix_csv
from .oneway import SolverMode
from .rng import derive_seed
from .search import RatioReport, exact_biclustering, ratio, run_scheme
from .verify import verify_bounds
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
EXIT_MEMORY = 6


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
        return args.handler(args)
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
    except MemoryError as exc:  # numpy's message gives the size it could not allocate
        print(f"error: out of memory: {str(exc) or 'an allocation failed'}", file=sys.stderr)
        return EXIT_MEMORY


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
    groups = part.one_based_clusters()
    display = "{" + ",".join("{" + ",".join(map(str, grp)) + "}" for grp in groups) + "}"
    return {
        f"{prefix}_assignment": list(part.assignment),
        f"{prefix}_clusters": [list(g) for g in groups],
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


def _load_input(args: argparse.Namespace) -> tuple[DataMatrix, dict, bool]:
    """The ``--input`` matrix of ``run``, ``exact`` or ``ratio``, the
    report's first fields, and whether the report prints costs as integers."""
    x = load_matrix_csv(args.input)
    report = _config_echo(args)
    report.update(input=args.input, n_rows=x.n_rows, n_cols=x.n_cols, is_binary=x.is_binary)
    return x, report, x.is_binary and args.norm is Norm.L1


# ---------------------------------------------------------------------------
# Commands.


def _cmd_run(args: argparse.Namespace) -> int:
    x, report, integral = _load_input(args)
    result = run_scheme(x, args.kr, args.kc, args.norm, args.mode)
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
    x, report, integral = _load_input(args)
    opt = exact_biclustering(x, args.kr, args.kc, args.norm)
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
    x, report, integral = _load_input(args)
    rep = ratio(x, args.kr, args.kc, args.norm)
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
        rep = ratio(x, args.kr, args.kc, args.norm)
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


def _cmd_verify_bounds(args: argparse.Namespace) -> int:
    batteries = verify_bounds(args.seed, args.count, args.resolution)
    passed = all(b["passed"] for b in batteries)
    report = _config_echo(args)
    report.update(count=args.count, resolution=args.resolution, batteries=batteries, passed=passed)
    _emit(report, args.output_format)
    return EXIT_OK if passed else EXIT_VIOLATION


if __name__ == "__main__":
    sys.exit(main())
