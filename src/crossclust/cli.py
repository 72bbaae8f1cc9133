"""Command-line front end.

Subcommands: ``run`` (the scheme), ``exact`` (the brute-force oracle),
``ratio`` (scheme vs. oracle with certificate), ``worstcase`` (the
adversarial family), ``sweep`` (ratio over seeded random instances) and
``verify-bounds`` (the whole verification battery).

Reports go to stdout as a single JSON object or a CSV table; diagnostics
go to stderr.  Exit codes: 0 success, 2 I/O error, 3 validation error,
4 enumeration cap exceeded, 5 certified-bound violation, failed check or
failed internal check.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import dataclass

from .bounds import (
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
from .model import DataMatrix, Partition, load_matrix_csv
from .oneway import SolverMode
from .rng import SplitMix64, derive_seed
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


@dataclass(frozen=True)
class RunConfig:
    command: str
    input_path: str | None
    k_r: int
    k_c: int
    norm: Norm
    mode: SolverMode
    seed: int
    output_format: str
    q: int
    count: int
    rows: int
    cols: int
    ones_p: float
    planted: bool
    resolution: int

    def __post_init__(self):
        if self.k_r < 1 or self.k_c < 1:
            raise ValidationError("cluster counts must be >= 1")
        if self.count < 1:
            raise ValidationError("count must be >= 1")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crossclust",
        description=(
            "Bicluster a matrix by clustering rows and columns independently, "
            "and verify the scheme's cost-ratio guarantees against exact oracles."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, with_input: bool) -> None:
        if with_input:
            sp.add_argument("--input", required=True, help="CSV matrix file, one row per line, no header")
        sp.add_argument("--kr", type=int, default=2, help="row cluster budget")
        sp.add_argument("--kc", type=int, default=2, help="column cluster budget")
        sp.add_argument("--norm", choices=["l1", "l2"], default="l1")
        sp.add_argument("--mode", choices=["exact", "heuristic"], default="exact")
        sp.add_argument("--restarts", type=int, default=8, help="heuristic restarts")
        sp.add_argument("--seed", type=int, default=1)
        sp.add_argument("--format", choices=["json", "csv"], default="json", dest="output_format")

    common(sub.add_parser("run", help="run the independent-clustering scheme"), True)
    common(sub.add_parser("exact", help="brute-force optimal biclustering"), True)
    common(sub.add_parser("ratio", help="scheme cost over optimal cost, with certificate"), True)

    sp = sub.add_parser("worstcase", help="check the adversarial 4x(4q-1) family")
    common(sp, False)
    sp.add_argument("--q", type=int, default=2, help="family parameter")

    sp = sub.add_parser("sweep", help="ratio over seeded random instances")
    common(sp, False)
    sp.add_argument("--count", type=int, default=100, help="number of instances")
    sp.add_argument("--rows", type=int, default=4)
    sp.add_argument("--cols", type=int, default=4)
    sp.add_argument("--ones-p", type=float, default=0.5, dest="ones_p", help="ones probability (binary instances)")
    sp.add_argument("--planted", action="store_true", help="use planted two-block real instances for the L2 norm")

    sp = sub.add_parser("verify-bounds", help="run the whole verification battery")
    common(sp, False)
    sp.add_argument("--count", type=int, default=200, help="samples per battery")
    sp.add_argument("--resolution", type=int, default=400, help="ratio-search lattice resolution")

    return parser


def _config(args: argparse.Namespace) -> RunConfig:
    norm = Norm.parse(args.norm)
    if args.mode == "exact":
        mode = SolverMode.exact()
    else:
        mode = SolverMode.heuristic(restarts=args.restarts, seed=args.seed)
    return RunConfig(
        command=args.command,
        input_path=getattr(args, "input", None),
        k_r=args.kr,
        k_c=args.kc,
        norm=norm,
        mode=mode,
        seed=args.seed,
        output_format=args.output_format,
        q=getattr(args, "q", 2),
        count=getattr(args, "count", 100),
        rows=getattr(args, "rows", 4),
        cols=getattr(args, "cols", 4),
        ones_p=getattr(args, "ones_p", 0.5),
        planted=getattr(args, "planted", False),
        resolution=getattr(args, "resolution", 400),
    )


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _config(args)
        return _dispatch(cfg)
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


def _dispatch(cfg: RunConfig) -> int:
    handler = {
        "run": _cmd_run,
        "exact": _cmd_exact,
        "ratio": _cmd_ratio,
        "worstcase": _cmd_worstcase,
        "sweep": _cmd_sweep,
        "verify-bounds": _cmd_verify_bounds,
    }[cfg.command]
    return handler(cfg)


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


def _config_echo(cfg: RunConfig, exact_only: bool = False) -> dict:
    # commands built on the oracle always run in exact mode, whatever
    # --mode was passed; echo what actually ran
    mode = SolverMode.exact() if exact_only else cfg.mode
    return {
        "command": cfg.command,
        "k_r": cfg.k_r,
        "k_c": cfg.k_c,
        "norm": cfg.norm.value,
        "mode": mode.kind,
        "restarts": mode.restarts,
        "seed": cfg.seed,
    }


# ---------------------------------------------------------------------------
# Commands.


def _cmd_run(cfg: RunConfig) -> int:
    x = load_matrix_csv(cfg.input_path)
    result = run_scheme(x, cfg.k_r, cfg.k_c, cfg.norm, cfg.mode)
    integral = x.is_binary and cfg.norm is Norm.L1
    report = _config_echo(cfg)
    report.update(
        input=cfg.input_path,
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
    _emit(report, cfg.output_format)
    return EXIT_OK


def _cmd_exact(cfg: RunConfig) -> int:
    x = load_matrix_csv(cfg.input_path)
    opt = exact_biclustering(x, cfg.k_r, cfg.k_c, cfg.norm)
    integral = x.is_binary and cfg.norm is Norm.L1
    report = _config_echo(cfg, exact_only=True)
    report.update(input=cfg.input_path, n_rows=x.n_rows, n_cols=x.n_cols, is_binary=x.is_binary)
    report.update(_partition_fields("rows", opt.rows))
    report.update(_partition_fields("cols", opt.cols))
    report["l_star"] = _maybe_int(opt.cost, integral)
    _emit(report, cfg.output_format)
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


def _cmd_ratio(cfg: RunConfig) -> int:
    x = load_matrix_csv(cfg.input_path)
    rep = ratio(x, cfg.k_r, cfg.k_c, cfg.norm, seed=cfg.seed)
    integral = x.is_binary and cfg.norm is Norm.L1
    report = _config_echo(cfg, exact_only=True)
    report.update(input=cfg.input_path, n_rows=x.n_rows, n_cols=x.n_cols, is_binary=x.is_binary)
    report.update(_ratio_fields(rep, integral))
    _emit(report, cfg.output_format)
    return EXIT_VIOLATION if rep.certified is False else EXIT_OK


def _cmd_worstcase(cfg: RunConfig) -> int:
    rep = worst_case_report(cfg.q)
    report = _config_echo(cfg, exact_only=True)
    report.update(
        q=cfg.q,
        l=int(rep.l_scheme),
        l_star=int(rep.l_star),
        ratio=rep.ratio,
        passed=rep.passed,
        failures=list(rep.failures),
    )
    report.update(_partition_fields("scheme_rows", rep.scheme_rows))
    report.update(_partition_fields("optimal_rows", rep.optimal_rows))
    _emit(report, cfg.output_format)
    return EXIT_OK if rep.passed else EXIT_VIOLATION


_SWEEP_COLUMNS = (
    "index", "n_rows", "n_cols", "k_r", "k_c", "norm", "seed", "planted",
    "l_r", "l_c", "l", "l_star", "ratio", "alpha_bound", "certified", "violation",
)


def _cmd_sweep(cfg: RunConfig) -> int:
    instances = []
    max_ratio = 0.0
    violations = 0
    for i in range(cfg.count):
        seed_i = derive_seed(cfg.seed, i)
        if cfg.norm is Norm.L1:
            x = random_binary_matrix(cfg.rows, cfg.cols, cfg.ones_p, seed_i)
        elif cfg.planted:
            x = planted_real_matrix(cfg.rows, cfg.cols, seed_i)
        else:
            x = random_real_matrix(cfg.rows, cfg.cols, seed_i)
        rep = ratio(x, cfg.k_r, cfg.k_c, cfg.norm, seed=seed_i)
        integral = x.is_binary and cfg.norm is Norm.L1
        violated = rep.certified is False
        violations += violated
        max_ratio = max(max_ratio, rep.ratio)
        row = {
            "index": i,
            "n_rows": cfg.rows,
            "n_cols": cfg.cols,
            "k_r": cfg.k_r,
            "k_c": cfg.k_c,
            "norm": cfg.norm.value,
            "seed": seed_i,
            "planted": cfg.planted and cfg.norm is Norm.L2,
        }
        row.update(_ratio_fields(rep, integral))
        row["violation"] = int(violated)
        instances.append(row)
    summary = {
        "index": "summary",
        "count": cfg.count,
        "max_ratio": max_ratio,
        "violations": violations,
    }
    if cfg.output_format == "json":
        report = _config_echo(cfg, exact_only=True)
        report.update(
            count=cfg.count, rows=cfg.rows, cols=cfg.cols,
            ones_p=cfg.ones_p, planted=cfg.planted,
        )
        report["instances"] = instances
        report["summary"] = summary
        print(json.dumps(report))
    else:
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(_SWEEP_COLUMNS)
        for row in instances:
            writer.writerow([_csv_cell(row.get(col)) for col in _SWEEP_COLUMNS])
        summary_cells = {"index": "summary", "ratio": max_ratio, "violation": violations}
        writer.writerow([_csv_cell(summary_cells.get(col, "")) for col in _SWEEP_COLUMNS])
    return EXIT_OK if violations == 0 else EXIT_VIOLATION


# ---------------------------------------------------------------------------
# Verification battery.


def _battery_per_block(rng: SplitMix64, count: int) -> dict:
    checks = failures = 0
    for _ in range(count):
        n = rng.randint_below(6) + 1
        m = rng.randint_below(6) + 1
        p = (0.2, 0.5, 0.8)[rng.randint_below(3)]
        xb = random_binary_matrix(n, m, p, rng.next_uint64())
        checks += 1
        failures += not per_bicluster_bound(xb, Norm.L1, BINARY_L1_RATIO_BOUND).passed
        xr = random_real_matrix(n, m, rng.next_uint64())
        checks += 1
        failures += not per_bicluster_bound(xr, Norm.L2, REAL_L2_RATIO_BOUND).passed
    return {"name": "per-block inequality", "checks": checks, "failures": failures}


def _battery_lower_bound(rng: SplitMix64, count: int) -> dict:
    checks = failures = 0
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
        checks += 1
        failures += not lower_bound_check(x, k_r, k_c, norm).passed
    return {"name": "one-way lower bound", "checks": checks, "failures": failures}


def _battery_swaps(rng: SplitMix64, count: int) -> dict:
    checks = failures = 0
    for _ in range(count):
        n = rng.randint_below(6) + 1
        m = rng.randint_below(6) + 1
        x = random_binary_matrix(n, m, 0.4, rng.next_uint64())
        vals = x.values
        if 2 * vals.sum() > vals.size:
            x = DataMatrix(1.0 - vals, is_binary=True)
        checks += 1
        try:
            terminal, trace = swap_normalize(x)
        except BoundViolationError:
            failures += 1
            continue
        ok = terminal_structure(terminal) is not None
        ok = ok and int(terminal.sum()) == int(x.values.sum())
        ok = ok and all(s.spread_after <= s.spread_before - 1.0 + 1e-9 for s in trace)
        failures += not ok
    return {"name": "swap descent", "checks": checks, "failures": failures}


def _battery_l2_identity(rng: SplitMix64, count: int) -> dict:
    checks = failures = 0
    for _ in range(count):
        n = rng.randint_below(8) + 1
        m = rng.randint_below(8) + 1
        x = random_real_matrix(n, m, rng.next_uint64())
        dec = l2_decomposition(x)
        checks += 1
        scale = max(1.0, abs(dec.pooled))
        ok = abs(dec.pooled - (dec.columnwise + dec.rowwise - dec.residual)) <= 1e-9 * scale
        ok = ok and dec.residual >= -1e-12
        failures += not ok
    return {"name": "squared-norm identity", "checks": checks, "failures": failures}


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


def _cmd_verify_bounds(cfg: RunConfig) -> int:
    rng = SplitMix64(cfg.seed)
    batteries = [
        _battery_per_block(rng, cfg.count),
        _battery_lower_bound(rng, max(8, cfg.count // 8)),
        _battery_swaps(rng, cfg.count),
        _battery_l2_identity(rng, cfg.count),
        _battery_alpha(cfg.resolution),
    ]
    for battery in batteries:
        battery["passed"] = battery["failures"] == 0
    passed = all(b["passed"] for b in batteries)
    report = _config_echo(cfg, exact_only=True)
    report.update(count=cfg.count, resolution=cfg.resolution, batteries=batteries, passed=passed)
    _emit(report, cfg.output_format)
    return EXIT_OK if passed else EXIT_VIOLATION


if __name__ == "__main__":
    sys.exit(main())
