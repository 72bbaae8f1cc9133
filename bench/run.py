"""crossclust benchmark: one closed-loop client driving the real CLI.

    python3 bench/run.py --workload certify --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 0

Each op is one ``crossclust.cli.main(argv)`` call with stdout captured, run
in this single-threaded process (BLAS/OpenMP capped at one thread); the next
op starts when the previous one has been checked against its reference.

``--trace 0`` repeats a pass over the workload's fixed set of ops (at least
``MIN_PASSES`` times, and as often as fits in ``--seconds``) and reports the
end-to-end metrics.  The host is shared, and its speed drifts by up to 1.5x
over tens of seconds to minutes; a run is too short to average that out.
So the host's slowness (``hostspeed.slowness``) is measured before every op
and around every set-up, and each wall time is divided by the slowness next
to it: the timing metrics are in seconds at the reference speed of
``hostspeed``.  The unscaled figures are printed too.  ``--trace 1`` runs one pass, each op once
untraced and once under the tracer, and reports the per-layer metrics.  Human-readable lines
come first; the last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

import common
import spec

#: Set-up samples per untraced run: two before the loop, one after each
#: pass, and the rest after the loop.
SETUP_REPEATS = 7
#: Passes per untraced run, at the least.
MIN_PASSES = 2
BENCH = common.ROOT / "bench"
WORK = common.ROOT / ".bench_work"


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=spec.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true", help="tiny inputs, for the smoke test")
    return parser.parse_args(argv)


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    git_dir = common.ROOT / ".git"
    if not git_dir.exists():
        return "unknown (not a git checkout)"
    proc = subprocess.run(
        ["git", "rev-parse", "HEAD"],
        cwd=common.ROOT,
        env={**os.environ, "GIT_DIR": str(git_dir)},
        capture_output=True,
        text=True,
        timeout=30,
    )
    return proc.stdout.strip() or "unknown"


def environment(args, numpy_version: str) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "thread_caps": {var: os.environ.get(var) for var in common.THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "toy": args.toy,
        "clients": 1,
        "loop": "closed",
    }


def run_setup(args, workdir, repeats: int) -> list[tuple[float, float]]:
    """Run the set-up script in fresh interpreters; return each one's wall
    time and the mean of the host's slowness right before and after it."""
    from hostspeed import slowness

    cmd = [sys.executable, str(BENCH / "setup_inputs.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--out", str(workdir)]
    if args.toy:
        cmd.append("--toy")
    times = []
    for _ in range(repeats):
        shutil.rmtree(workdir, ignore_errors=True)
        before = slowness()
        t0 = time.perf_counter()
        # no timeout: with one, the wait polls in steps of up to 50 ms
        proc = subprocess.run(cmd, cwd=common.ROOT)
        wall = time.perf_counter() - t0
        times.append((wall, (before + slowness()) / 2))
        if proc.returncode != 0:
            raise SystemExit(f"error: set-up failed with exit code {proc.returncode}")
    return times


class Outcomes:
    """Per-op results and the check of each op against its reference."""

    def __init__(self, refs: dict):
        self.refs = refs
        self.walls: list[float] = []
        #: (op key, why, whether the failure is only the known defect)
        self.failed: list[tuple[str, str, bool]] = []

    def record(self, op: dict, wall: float, code, stdout: str, err: str) -> None:
        self.walls.append(wall)
        got, ref = common.summarize(code, stdout), self.refs.get(op["key"])
        why = common.mismatch(got, ref)
        if code is None:
            why = f"exception: {err.strip()}"
        if why is not None:
            # a known-defect op is forgiven only the defect's own float drift
            known = (op["known_defect"] and code is not None
                     and common.mismatch(got, ref, spec.KNOWN_DEFECT_FLOATS) is None)
            self.failed.append((op["key"], why, known))

    @property
    def unexpected(self) -> list:
        return [f for f in self.failed if not f[2]]

    def report(self) -> None:
        n, bad = len(self.walls), len(self.failed)
        known = bad - len(self.unexpected)
        print(f"failed_frac {bad / n:.4f} ratio ({bad} of {n} ops failed; "
              f"{known} only by the known defect)")
        # unexpected failures first; an op that fails in every pass is listed once
        listed = dict.fromkeys(sorted(self.failed, key=lambda f: f[2]))
        for key, why, known_defect in list(listed)[:12]:
            tag = "known defect" if known_defect else "UNEXPECTED"
            print(f"  failed op {key} [{tag}]: {why}")


def tail(walls: list[float]) -> tuple[float, float]:
    """Value and percentile of the highest rank with 10 samples beyond it."""
    ordered = sorted(walls)
    rank = len(ordered) - 10
    if rank < 1:
        raise ValueError(f"op_s_tail needs at least 11 samples, got {len(ordered)}")
    return ordered[rank - 1], 100.0 * rank / len(ordered)


def closed_loop(cli, ops, outcomes: Outcomes, seconds: float, between_passes) -> tuple:
    """Run passes over ``ops`` until another pass would end after ``seconds``
    (``between_passes`` runs after each pass and counts in its time).
    Return the ops' wall times, the host's slowness around them (one more
    value than walls: before each op and after the last) and the number of
    passes."""
    from hostspeed import slowness

    walls: list[float] = []
    slow = [slowness()]
    t0 = time.perf_counter()
    passes = 0
    while True:
        p0 = time.perf_counter()
        for op in ops:
            result = common.run_op(cli, op["resolved"])
            outcomes.record(op, *result)
            walls.append(result[0])
            slow.append(slowness())
        passes += 1
        between_passes()
        now = time.perf_counter()
        if passes >= MIN_PASSES and now - t0 + (now - p0) > seconds:
            return walls, slow, passes


def timing_metrics(walls: list[float], n_ops: int, setups: list[float]) -> dict:
    """``walls`` holds whole passes over ``n_ops`` ops.  Each op counts with
    its median over the passes, so the percentile of ``op_s_tail`` does not
    depend on how many passes fitted into the run."""
    per_op = [statistics.median(walls[i::n_ops]) for i in range(n_ops)]
    tail_s, tail_pct = tail(per_op)
    return {
        "ops_per_s": (n_ops / sum(per_op), "1/s"),
        "op_s_p50": (statistics.median(per_op), "s"),
        "op_s_tail": (tail_s, "s", f" (p{tail_pct:.1f} of n={n_ops} ops, 10 beyond it)"),
        "setup_s": (statistics.median(setups), "s", f" (median of {len(setups)} set-ups)"),
    }


def end_to_end(args, cli, plan, refs, setups, workdir) -> dict:
    from hostspeed import scale

    outcomes = Outcomes(refs)
    ops = spec.pass_ops(plan)
    # set-ups spread over the run keep setup_s from reading one phase of the host
    raw, slow, passes = closed_loop(
        cli, ops, outcomes, args.seconds, lambda: setups.extend(run_setup(args, workdir, 1)),
    )
    setups += run_setup(args, workdir, SETUP_REPEATS - len(setups))
    metrics = timing_metrics(scale(raw, slow), len(ops), [wall / s for wall, s in setups])
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    unscaled = timing_metrics(raw, len(ops), [wall for wall, _ in setups])
    print(f"passes {passes} of {len(ops)} ops; host slowness median "
          f"{statistics.median(slow):.3f}, range {min(slow):.3f}-{max(slow):.3f}")
    for name, (value, unit, *note) in metrics.items():
        print(f"{name} {value:.6g} {unit}{''.join(note)}")
    print("unscaled wall times: " + ", ".join(
        f"{name} {value:.6g} {unit}" for name, (value, unit, *_) in unscaled.items()))
    outcomes.report()
    return result_line(outcomes, metrics)


def traced_pass(args, cli, plan, refs) -> dict:
    from tracer import Tracer, layer_metrics

    tracer = Tracer()
    outcomes = Outcomes(refs)
    ops = spec.pass_ops(plan)
    untraced = traced = 0.0
    stdout_bytes = 0
    diverged = []
    for i, op in enumerate(ops):
        tracer.op_id = i
        runs = {}
        # alternate which side goes first, so neither always runs warm
        for side in ((False, True) if i % 2 == 0 else (True, False)):
            if side:
                tracer.install()
                if i == 0:
                    left = tracer.unwrapped_bindings()
                    if left:
                        raise SystemExit(f"error: tracer left original bindings: {left}")
            try:
                runs[side] = common.run_op(cli, op["resolved"])
            finally:
                tracer.uninstall()
        outcomes.record(op, *runs[False])
        untraced += runs[False][0]
        traced += runs[True][0]
        stdout_bytes += len(runs[True][2].encode())
        if runs[True][1:3] != runs[False][1:3]:
            diverged.append(op["key"])
    agg = tracer.aggregate()
    missing = [name for name in spec.EXPECTED_SPANS[args.workload] if name not in agg]
    if missing:
        raise SystemExit(f"error: traced pass recorded no calls for {missing}")
    if diverged:
        raise SystemExit(f"error: traced output differs from untraced for {diverged}")
    WORK.mkdir(exist_ok=True)
    tracer.dump(WORK / f"trace-{args.workload}-s{args.seed}{'-toy' if args.toy else ''}.npz")
    metrics = layer_metrics(agg, tracer.counters, stdout_bytes, traced / untraced - 1.0)
    print(f"traced pass: {len(ops)} ops, untraced {untraced:.3f} s, traced {traced:.3f} s, "
          f"{len(tracer.start)} spans")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    outcomes.report()
    return result_line(outcomes, metrics)


def result_line(outcomes: Outcomes, metrics: dict) -> dict:
    return {
        # The known-defect slice (spec.SHIFT instances) fails at the commit
        # that defined the benchmark; its failures are counted in ``failed``.
        # Only a failure beyond that defect's drift in spec.KNOWN_DEFECT_FLOATS
        # makes the run incorrect.
        "correct": not outcomes.unexpected,
        "attempted": len(outcomes.walls),
        "failed": len(outcomes.failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, *_) in metrics.items()},
    }


def run_all(args) -> int:
    """Run every workload in its own process and print a summary table."""
    summary = {}
    for workload in spec.WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.toy:
            cmd.append("--toy")
        print(f"== {workload}", flush=True)
        proc = subprocess.run(cmd, cwd=common.ROOT, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not lines:
            print(f"error: {workload} exited with {proc.returncode}")
            return 1
        summary[workload] = json.loads(lines[-1])
    print("== summary")
    for workload, res in summary.items():
        cells = [f"{k}={v['value']:.4g} {v['unit']}" for k, v in res["metrics"].items()]
        if args.trace == 0:
            cells.append(f"failed_frac={res['failed'] / res['attempted']:.4f} ratio")
        print(f"{workload}: " + ", ".join(cells))
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    os.chdir(common.ROOT)
    if not (common.SRC / "crossclust" / "__init__.py").is_file():
        print(f"error: no crossclust source tree under {common.SRC}", file=sys.stderr)
        return 2
    common.cap_threads()
    if args.workload == "all":
        return run_all(args)
    workdir = WORK / f"{args.workload}-s{args.seed}{'-toy' if args.toy else ''}"
    try:
        setups = run_setup(args, workdir, 1 if args.trace else 2)
        common.import_crossclust()
        import numpy

        from crossclust import cli

        with open(workdir / "plan.json", encoding="utf-8") as fh:
            plan = json.load(fh)
        refs = common.load_reference()
        print("env " + json.dumps(environment(args, numpy.__version__)))
        # warm-up: first-call costs of argparse, json and numpy stay out of the timings
        common.run_op(cli, ["worstcase", "--q", "1"])
        if args.trace:
            result = traced_pass(args, cli, plan, refs)
        else:
            result = end_to_end(args, cli, plan, refs, setups, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
