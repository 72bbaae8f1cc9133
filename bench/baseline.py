"""Re-measure the ROADMAP baseline table with the benchmark's CLI ops and
its tracer.

    python3 bench/baseline.py

Each row runs its CLI command on three seeded instances, once untraced (op
wall time) and once traced (the span of the function the row names), and
prints the medians next to the ROADMAP figure.  A row "reproduces" when the
traced span median is within ``NOISE`` of the ROADMAP figure.
"""

from __future__ import annotations

import shutil
import statistics
import time

import common

NOISE = 0.2
SEEDS = (1, 2, 3)

#: (case, ROADMAP seconds, input [generator, rows, cols], argv after --input, span)
ROWS = (
    ("exact_biclustering 8x8, k=3,3, L2 real", 3.10, ["real", 8, 8],
     ["exact", "--kr", "3", "--kc", "3", "--norm", "l2"], "search.exact_biclustering"),
    ("exact_biclustering 8x8, k=3,3, L1 binary", 0.48, ["binary", 8, 8],
     ["exact", "--kr", "3", "--kc", "3", "--norm", "l1"], "search.exact_biclustering"),
    ("exact_biclustering 7x7, k=2,2, L1 real (direct path)", 0.34, ["real", 7, 7],
     ["exact", "--kr", "2", "--kc", "2", "--norm", "l1"], "search.exact_biclustering"),
    ("exact_kcluster 12 rows, k=3, L2", 6.2, ["real", 12, 4],
     ["run", "--mode", "exact", "--kr", "3", "--kc", "1", "--norm", "l2"], "oneway.exact_kcluster"),
    ("enumerate_partitions(12, 3), walk only", 0.83, ["real", 12, 4],
     ["run", "--mode", "exact", "--kr", "3", "--kc", "1", "--norm", "l2"],
     "model.enumerate_partitions.next"),
    ("run_scheme heuristic 2000x50, k=5, 8 restarts, L2", 0.90, ["real", 2000, 50],
     ["run", "--mode", "heuristic", "--kr", "5", "--kc", "5", "--restarts", "8", "--norm", "l2"],
     "search.run_scheme"),
    ("run_scheme heuristic 2000x50, k=5, 8 restarts, L1", 2.65, ["real", 2000, 50],
     ["run", "--mode", "heuristic", "--kr", "5", "--kc", "5", "--restarts", "8", "--norm", "l1"],
     "search.run_scheme"),
)


def main() -> None:
    common.cap_threads()
    common.import_crossclust()
    from crossclust import cli
    from crossclust.model import enumerate_partitions

    from tracer import Tracer

    workdir = common.ROOT / ".bench_work" / "baseline"
    tracer = Tracer()
    op_id = 0
    print("| case | ROADMAP | op wall, untraced | traced span | verdict |")
    print("|---|---|---|---|---|")
    try:
        for case, roadmap, (gen, n, m), argv, span in ROWS:
            walls, spans = [], []
            for seed in SEEDS:
                op = {"argv": argv[:1] + ["--input", "{x}"] + argv[1:],
                      "inputs": {"x": [gen, n, m, seed, 0]}}
                common.write_inputs([op], workdir)
                resolved = common.resolve_argv(op, workdir)
                wall, code, _, err = common.run_op(cli, resolved)
                if code != 0:
                    raise SystemExit(f"error: {resolved} exited {code}: {err}")
                walls.append(wall)
                tracer.op_id = op_id
                tracer.install()
                try:
                    common.run_op(cli, resolved)
                finally:
                    tracer.uninstall()
                spans.append(tracer.op_spans(op_id, span))
                op_id += 1
            wall, traced = statistics.median(walls), statistics.median(spans)
            if span == "model.enumerate_partitions.next":
                # the ROADMAP row times the bare walk, outside any solver
                t0 = time.perf_counter()
                for _ in enumerate_partitions(12, 3):
                    pass
                wall = time.perf_counter() - t0
            verdict = (
                "reproduces" if abs(traced / roadmap - 1.0) <= NOISE
                else f"new number: {traced:.3g} s ({traced / roadmap:.2f}x)"
            )
            print(f"| {case} | {roadmap} s | {wall:.3f} s | {traced:.3f} s (`{span}`) | {verdict} |",
                  flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    main()
