"""Record ``reference.json``: the checked summary of every pool op's output.

    python3 bench/record_reference.py

Run once, at the commit that defines the benchmark; every later run checks
its ops against these outputs.  Every workload is recorded afresh, so the
file never mixes outputs of different commits.  Ops with ``ref_inputs`` (the
shifted ``certify`` slice) are recorded on those inputs instead, i.e. the
program's own answer on the unshifted matrix.
"""

from __future__ import annotations

import json
import shutil
import sys
import time

import common
import spec


def main() -> None:
    common.cap_threads()
    common.import_crossclust()
    from crossclust import cli

    refs = {}
    workdir = common.ROOT / ".bench_work" / "reference-inputs"
    for workload in spec.WORKLOADS:
        for toy in (True, False):
            ops = [op for kind in spec.pool(workload, toy).values() for op in kind]
            common.write_inputs(ops, workdir, field="ref_inputs")
            t0 = time.perf_counter()
            for op in ops:
                argv = common.resolve_argv(op, workdir, field="ref_inputs")
                _, code, out, err = common.run_op(cli, argv)
                if code is None:
                    sys.exit(f"error: {op['key']} raised: {err}")
                refs[op["key"]] = common.summarize(code, out)
            print(f"{'toy ' if toy else ''}{workload}: {len(ops)} ops in "
                  f"{time.perf_counter() - t0:.1f} s", flush=True)
    shutil.rmtree(workdir, ignore_errors=True)
    with open(common.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(dict(sorted(refs.items())), fh, indent=0, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
