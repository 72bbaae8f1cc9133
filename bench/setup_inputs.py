"""Set-up step of one benchmark run, timed as ``setup_s``: a fresh
interpreter imports crossclust, generates the workload's inputs from the
seed and writes them as CSV files, plus ``plan.json`` with every op's argv.

    python3 bench/setup_inputs.py --workload certify --seed 1 --out DIR [--toy]
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

import common
import spec


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=spec.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--toy", action="store_true")
    args = parser.parse_args()

    common.cap_threads()
    common.import_crossclust()
    workdir = Path(args.out).resolve()
    plan = spec.plan(args.workload, args.seed, args.toy)
    ops = [op for kind in plan["kinds"].values() for op in kind]
    common.write_inputs(ops, workdir)
    for op in ops:
        op["resolved"] = common.resolve_argv(op, workdir)
    (workdir / "plan.json").write_text(json.dumps(plan), encoding="utf-8")


if __name__ == "__main__":
    main()
