"""Compare the CLI output of two crossclust source trees, op by op.

    python tools/same_outputs.py OLD_SRC NEW_SRC [--pool NAME ...]

``OLD_SRC`` and ``NEW_SRC`` are directories that hold a ``crossclust``
package (the ``src`` of two checkouts).  The ops are those of the
benchmark's pools (``bench/spec.pool``): ``certify``, ``exact_enum``,
``heuristic`` and ``battery`` at full size, the same four at toy size
(``toy/certify`` ...), and ``edge``, the ``exact``, ``ratio`` and
``run --mode exact`` commands on inputs the pools do not reach: a
one-cluster axis (one longer than the enumeration cap among them), L1 on
real data and L2 shifted by +1e7; ``exact`` and ``ratio`` at 8x8 with
k=3,3, k=3,2 and k=4,1, where the oracle's pair search is bounded (k=4,1
with one column cluster), on each of those input classes, planted L2,
and, under both norms, a literal small-integer matrix full of ties and a
literal one whose columns are shifted by different powers of ten;
``exact`` and ``ratio`` under real L1 at 7x7, k=2,2 and k=3,3, on a
literal matrix of repeated quarters with a -0.0 entry and one column
shifted by 1e7; ``run --mode heuristic``, under both norms, on a 300x10
real matrix shifted by 1e7, on the 8x8 ties matrix at k=6 with three
restarts, where a cluster stays empty, on two literal small-integer
matrices where Lloyd's empty-cluster repair moves a point, and on a
literal 60x3 matrix at k=4 with one far cluster that settles while the
others still trade rows; ``run --mode heuristic`` under L1 on a literal
600x3 matrix whose columns tie -0.0 and 0.0 at their medians; ``run`` and
``ratio`` under L1 on a 0/1 CSV written with
``-0``, ``0.0`` and ``1.0`` fields, which must be detected binary; plus
``sweep`` and ``verify-bounds`` as CSV, ``verify-bounds`` at odd counts,
at the extreme seeds, at lattice resolutions from 2 to 2999, at its
defaults at two seeds and at 2000 blocks per battery, ``sweep``
under each generator and at 1x1, and
``--help`` and usage errors.  Its overflow ops run ``run`` (both
modes), ``exact`` and ``ratio`` under both norms on inputs whose costs
may overflow: two literal matrices with entries near 1e308 and 1e200,
and a real matrix shifted by 1e300; and ``exact`` at 8x8, k=3,3, under
L2 on a literal matrix with entries near +-1e154.  ``--pool`` picks some
of these; the default is all of them.

Each tree runs every op once, in its own subprocess, in-process through
``crossclust.cli.main``, on inputs that tree's generators write (through
``bench/common.write_inputs``) into a fresh temporary directory, next to
the literal matrices the tool writes itself.  Every op
whose exit code, stdout or stderr differ between the trees is listed.  The
exit status is 0 when all ops agree, 1 when any differs, and 2 when a
tree could not be run.  Nothing under ``bench/`` is written.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))

import spec  # noqa: E402  (bench/spec.py: plain Python, imports no numpy)

POOLS = (*spec.WORKLOADS, *(f"toy/{w}" for w in spec.WORKLOADS), "edge")
SHIFT = 1e7

#: Literal inputs of the overflow ops, by file name: costs that overflow
#: under L1 (entries near 1e308) and under L2 (squares of 1e200).
OVERFLOW_MATRICES = {
    "overflow_l1.csv": [[1e308, 1.0], [-1e308, 0.0], [0.0, 1.0]],
    "overflow_l2.csv": [[1e200], [-1e200], [0.0]],
}

#: Literal 8x8 inputs, by file name: small integers with repeated rows and
#: columns, so that many pairs tie; eighths with column j shifted by 10^j,
#: which the pair table, centered on the grand mean, rounds the most; and
#: entries near +-1e154, whose sums of squares overflow under L2.
MATRICES_8X8 = {
    "ties_8x8.csv": [
        [0, 1, 2, 0, 1, 2, 0, 1],
        [0, 1, 2, 0, 1, 2, 0, 1],
        [2, 2, 0, 0, 1, 1, 2, 2],
        [1, 0, 1, 0, 1, 0, 1, 0],
        [2, 2, 0, 0, 1, 1, 2, 2],
        [0, 0, 0, 1, 1, 1, 2, 2],
        [1, 0, 1, 0, 1, 0, 1, 0],
        [2, 1, 0, 2, 1, 0, 2, 1],
    ],
    "offsets_8x8.csv": [[(3 * i + 5 * j) % 8 / 8 + 10.0**j for j in range(8)] for i in range(8)],
    "overflow_l2_8x8.csv": [
        [(-1) ** (i + j) * (1.0 + (3 * i + j) % 5 / 10) * 1e154 for j in range(8)]
        for i in range(8)
    ],
}


#: A literal 7x7 real input for the L1 median lanes: quarters, each value
#: repeated within its row, so that medians tie; a -0.0 among the zeros;
#: and column 4 shifted by 1e7.
MEDIANS_7X7 = {
    "medians_7x7.csv": [
        [-0.0 if (i, j) == (1, 0) else (2 * i + 3 * j) % 5 / 4 - 0.5 + (1e7 if j == 4 else 0.0)
         for j in range(7)]
        for i in range(7)
    ],
}


#: Literal small-integer inputs, by file name, on which one Lloyd restart
#: moves a point into an empty cluster after its first iteration (the
#: ``edge/heuristic/repair_*`` ops give the budget, norm and seed).
REPAIR_MATRICES = {
    "repair_11x2.csv": [[0, 2], [1, 0], [3, 1], [1, 2], [0, 2], [2, 0], [2, 3], [0, 3], [0, 1],
                        [1, 2], [2, 3]],
    "repair_13x2.csv": [[3, 1], [1, 1], [3, 2], [0, 3], [1, 0], [0, 3], [1, 0], [0, 0], [0, 0],
                        [3, 3], [2, 3], [1, 3], [0, 0]],
}


#: Literal inputs of Lloyd's center step, by file name: 600 rows of mostly
#: zeros of both signs, so that a cluster's lower median ties -0.0 and 0.0
#: past the 256 entries where numpy's sort and selection may pick different
#: zeros; and three overlapping groups of 15 rows next to one 1000 away,
#: which settles after the first step while the others still trade rows.
SIGNED_ZEROS = [-0.0, 0.0, -0.0, 1.0, 0.0, -1.0, -0.0, 0.0, 2.0, 0.0, -0.0]
LLOYD_MATRICES = {
    "signed_zeros_600x3.csv": [
        [SIGNED_ZEROS[(i * (2 * j + 3) + j + i // 7) % 11] for j in range(3)] for i in range(600)
    ],
    "far_cluster_60x3.csv": [
        [base + ((7 * i + 3 * j + g) % 13) / 8 for j in range(3)]
        for g, base in enumerate((0.0, 1.0, 2.0, 1000.0))
        for i in range(15)
    ],
}


#: A literal 0/1 input as text, its zeros written ``-0`` and ``0.0`` and its
#: ones ``1.0``: the loader must read it as binary, so L1 costs print as
#: integers and the 1 + sqrt(2) certificate applies.
ZERO_ONE_TEXT = {
    "zero_one_text.csv": "-0,1.0,0.0,1.0\n1.0,-0,1.0,0.0\n0.0,0.0,-0,1.0\n"
    "1.0,1.0,0.0,-0\n-0,1.0,1.0,0.0\n",
}


def _edge_ops() -> list[dict]:
    """``exact``, ``ratio`` and ``run --mode exact`` on every input class,
    one-cluster axes included, then the other commands and the overflow
    ops.  ``inputs`` are ``[generator, rows, cols, seed, shift]`` as in
    ``bench/spec``; ``literals`` name files of :data:`OVERFLOW_MATRICES`,
    :data:`MATRICES_8X8`, :data:`MEDIANS_7X7`, :data:`REPAIR_MATRICES`,
    :data:`LLOYD_MATRICES` and :data:`ZERO_ONE_TEXT`."""
    classes = (("binary", "l1", 0), ("real", "l1", 0), ("real", "l2", 0), ("real", "l2", SHIFT))
    shapes = (
        (5, 6, ((1, 3), (3, 1), (1, 1), (2, 2))),
        (20, 5, ((1, 2),)),  # a one-cluster axis longer than any cap
        (5, 20, ((2, 1),)),
    )
    commands = (["exact"], ["ratio"], ["run", "--mode", "exact"])
    ops = []
    seed = 90_000
    for gen, norm, shift in classes:
        for n, m, budgets in shapes:
            for k_r, k_c in budgets:
                seed += 1
                for cmd in commands:
                    ops.append({
                        "key": f"edge/{cmd[0]}/{gen}_{norm}_{n}x{m}_k{k_r}{k_c}_s{seed}"
                        + (f"_shift{shift:g}" if shift else ""),
                        "argv": cmd + ["--input", "{x}", "--kr", str(k_r), "--kc", str(k_c),
                                       "--norm", norm],
                        "inputs": {"x": [gen, n, m, seed, shift]},
                    })
    # 8x8 at k=3,3, k=3,2 and k=4,1: the row partitions do not fit in one
    # scoring batch, so the oracle prunes its pair search by the one-way bound
    literal = ("ties", "offsets")
    for gen, norm, shift in classes + (("planted", "l2", 0),) + tuple(
        (name, norm, 0) for name in literal for norm in ("l1", "l2")
    ):
        for k_r, k_c in ((3, 3), (3, 2), (4, 1)):
            seed += 1
            generated, literals = {"x": [gen, 8, 8, seed, shift]}, {}
            if gen in literal:
                generated, literals = {}, {"x": f"{gen}_8x8.csv"}
            for cmd in (["exact"], ["ratio"]):
                ops.append({
                    "key": f"edge/{cmd[0]}/{gen}_{norm}_8x8_k{k_r}{k_c}_s{seed}"
                    + (f"_shift{shift:g}" if shift else ""),
                    "argv": cmd + ["--input", "{x}", "--kr", str(k_r), "--kc", str(k_c),
                                   "--norm", norm],
                    "inputs": generated,
                    "literals": literals,
                })
    # real L1 at 7x7, where ties and signed zeros reach the median lanes
    for k in ("2", "3"):
        for cmd in ("exact", "ratio"):
            ops.append({
                "key": f"edge/{cmd}/medians_l1_7x7_k{k}{k}",
                "argv": [cmd, "--input", "{x}", "--kr", k, "--kc", k, "--norm", "l1"],
                "inputs": {},
                "literals": {"x": "medians_7x7.csv"},
            })
    # Lloyd's bounds far from the origin, and its empty-cluster repair: on
    # the ties matrix a cluster stays empty (8 rows, 5 of them distinct), on
    # the repair matrices a point moves after the first iteration
    repairs = {"l1": ("repair_11x2.csv", 6, 787), "l2": ("repair_13x2.csv", 4, 384)}
    for norm in ("l1", "l2"):
        heuristic = ["run", "--mode", "heuristic", "--input", "{x}", "--norm", norm]
        seed += 1
        ops.append({
            "key": f"edge/heuristic/real_{norm}_300x10_k43_s{seed}_shift{SHIFT:g}",
            "argv": heuristic + ["--kr", "4", "--kc", "3"],
            "inputs": {"x": ["real", 300, 10, seed, SHIFT]},
        })
        ops.append({
            "key": f"edge/heuristic/ties_{norm}_8x8_k66_r3",
            "argv": heuristic + ["--kr", "6", "--kc", "6", "--restarts", "3"],
            "inputs": {},
            "literals": {"x": "ties_8x8.csv"},
        })
        name, k, lloyd_seed = repairs[norm]
        ops.append({
            "key": f"edge/heuristic/{name.removesuffix('.csv')}_{norm}_k{k}1_s{lloyd_seed}",
            "argv": heuristic + ["--kr", str(k), "--kc", "1", "--restarts", "1",
                                 "--seed", str(lloyd_seed)],
            "inputs": {},
            "literals": {"x": name},
        })
        far_seed = {"l1": 5, "l2": 2}[norm]
        ops.append({
            "key": f"edge/heuristic/far_cluster_60x3_{norm}_k41_s{far_seed}",
            "argv": heuristic + ["--kr", "4", "--kc", "1", "--restarts", "1",
                                 "--seed", str(far_seed)],
            "inputs": {},
            "literals": {"x": "far_cluster_60x3.csv"},
        })
    ops.append({
        "key": "edge/heuristic/signed_zeros_600x3_l1_k22",
        "argv": ["run", "--mode", "heuristic", "--input", "{x}", "--norm", "l1",
                 "--kr", "2", "--kc", "2"],
        "inputs": {},
        "literals": {"x": "signed_zeros_600x3.csv"},
    })
    for cmd in ("run", "ratio"):
        ops.append({
            "key": f"edge/{cmd}/zero_one_text_l1",
            "argv": [cmd, "--input", "{x}", "--norm", "l1"],
            "inputs": {},
            "literals": {"x": "zero_one_text.csv"},
        })
    csv = ["--count", "3", "--format", "csv"]
    for extra in (["sweep", "--norm", "l1"], ["sweep", "--norm", "l2"],
                  ["sweep", "--norm", "l2", "--planted"], ["verify-bounds", "--resolution", "20"]):
        ops.append({"key": "edge/csv/" + "_".join(extra), "argv": extra + csv, "inputs": {}})
    other = [["verify-bounds", "--count", c] for c in ("1", "7", "333")]
    other += [["verify-bounds", "--seed", s] for s in ("-1", "18446744073709551615")]
    # lattices from coarse to fine (2 ... 2999), and around the box search's
    # leaf side of 4 points: one leaf (3), split once (4, 5) or twice (9)
    other += [["verify-bounds", "--count", "20", "--resolution", r]
              for r in ("2", "81", "401", "1001", "3", "4", "5", "9", "2999")]
    # ragged stacks: the default count at two seeds, and 2000 blocks per
    # battery, where every shape recurs and the swap lockstep is wide
    other += [["verify-bounds", "--seed", s] for s in ("60000", "60023")]
    other += [["verify-bounds", "--count", "2000", "--resolution", "20", "--seed", s]
              for s in ("1", "2")]
    other += [["sweep", "--count", "5"] + g for g in (["--norm", "l1"], ["--norm", "l2"],
                                                      ["--norm", "l2", "--planted"])]
    other += [["sweep", "--rows", "1", "--cols", "1", "--norm", "l2"] + k
              for k in ([], ["--kr", "1", "--kc", "1"])]
    other += [["--help"], ["verify-bounds", "--help"], ["ratio"], ["sweep", "--count", "x"]]
    for argv in other:
        ops.append({"key": "edge/" + "_".join(argv), "argv": argv, "inputs": {}})
    inputs = [(name.removesuffix(".csv"), {}, {"x": name}) for name in OVERFLOW_MATRICES]
    inputs.append(("real_5x6_shift1e300", {"x": ["real", 5, 6, 90_100, 1e300]}, {}))
    for name, generated, literals in inputs:
        for norm in ("l1", "l2"):
            for cmd in (["run"], ["run", "--mode", "heuristic"], ["exact"], ["ratio"]):
                ops.append({
                    "key": f"edge/overflow/{'_'.join(cmd)}/{name}_{norm}",
                    "argv": cmd + ["--input", "{x}", "--kr", "2", "--kc", "1", "--norm", norm],
                    "inputs": generated,
                    "literals": literals,
                })
    ops.append({
        "key": "edge/overflow/exact/overflow_l2_8x8_k33",
        "argv": ["exact", "--input", "{x}", "--kr", "3", "--kc", "3", "--norm", "l2"],
        "inputs": {},
        "literals": {"x": "overflow_l2_8x8.csv"},
    })
    return ops


def pool_ops(name: str) -> list[dict]:
    if name == "edge":
        return _edge_ops()
    toy = name.startswith("toy/")
    kinds = spec.pool(name.removeprefix("toy/"), toy=toy)
    return [op for ops in kinds.values() for op in ops]


def _child(src: Path, out: Path, pools: list[str]) -> None:
    """Run every op of ``pools`` on the crossclust in ``src``, from the
    working directory, and write {key: [exit, stdout, stderr]} to ``out``."""
    import common

    common.cap_threads()
    sys.path.insert(0, str(src))
    import crossclust.cli

    if Path(crossclust.cli.__file__).resolve().parent != (src / "crossclust").resolve():
        raise SystemExit(f"error: imported crossclust from {crossclust.cli.__file__}")
    workdir = Path("inputs")  # relative, so both trees print the same input paths
    workdir.mkdir()
    literal = {**OVERFLOW_MATRICES, **MATRICES_8X8, **MEDIANS_7X7, **REPAIR_MATRICES,
               **LLOYD_MATRICES}
    for name, rows in literal.items():
        # repr round-trips every float exactly, as in bench/common.write_inputs
        text = "".join(",".join(map(repr, row)) + "\n" for row in rows)
        (workdir / name).write_text(text, encoding="utf-8")
    for name, text in ZERO_ONE_TEXT.items():
        (workdir / name).write_text(text, encoding="utf-8")
    results = {}
    for name in pools:
        ops = pool_ops(name)
        common.write_inputs(ops, workdir)
        for op in ops:
            paths = {a: common.input_path(workdir, g) for a, g in op["inputs"].items()}
            paths.update((a, workdir / f) for a, f in op.get("literals", {}).items())
            argv = [str(paths[a[1:-1]]) if a[:1] == "{" else a for a in op["argv"]]
            _, code, stdout, stderr = common.run_op(crossclust.cli, argv)
            results[op["key"]] = [code, stdout, stderr]
    out.write_text(json.dumps(results), encoding="utf-8")


def _run_tree(src: Path, pools: list[str]) -> dict:
    with tempfile.TemporaryDirectory(prefix="same_outputs_") as tmp:
        out = Path(tmp) / "results.json"
        cmd = [sys.executable, __file__, "--child", str(out), str(src), str(src)]
        for name in pools:
            cmd += ["--pool", name]
        proc = subprocess.run(cmd, cwd=tmp)
        if proc.returncode != 0 or not out.is_file():
            raise SystemExit(2)
        return json.loads(out.read_text(encoding="utf-8"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old_src", type=Path)
    parser.add_argument("new_src", type=Path)
    parser.add_argument("--pool", action="append", choices=POOLS,
                        help="pool to run (repeatable; default: all)")
    parser.add_argument("--child", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    pools = args.pool or list(POOLS)
    for src in (args.old_src, args.new_src):
        if not (src / "crossclust" / "__init__.py").is_file():
            print(f"error: no crossclust package in {src}", file=sys.stderr)
            return 2
    if args.child:
        _child(args.old_src.resolve(), args.child, pools)
        return 0
    old = _run_tree(args.old_src.resolve(), pools)
    new = _run_tree(args.new_src.resolve(), pools)
    differ = 0
    for key in old:
        fields = [f for f, a, b in zip(("exit", "stdout", "stderr"), old[key], new[key]) if a != b]
        if fields:
            differ += 1
            print(f"{key}: {', '.join(fields)} differ")
    print(f"{len(old)} ops in {', '.join(pools)}: {differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
