"""Workload definitions: the CLI commands each workload runs, and the inputs
they need.

Every workload has a fixed set of ops, grouped by kind, whose reference
outputs are recorded in ``reference.json``.  A pass runs every op of the set
once.  The ops of a pass are interleaved by kind: round ``r`` takes the
``r``-th op of each kind listed in ``ROUNDS``.  The run seed shuffles each
kind's ops, so it picks the order of a pass; every run does the same work.

This module is plain Python: it imports neither numpy nor crossclust.
"""

from __future__ import annotations

import random

WORKLOADS = ("certify", "exact_enum", "heuristic", "battery")

#: Kinds in one round of each workload.  A kind listed twice runs twice.
ROUNDS = {
    "certify": ("binary_l1", "real_l2", "planted_l2", "shifted_l2"),
    # binary ops are the fastest and most alike of the three kinds; with half
    # of the ops binary, the median falls among them and not on a gap
    "exact_enum": ("ratio_real_l1", "exact_binary_l1", "exact_binary_l1", "exact_real_l2"),
    "heuristic": ("uniform_l1", "uniform_l2", "planted_l1", "planted_l2"),
    "battery": ("verify_bounds", "worstcase", "worstcase"),
}

#: Spans the traced pass of each workload must record at least once; a
#: wrapper that records nothing means the tracer missed a binding.
EXPECTED_SPANS = {
    "certify": (
        "cli.main", "search.ratio", "search.run_scheme", "search.exact_biclustering",
        "oneway.exact_kcluster", "oneway.kcluster_cols", "cost.oneway_row_cost",
        "cost.biclustering_cost", "model.enumerate_partitions",
        "model.enumerate_partitions.next", "model.Partition", "model.DataMatrix",
        "model.DataMatrix.transpose", "model.load_matrix_csv",
        "worstcase.random_binary_matrix", "worstcase.random_real_matrix",
        "worstcase.planted_real_matrix",
    ),
    "exact_enum": (
        "cli.main", "search.run_scheme", "search.ratio", "search.exact_biclustering",
        "oneway.exact_kcluster", "model.enumerate_partitions.next", "model.Partition",
        "cost.oneway_row_cost", "cost.biclustering_cost", "cost.dissimilarity",
        "model.load_matrix_csv",
    ),
    "heuristic": (
        "cli.main", "search.run_scheme", "oneway.lloyd_kcluster",
        "model.load_matrix_csv", "model.DataMatrix.transpose",
        "cost.oneway_row_cost", "cost.biclustering_cost",
    ),
    "battery": (
        "cli.main", "bounds.per_bicluster_bound", "bounds.lower_bound_check",
        "bounds.swap_normalize", "bounds.l2_decomposition", "bounds.grid_search_alpha",
        "worstcase.worst_case_report", "worstcase.worst_case_matrix",
        "worstcase.random_binary_matrix", "worstcase.random_real_matrix",
        "search.exact_biclustering", "oneway.exact_kcluster", "cost.dissimilarity",
    ),
}

#: Offset added to the ``shifted_l2`` instances of ``certify``.  L2 costs are
#: translation invariant, so their reference is the program's own answer on
#: the unshifted matrix.
SHIFT = 1e7

#: The float fields in which a known-defect op may differ from its
#: reference without making the run incorrect: the oracle's cost and the
#: ratio built on it.  Any other difference (exit code, an exception,
#: ``certified``, the scheme's costs) is unexpected.
KNOWN_DEFECT_FLOATS = ("l_star", "ratio")

#: Sizes.  ``rounds`` is the number of rounds in a pass, so a pass holds
#: ``rounds * len(ROUNDS[workload])`` ops; the heuristic pass has
#: ``matrices * lloyd_seeds`` rounds.  A pass takes about 5-7 s on the
#: machine in README.md, so a run repeats it three or four times.  ``toy``
#: shrinks every workload for the smoke test; a pass keeps at least 11 ops,
#: the fewest that ``op_s_tail`` needs.
FULL = {
    "certify": dict(n=7, k=3, rounds=8),
    "exact_enum": dict(rows=9, cols=6, k=3, ratio_n=7, rounds=10),
    # one matrix per generator: each 2000x50 CSV costs set-up time
    "heuristic": dict(rows=2000, cols=50, k=5, restarts=1, matrices=1, lloyd_seeds=8),
    "battery": dict(rounds=24, count=None, resolution=None),
}
TOY = {
    "certify": dict(n=4, k=2, rounds=3),
    "exact_enum": dict(rows=6, cols=4, k=3, ratio_n=4, rounds=3),
    "heuristic": dict(rows=60, cols=8, k=3, restarts=2, matrices=1, lloyd_seeds=3),
    "battery": dict(rounds=4, count=5, resolution=20),
}


def input_name(spec) -> str:
    """File name of a generated input ``[generator, rows, cols, seed, shift]``."""
    gen, n, m, seed, shift = spec
    name = f"{gen}_{n}x{m}_s{seed}"
    if shift:
        name += f"_shift{shift:g}"
    return name + ".csv"


def _op(key, argv, inputs=None, ref_inputs=None, known_defect=False) -> dict:
    return {
        "key": key,
        "argv": argv,
        "inputs": inputs or {},
        # inputs the reference was recorded on, when they differ from ``inputs``
        "ref_inputs": ref_inputs or inputs or {},
        "known_defect": known_defect,
    }


def _certify(sz, prefix):
    n, k = str(sz["n"]), str(sz["k"])
    sweep = ["sweep", "--count", "1", "--rows", n, "--cols", n, "--kr", k, "--kc", k]
    pool = {kind: [] for kind in ROUNDS["certify"]}
    for i in range(sz["rounds"]):
        s = 10_000 + i
        pool["binary_l1"].append(_op(f"{prefix}binary_l1/{s}", sweep + ["--seed", str(s)]))
        s = 20_000 + i
        pool["real_l2"].append(
            _op(f"{prefix}real_l2/{s}", sweep + ["--norm", "l2", "--seed", str(s)])
        )
        # sweep draws instance ``seed`` with random_real_matrix(n, n, seed), so
        # the shifted slice is the real_l2 instance translated by SHIFT.
        pool["shifted_l2"].append(
            _op(
                f"{prefix}shifted_l2/{s}",
                ["ratio", "--input", "{x}", "--kr", k, "--kc", k, "--norm", "l2"],
                inputs={"x": ["real", sz["n"], sz["n"], s, SHIFT]},
                ref_inputs={"x": ["real", sz["n"], sz["n"], s, 0]},
                known_defect=True,  # ROADMAP item 2: L2 oracle cancellation
            )
        )
        s = 30_000 + i
        pool["planted_l2"].append(
            _op(
                f"{prefix}planted_l2/{s}",
                sweep + ["--norm", "l2", "--planted", "--seed", str(s)],
            )
        )
    return pool


def _exact_enum(sz, prefix):
    k = str(sz["k"])
    pool = {kind: [] for kind in ROUNDS["exact_enum"]}
    for kind, gen, norm in (
        ("exact_binary_l1", "binary", "l1"),
        ("exact_real_l2", "real", "l2"),
    ):
        for i in range(sz["rounds"] * ROUNDS["exact_enum"].count(kind)):
            s = 70_000 + i
            pool[kind].append(
                _op(
                    f"{prefix}{kind}/{s}",
                    ["run", "--input", "{x}", "--mode", "exact",
                     "--kr", k, "--kc", k, "--norm", norm],
                    inputs={"x": [gen, sz["rows"], sz["cols"], s, 0]},
                )
            )
    for i in range(sz["rounds"]):
        s = 80_000 + i
        pool["ratio_real_l1"].append(
            _op(
                f"{prefix}ratio_real_l1/{s}",
                ["ratio", "--input", "{x}", "--norm", "l1", "--kr", "2", "--kc", "2"],
                inputs={"x": ["real", sz["ratio_n"], sz["ratio_n"], s, 0]},
            )
        )
    return pool


def _heuristic_op(sz, prefix, gen, j, norm, lloyd_seed):
    base = 40_000 if gen == "real" else 50_000
    kind = ("uniform" if gen == "real" else "planted") + "_" + norm
    s = base + j
    return _op(
        f"{prefix}{kind}/{s}/{lloyd_seed}",
        ["run", "--input", "{x}", "--mode", "heuristic", "--kr", str(sz["k"]),
         "--kc", str(sz["k"]), "--restarts", str(sz["restarts"]),
         "--norm", norm, "--seed", str(lloyd_seed)],
        inputs={"x": [gen, sz["rows"], sz["cols"], s, 0]},
    )


def _heuristic(sz, prefix):
    pool = {kind: [] for kind in ROUNDS["heuristic"]}
    for gen, kind_prefix in (("real", "uniform"), ("planted", "planted")):
        for norm in ("l1", "l2"):
            for j in range(sz["matrices"]):
                for lloyd_seed in range(1, sz["lloyd_seeds"] + 1):
                    pool[f"{kind_prefix}_{norm}"].append(
                        _heuristic_op(sz, prefix, gen, j, norm, lloyd_seed)
                    )
    return pool


def _battery(sz, prefix):
    extra = []
    if sz["count"] is not None:
        extra = ["--count", str(sz["count"]), "--resolution", str(sz["resolution"])]
    pool = {"verify_bounds": [], "worstcase": []}
    for i in range(sz["rounds"]):
        s = 60_000 + i
        pool["verify_bounds"].append(
            _op(f"{prefix}verify_bounds/{s}", ["verify-bounds", "--seed", str(s)] + extra)
        )
    for q in range(1, 2 * sz["rounds"] + 1):
        pool["worstcase"].append(_op(f"{prefix}worstcase/{q}", ["worstcase", "--q", str(q)]))
    return pool


def pool(workload: str, toy: bool = False) -> dict[str, list[dict]]:
    """Every op of ``workload``, by kind."""
    sz = (TOY if toy else FULL)[workload]
    prefix = f"{'toy/' if toy else ''}{workload}/"
    if workload == "certify":
        return _certify(sz, prefix)
    if workload == "exact_enum":
        return _exact_enum(sz, prefix)
    if workload == "heuristic":
        return _heuristic(sz, prefix)
    if workload == "battery":
        return _battery(sz, prefix)
    raise ValueError(f"unknown workload {workload!r}")


def plan(workload: str, seed: int, toy: bool = False) -> dict:
    """The ops of one run: per kind, the ops in seed order."""
    rng = random.Random(f"{workload}:{seed}")
    kinds = pool(workload, toy)
    for ops in kinds.values():
        rng.shuffle(ops)
    return {"rounds": list(ROUNDS[workload]), "kinds": kinds}


def pass_ops(plan_: dict) -> list[dict]:
    """Every op of the plan once, interleaved by kind: round ``r`` takes the
    ``r``-th op of each kind (two consecutive ops of a kind listed twice)."""
    rounds = plan_["rounds"]
    per_round = {kind: rounds.count(kind) for kind in rounds}
    n_rounds = {len(plan_["kinds"][kind]) // n for kind, n in per_round.items()}
    if len(n_rounds) != 1:
        raise ValueError(f"kinds do not fill whole rounds: {per_round}")
    out = []
    for r in range(n_rounds.pop()):
        seen: dict[str, int] = {}
        for kind in rounds:
            out.append(plan_["kinds"][kind][r * per_round[kind] + seen.get(kind, 0)])
            seen[kind] = seen.get(kind, 0) + 1
    return out
