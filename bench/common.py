"""Helpers shared by the benchmark scripts: locating the source tree,
writing generated inputs, running one CLI op and checking its output."""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import time
from pathlib import Path

import spec

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
REFERENCE = Path(__file__).resolve().parent / "reference.json"

#: Costs must match the reference within this relative tolerance (plus an
#: absolute floor for costs near zero).  Shifting a matrix by 1e7 rounds each
#: entry to 2e-9, so shifted instances differ from their unshifted reference
#: by far less than this; a different biclustering differs by far more.
REL_TOL = 1e-6
ABS_TOL = 1e-9

#: BLAS/OpenMP pools, capped at one thread so the benchmark is one
#: single-threaded client.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def cap_threads() -> None:
    """Must run before numpy is imported."""
    for var in THREAD_VARS:
        os.environ[var] = "1"


def import_crossclust():
    """Import crossclust from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "crossclust" / "__init__.py").is_file():
        raise SystemExit(f"error: no crossclust source tree at {SRC}")
    sys.path.insert(0, str(SRC))
    import crossclust

    if Path(crossclust.__file__).resolve().parent != SRC / "crossclust":
        raise SystemExit(f"error: imported crossclust from {crossclust.__file__}")
    return crossclust


def input_path(workdir: Path, generated) -> Path:
    return workdir / spec.input_name(generated)


def write_inputs(ops, workdir: Path, field: str = "inputs") -> None:
    """Generate and write every CSV the ops need (``field`` selects the run
    inputs or the inputs the reference is recorded on)."""
    from crossclust.worstcase import (
        planted_real_matrix,
        random_binary_matrix,
        random_real_matrix,
    )

    generators = {
        "binary": lambda n, m, s: random_binary_matrix(n, m, 0.5, s),
        "real": random_real_matrix,
        "planted": planted_real_matrix,
    }
    workdir.mkdir(parents=True, exist_ok=True)
    done = set()
    for op in ops:
        for generated in op[field].values():
            path = input_path(workdir, generated)
            if path in done:
                continue
            done.add(path)
            gen, n, m, seed, shift = generated
            values = generators[gen](n, m, seed).values
            if shift:
                values = values + shift
            # repr round-trips every float exactly
            text = "\n".join(",".join(map(repr, row)) for row in values.tolist())
            path.write_text(text + "\n", encoding="utf-8")


def resolve_argv(op: dict, workdir: Path, field: str = "inputs") -> list[str]:
    """The op's argv with input placeholders replaced by paths relative to
    the checkout root (the working directory of every run), so reports are
    byte-identical between runs."""
    paths = {
        name: os.path.relpath(input_path(workdir, generated), ROOT)
        for name, generated in op[field].items()
    }
    return [paths[a[1:-1]] if a[:1] == "{" else a for a in op["argv"]]


def run_op(cli_module, argv: list[str]) -> tuple[float, int | None, str, str]:
    """Run one CLI command in-process; return (wall seconds, exit code or
    None on an exception, stdout, error text)."""
    out, err = io.StringIO(), io.StringIO()
    code: int | None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli_module.main(argv)
    except SystemExit as exc:  # argparse rejects the argv
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # an escaped exception is a failed op, not a crash
        code = None
        err.write(f"{type(exc).__name__}: {exc}")
    wall = time.perf_counter() - t0
    return wall, code, out.getvalue(), err.getvalue()


def summarize(code: int | None, stdout: str) -> dict:
    """Reduce a report to what is checked: the exit code, a digest of every
    non-float field (partitions, counts, flags) and the float fields (costs,
    ratios).  The ``input`` path is left out."""
    try:
        report = json.loads(stdout)
    except ValueError:
        report = {"unparsed": stdout}
    exact: list = []
    floats: dict[str, float] = {}

    def walk(path: str, value) -> None:
        if isinstance(value, dict):
            for key in sorted(value):
                if key != "input":
                    walk(f"{path}.{key}" if path else key, value[key])
        elif isinstance(value, list):
            exact.append([path, "len", len(value)])
            for i, item in enumerate(value):
                walk(f"{path}.{i}", item)
        elif isinstance(value, float):
            floats[path] = value
        else:
            exact.append([path, value])

    walk("", report)
    digest = hashlib.sha256(json.dumps(exact).encode()).hexdigest()
    return {"exit": code, "exact": digest, "floats": floats}


def mismatch(got: dict, ref: dict | None, forgive: tuple[str, ...] = ()) -> str | None:
    """Why ``got`` does not match the reference, or None if it does.  The
    float fields named in ``forgive`` may differ; nothing else may."""
    if ref is None:
        return "no reference recorded"
    if got["exit"] != ref["exit"]:
        return f"exit code {got['exit']} != {ref['exit']}"
    if got["exact"] != ref["exact"]:
        return "partitions, counts or flags differ"
    if got["floats"].keys() != ref["floats"].keys():
        return "different float fields"
    for key, want in ref["floats"].items():
        if key in forgive:
            continue
        have = got["floats"][key]
        if abs(have - want) > REL_TOL * max(abs(have), abs(want)) + ABS_TOL:
            return f"{key} = {have!r}, reference {want!r}"
    return None


def load_reference() -> dict:
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)
