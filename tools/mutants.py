"""Check that tier-1 kills one-line mutants of the library's tolerances,
margins and encodings.

    python tools/mutants.py

Each entry of :data:`MUTANTS` names a file, a text that occurs in it exactly
once, the text that replaces it and why the change must be caught.  For
each mutant the working tree (``src``, ``tests``, ``bench`` and the rest,
uncommitted edits included) is copied to a temporary directory, the
mutation is applied there, and tier-1 runs on the copy with ``-x``.  The
tree itself is never written.  A mutant is *killed* when a test fails, and the first failing
test is reported; otherwise it *survived*.

A mutant whose ``equivalent`` field gives a reason may survive: no test
within the library's documented error bounds can tell it apart.  The exit
status is 0 when every other mutant is killed, 1 when one survives, and 2
when a mutation does not apply (its text is missing or not unique).  All
registered mutants take about 13 minutes on two cores, so the tool is not
part of tier-1.
"""

from __future__ import annotations

import argparse
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
TIER1 = ["-m", "pytest", "-q", "-x", "--continue-on-collection-errors", "-p", "no:cacheprovider"]
#: The tests of this tool check the registry against the unmutated tree, so
#: on a mutated copy they would fail for every mutant.
OWN_TESTS = ["--ignore", "tests/test_mutants.py"]
IGNORED = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache",
                                 ".bench_work", ".benchmarks")

#: Why the two ``_bounded_pairs`` margins below survive: with every bound
#: raised and every scored cost lowered by up to ``err``, the ``2 * err``
#: left still covers both faults; the third ``err`` covers the direct costs'
#: own rounding, which ``FirstMinimum`` takes as exact, so only a fault of
#: the direct costs could kill either (see ``TestMarginsUnderFaults``).
_DIRECT_ROUNDING = "covers only the direct costs' rounding, which no test faults"


class Mutant(NamedTuple):
    name: str
    file: str
    old: str
    new: str
    reason: str
    equivalent: str | None = None


MUTANTS = (
    Mutant("first_minimum_window", "src/crossclust/cost.py",
           "self._window = tol + 2.0 * err", "self._window = tol",
           "approximate costs within 2 err of the least must be re-scored"),
    Mutant("tie_rtol_zero", "src/crossclust/cost.py",
           "TIE_RTOL = 1e-12", "TIE_RTOL = 0.0",
           "costs equal up to rounding must tie, and the first must win"),
    Mutant("tie_rtol_wide", "src/crossclust/cost.py",
           "TIE_RTOL = 1e-12", "TIE_RTOL = 1e-6",
           "a cost 1e-8 of the scale above the least must not tie"),
    Mutant("l2_err_no_drift", "src/crossclust/cost.py",
           "(v * v).sum() + drift)", "(v * v).sum())",
           "the direct path's uncentered mean drifts at large offsets"),
    Mutant("l2_err_zero", "src/crossclust/cost.py",
           "self.err = float(4.0 * (n * m + n + m + 4) * eps * (v * v).sum() + drift)",
           "self.err = 0.0",
           "L2 table costs are rounded"),
    Mutant("real_l1_err_zero", "src/crossclust/cost.py",
           "self.err = 4.0 * n * m * eps * self.scale", "self.err = 0.0",
           "real-L1 table costs are rounded"),
    Mutant("pruning_margin_no_err", "src/crossclust/cost.py",
           "margin = 2.0 * score.err + TIE_RTOL * score.scale",
           "margin = TIE_RTOL * score.scale",
           "bounds and scored costs may each be off by err"),
    Mutant("pruning_margin_one_err", "src/crossclust/cost.py",
           "margin = 2.0 * score.err + TIE_RTOL * score.scale",
           "margin = 1.0 * score.err + TIE_RTOL * score.scale",
           "the second err covers the direct costs' rounding",
           equivalent=_DIRECT_ROUNDING),
    Mutant("incumbent_no_err", "src/crossclust/cost.py",
           "[l_c.argmin()])[0]) + score.err", "[l_c.argmin()])[0])",
           "the incumbent must be at least the direct cost of its pair",
           equivalent=_DIRECT_ROUNDING),
    Mutant("walk_key_shift", "src/crossclust/model.py",
           "tail_keys << p", "tail_keys << (p + 1)",
           "a completion's items follow the prefix's p items"),
    Mutant("skip_margin_zero", "src/crossclust/oneway.py",
           "return 4 * eps * diameter * ((t + 4) * (m + 3) + (t + 1) ** 2 + 1)",
           "return 0.0",
           "Lloyd's skip test must allow for rounded distances"),
    Mutant("zero_cost_eps_wide", "src/crossclust/search.py",
           "ZERO_COST_EPS = 1e-12", "ZERO_COST_EPS = 1e-6",
           "an optimum 1e-7 of the scale is not 0"),
    Mutant("ratio_slack_wide", "src/crossclust/search.py",
           "RATIO_SLACK = 1e-9", "RATIO_SLACK = 1e-3",
           "a ratio 1e-7 above the bound is not certified"),
    Mutant("pass_tol_wide", "src/crossclust/bounds.py",
           "PASS_TOL = 1e-9", "PASS_TOL = 1e-4",
           "the batteries' cross-check must see a 1e-6 violation"),
    Mutant("constraint_tol_wide", "src/crossclust/bounds.py",
           "CONSTRAINT_TOL = 1e-9", "CONSTRAINT_TOL = 1e-4",
           "a point 1e-7 outside a constraint is infeasible"),
    Mutant("box_rounding_zero", "src/crossclust/bounds.py",
           "BOX_ROUNDING = 2.0**-40", "BOX_ROUNDING = 0.0",
           "the box bounds must allow for their rounding"),
)


def mutated(tree: Path, mutant: Mutant) -> str:
    """The text of the mutant's file under ``tree``, mutated; a text that is
    missing or occurs more than once raises ``ValueError``."""
    text = (tree / mutant.file).read_text(encoding="utf-8")
    count = text.count(mutant.old)
    if count != 1:
        raise ValueError(f"{mutant.name}: {mutant.old!r} occurs {count} times in {mutant.file}")
    return text.replace(mutant.old, mutant.new)


def run(mutant: Mutant) -> str | None:
    """Run tier-1 on a mutated copy of the tree: the first failing test, or
    None if every test passed."""
    with tempfile.TemporaryDirectory(prefix="mutant_") as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=IGNORED)
        (tree / mutant.file).write_text(mutated(tree, mutant), encoding="utf-8")
        path = os.pathsep.join(filter(None, ["src", os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONPATH": path, "PYTHONDONTWRITEBYTECODE": "1"}
        proc = subprocess.run([sys.executable, *TIER1, *OWN_TESTS], cwd=tree, env=env,
                              capture_output=True, text=True)
    if proc.returncode == 0:
        return None
    failed = re.search(r"^(?:FAILED|ERROR) (.+?)(?: - .*)?$", proc.stdout, re.MULTILINE)
    return failed.group(1) if failed else f"pytest exit {proc.returncode}"


def main(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__.split("\n\n")[0]).parse_args(argv)
    try:
        for m in MUTANTS:  # every mutation applies before any test runs
            mutated(ROOT, m)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    survivors = 0
    for m in MUTANTS:
        failed = run(m)
        if failed is not None:
            print(f"{m.name}: killed by {failed}", flush=True)
        elif m.equivalent:
            print(f"{m.name}: survived, equivalent: {m.equivalent}", flush=True)
        else:
            print(f"{m.name}: SURVIVED ({m.reason})", flush=True)
            survivors += 1
    print(f"{len(MUTANTS)} mutants: {survivors} survived that must be killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
