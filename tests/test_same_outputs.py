"""``tools/same_outputs.py``: one toy pool, this source tree on both sides,
and a copy whose JSON reports are laid out differently."""

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "tools" / "same_outputs.py"
SRC = ROOT / "src"


def _compare(old, new):
    return subprocess.run(
        [sys.executable, str(SCRIPT), str(old), str(new), "--pool", "toy/certify"],
        capture_output=True, text=True, timeout=300,
    )


def test_a_tree_matches_itself():
    proc = _compare(SRC, SRC)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1] == "12 ops in toy/certify: 0 differ"


def test_a_changed_report_is_listed(tmp_path):
    changed = tmp_path / "src"
    shutil.copytree(SRC, changed, ignore=shutil.ignore_patterns("__pycache__"))
    cli = changed / "crossclust" / "cli.py"
    text = cli.read_text()
    cli.write_text(text.replace("json.dumps(report)", "json.dumps(report, indent=1)"))
    proc = _compare(SRC, changed)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[-1] == "12 ops in toy/certify: 12 differ"
    assert all(line.endswith(": stdout differ") for line in lines[:-1])
