"""``cli.py`` only parses and prints: it computes nothing itself, so it
imports no numpy, and it reaches no private kernel or battery helper of
another module."""

import ast
from pathlib import Path

import crossclust.cli

CLI = Path(crossclust.cli.__file__)


def forbidden_imports(source: str) -> list[str]:
    """Imports of numpy, and of underscore-prefixed names or modules of
    the package (relative or absolute)."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "numpy":
                    found.append(alias.name)
                elif parts[0] == "crossclust" and any(p.startswith("_") for p in parts):
                    found.append(alias.name)
        elif isinstance(node, ast.ImportFrom):
            parts = (node.module or "").split(".")
            if parts[0] == "numpy":
                found.append(node.module)
            elif node.level or parts[0] == "crossclust":
                path = "." * node.level + (node.module or "")
                if any(p.startswith("_") for p in parts):
                    found.append(path)
                found += [f"{path}:{a.name}" for a in node.names if a.name.startswith("_")]
    return found


def test_cli_imports_no_numpy_and_no_private_name():
    assert forbidden_imports(CLI.read_text(encoding="utf-8")) == []


def test_the_check_sees_every_way_in():
    for line in (
        "import numpy",
        "import numpy.linalg as la",
        "from numpy import errstate",
        "from .bounds import PASS_TOL, _spread",
        "from crossclust.rng import _GAMMA",
        "from . import _private",
        "from ._private import helper",
        "import crossclust._private",
    ):
        assert forbidden_imports(line), line
    assert forbidden_imports("import json\nfrom .verify import verify_bounds") == []
