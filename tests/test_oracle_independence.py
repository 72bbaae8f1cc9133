"""The brute-force oracles in ``oracles.py`` are the one reference that shares
no code path with the library, so they must never import from it."""

import ast
from pathlib import Path

ORACLES = Path(__file__).with_name("oracles.py")


def library_references(source: str) -> list[str]:
    """Imports of crossclust (absolute or relative), and any name or string
    that could reach it another way (``__import__``, ``importlib``)."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [a.name for a in node.names if a.name.split(".")[0] == "crossclust"]
        elif isinstance(node, ast.ImportFrom):
            if node.level or (node.module or "").split(".")[0] == "crossclust":
                found.append("." * node.level + (node.module or ""))
        elif isinstance(node, ast.Name) and node.id == "crossclust":
            found.append(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.split(".")[0] == "crossclust":
                found.append(repr(node.value))
    return found


def test_oracles_do_not_import_the_library():
    assert library_references(ORACLES.read_text(encoding="utf-8")) == []


def test_the_guard_sees_every_way_in():
    for line in (
        "import crossclust",
        "import crossclust.cost as c",
        "from crossclust import cost",
        "from crossclust.cost import dissimilarity",
        "from . import cost",
        "m = __import__('crossclust.cost')",
    ):
        assert library_references(line), line
    assert library_references("import statistics\nfrom fractions import Fraction") == []
