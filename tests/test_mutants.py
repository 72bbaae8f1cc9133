"""``tools/mutants.py``: every registered mutant applies to this tree, and
a text that does not is refused."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "tools" / "mutants.py"

_spec = importlib.util.spec_from_file_location("mutants", SCRIPT)
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda m: m.name)
def test_every_mutant_applies_once(mutant):
    text = (ROOT / mutant.file).read_text(encoding="utf-8")
    assert mutants.mutated(ROOT, mutant) != text


def test_a_missing_text_is_refused():
    gone = mutants.Mutant("gone", "src/crossclust/cost.py", "no such text", "x", "none")
    with pytest.raises(ValueError, match="occurs 0 times"):
        mutants.mutated(ROOT, gone)

