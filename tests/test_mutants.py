"""`tools/mutants.py`: which single mutants it makes of a module's source."""

import ast
import importlib.util
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "mutants.py"
spec = importlib.util.spec_from_file_location("mutants", TOOL)
mutants = sys.modules["mutants"] = importlib.util.module_from_spec(spec)  # for dataclass
spec.loader.exec_module(mutants)

SOURCE = b'''def f(x, y):
    """Strings such as "1 - 2" and f"{x + 1}" stay as they are."""
    if not x < 2:
        y += -x * 0.0
    z = (x  # a - b
         - y)
    return f"{x - 1}", (z - 1) / 3 == y, x is None
'''


def test_each_node_gives_one_mutant():
    assert [str(m) for m in mutants.mutants("m", SOURCE)] == [
        "m.py:3  not x < 2 -> x < 2",
        "m.py:3  < -> <=",
        "m.py:3  2 -> 3",
        "m.py:4  + -> -",
        "m.py:4  -x -> x",
        "m.py:4  * -> /",
        "m.py:4  0.0 -> 0.001",
        "m.py:5  - -> +",  # the operator on line 6, past the comment's "-"
        "m.py:7  - -> +",
        "m.py:7  1 -> 2",
        "m.py:7  / -> *",
        "m.py:7  3 -> 4",
        "m.py:7  == -> !=",
    ]


def test_each_mutant_rewrites_only_its_span_and_parses():
    for m in mutants.mutants("m", SOURCE):
        mutated = m.apply(SOURCE)
        ast.parse(mutated)
        assert SOURCE[m.start:m.end].decode() == m.old
        assert mutated[:m.start] == SOURCE[:m.start]
        assert mutated[m.start + len(m.new):] == SOURCE[m.end:]


def test_every_module_mutant_parses():
    package = TOOL.parents[1] / mutants.PACKAGE
    for path in sorted(package.glob("*.py")):
        source = path.read_bytes()
        for m in mutants.mutants(path.stem, source):
            ast.parse(m.apply(source))
