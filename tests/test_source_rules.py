"""Rules on the package source itself."""

import ast
from pathlib import Path

import cubequot

SRC = Path(cubequot.__file__).parent


def test_no_assert_statements_in_package():
    # python -O strips assert; library invariants must be explicit checks
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)
        ]
    assert found == []


def test_no_string_popcounts_in_package():
    # bin(x).count("1") builds a string per call; int.bit_count is the one popcount
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "count"
            and [ast.dump(a) for a in node.args] == [ast.dump(ast.Constant("1"))]
        ]
    assert found == []
