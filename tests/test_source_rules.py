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
