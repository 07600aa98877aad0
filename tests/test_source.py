"""Properties of the source tree itself."""

import ast
from pathlib import Path

import dycksum


def test_no_bare_assert():
    # python -O strips assert statements; invariants raise AssertionError
    root = Path(dycksum.__file__).parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(root.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
