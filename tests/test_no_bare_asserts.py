"""No check in the package may rest on ``assert``: ``python -O`` strips
assert statements, so every such check must raise explicitly."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "cubicha"


def test_no_assert_statements_in_package():
    files = sorted(SRC.glob("*.py"))
    assert files
    found = [
        f"{path.name}:{node.lineno}"
        for path in files
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
