"""The library states no invariant as an `assert` statement: `python -O`
strips those, and a broken invariant must raise a typed GalecrossError."""

import ast
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "galecross").glob("*.py"))


def test_no_assert_statements():
    assert any(path.name == "lp.py" for path in SOURCES)
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
