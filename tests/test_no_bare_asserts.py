"""The library states no invariant as an `assert` statement: `python -O`
strips those, and a broken invariant must raise a typed GalecrossError.
Its modules also import no private name from one another: a helper that two
modules share is public in the one module that owns it."""

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


def test_no_private_imports_between_modules():
    found = [
        f"{path.name}:{node.lineno} {alias.name}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").split(".")[0] == "galecross")
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert found == []
