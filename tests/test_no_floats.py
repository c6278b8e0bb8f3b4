"""The library computes exactly: no `/` operator, no `float(...)` call and no
float literal anywhere in `src/galecross`. Division of ints is `//` where it
is exact by construction, and every other quotient is a Fraction built with
`Fraction(num, den)`. The one float is the wall-clock field
`VerificationReport.elapsed`, whose default is 0.0; it never enters a JSON
report."""

import ast
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "galecross").glob("*.py"))


def _elapsed_default(tree):
    """The default value node of VerificationReport.elapsed, or None."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name == "VerificationReport":
            for stmt in node.body:
                if (
                    isinstance(stmt, ast.AnnAssign)
                    and isinstance(stmt.target, ast.Name)
                    and stmt.target.id == "elapsed"
                ):
                    return stmt.value
    return None


def _inexact(node) -> bool:
    if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float":
        return True
    return isinstance(node, ast.Constant) and type(node.value) is float


def test_no_division_or_float_in_library():
    assert any(path.name == "verify.py" for path in SOURCES)
    found = []
    exempt = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        allowed = _elapsed_default(tree)
        if allowed is not None:
            exempt.append(f"{path.name}:{allowed.lineno}")
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if _inexact(node) and node is not allowed
        ]
    assert found == []
    assert len(exempt) == 1 and exempt[0].startswith("verify.py:")


def test_guard_sees_each_kind():
    snippets = ["x = a / b", "x /= b", "x = float(y)", "x = 1.5", "x = 1e3"]
    for text in snippets:
        assert any(_inexact(node) for node in ast.walk(ast.parse(text))), text
    for text in ["x = a // b", "x = Fraction(a, b)", "x = 2", "x = 'a/b'"]:
        assert not any(_inexact(node) for node in ast.walk(ast.parse(text))), text
