"""The point side has one determinant route: in `configs.py` only
`PointConfig.orientation` calls a determinant, so the general-position scan
and the cocircuit table read their signs there, `crossing.py` calls none, and
`linalg.py` defines no Fraction `det` beside `int_det`."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "galecross"
ROUTE = ("PointConfig", "orientation")


def _name_of(node):
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _det_calls(tree):
    """(line, enclosing class and function names) of every call in `tree`
    whose function name ends in `det`."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = (*scope, node.name)
        if isinstance(node, ast.Call) and (_name_of(node.func) or "").endswith("det"):
            found.append((node.lineno, scope))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, ())
    return found


def _defines_det(tree):
    return any(
        isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name == "det"
        for node in ast.walk(tree)
    )


def _parse(name):
    path = SRC / name
    return ast.parse(path.read_text(), filename=str(path))


def test_only_orientation_calls_a_determinant_in_configs():
    calls = _det_calls(_parse("configs.py"))
    assert calls, "orientation no longer calls int_det"
    assert [(line, scope) for line, scope in calls if scope != ROUTE] == []


def test_cocircuit_table_and_crossing_read_orientation_only():
    tree = _parse("configs.py")
    table = next(
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == "cocircuit"
    )
    called = {_name_of(node.func) for node in ast.walk(table) if isinstance(node, ast.Call)}
    assert "orientation" in called
    assert [scope for _, scope in _det_calls(tree) if "cocircuit" in scope] == []
    assert _det_calls(_parse("crossing.py")) == []


def test_linalg_defines_no_fraction_det():
    assert not _defines_det(_parse("linalg.py"))


def test_guard_sees_each_form():
    scan = (
        "class PointConfig:\n"
        "    def _degenerate_subset(self):\n"
        "        return det(minor).numerator\n"
        "    def orientation(self, key):\n"
        "        return linalg.int_det(rows)\n"
    )
    assert [scope for _, scope in _det_calls(ast.parse(scan))] == [
        ("PointConfig", "_degenerate_subset"),
        ROUTE,
    ]
    assert _det_calls(ast.parse("value = detail(x) + self.orientation(key)")) == []
    assert _defines_det(ast.parse("def det(rows):\n    return int_det(rows)"))
    assert not _defines_det(ast.parse("def int_det(rows):\n    return 1"))
