"""The work budget is compared in one place: `verify.require_budget`. No other
line of `src/galecross` compares `EXHAUSTIVE_BUDGET`, so no command can grow
a second copy of the rule with its own wording or bound."""

import ast
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "galecross").glob("*.py"))

HELPER = ("verify.py", "require_budget")


def _names_budget(node) -> bool:
    return (isinstance(node, ast.Name) and node.id == "EXHAUSTIVE_BUDGET") or (
        isinstance(node, ast.Attribute) and node.attr == "EXHAUSTIVE_BUDGET"
    )


def _budget_compares(tree):
    """(enclosing function name or None, line) of every comparison with
    EXHAUSTIVE_BUDGET as an operand."""
    found = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if isinstance(node, ast.Compare) and any(
            _names_budget(operand) for operand in (node.left, *node.comparators)
        ):
            found.append((func, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, None)
    return found


def test_budget_compared_only_in_its_helper():
    assert any(path.name == HELPER[0] for path in SOURCES)
    outside = []
    helper = []
    for path in SOURCES:
        for func, line in _budget_compares(ast.parse(path.read_text(), filename=str(path))):
            if (path.name, func) == HELPER:
                helper.append(line)
            else:
                outside.append(f"{path.name}:{line} in {func}")
    assert outside == []
    assert len(helper) == 1


def test_guard_sees_each_form():
    for text in [
        "if work > EXHAUSTIVE_BUDGET: pass",
        "def f():\n    return verify_ops.EXHAUSTIVE_BUDGET < pairs",
        "ok = 0 <= n <= EXHAUSTIVE_BUDGET",
    ]:
        assert _budget_compares(ast.parse(text)), text
    for text in [
        "EXHAUSTIVE_BUDGET = 10_000",
        "x = f'{EXHAUSTIVE_BUDGET}'",
        "if work > BUDGET: pass",
    ]:
        assert not _budget_compares(ast.parse(text)), text
