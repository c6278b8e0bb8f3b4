"""The labeled-rows storage of both sides of Gale duality lives once, in
`configs.py`: no other module of `src/galecross` parses file rows, defines the
label lookup or the integer form, or knows where the general-position scan
stores its answer."""

import ast
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "galecross").glob("*.py"))

HOME = "configs.py"
ROW_PARSERS = {"parse_label", "parse_vector"}
ROW_DEFINITIONS = {"_position", "_integer_form"}
SCAN_STORE = "_degenerate_subset"


def _name_of(node):
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _row_code(tree):
    """(line, what) of every call of a row parser, definition of a row
    helper, and mention of the scan's storage name in `tree`."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and _name_of(node.func) in ROW_PARSERS:
            found.append((node.lineno, f"calls {_name_of(node.func)}"))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name in ROW_DEFINITIONS:
            found.append((node.lineno, f"defines {node.name}"))
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if _name_of(target) in ROW_DEFINITIONS:
                    found.append((node.lineno, f"defines {_name_of(target)}"))
        if _name_of(node) == SCAN_STORE or (
            isinstance(node, ast.Constant) and node.value == SCAN_STORE
        ):
            found.append((node.lineno, f"names {SCAN_STORE}"))
    return found


def test_row_code_lives_only_in_configs():
    assert any(path.name == HOME for path in SOURCES)
    outside = [
        f"{path.name}:{line} {what}"
        for path in SOURCES
        if path.name != HOME
        for line, what in _row_code(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert outside == []


def test_guard_sees_each_form():
    for text in [
        "coords = parse_vector(item['coords'])",
        "label = rationals.parse_label(item['label'])",
        "def _position(self, label):\n    return 0",
        "class D:\n    @cached_property\n    def _integer_form(self):\n        return ()",
        "_integer_form = cached_property(lambda self: ())",
        "known = '_degenerate_subset' in config.__dict__",
        "bad = config._degenerate_subset",
        "_degenerate_subset = None",
    ]:
        assert _row_code(ast.parse(text)), text
    for text in [
        "from .rationals import format_vector",
        "rows = diagram._integer_form[0]",
        "index = self._position(label)",
        "known = config._scanned()",
        "x = 'degenerate_subset'",
    ]:
        assert not _row_code(ast.parse(text)), text
