"""The test oracles import no library code: tests/oracles.py reaches its
answers by its own algorithms, so a fault in a library kernel cannot also
sit in the oracle that checks it."""

import ast
from pathlib import Path

ORACLES = Path(__file__).resolve().parent / "oracles.py"


def test_oracles_import_no_galecross():
    found = []
    for node in ast.walk(ast.parse(ORACLES.read_text(), filename=str(ORACLES))):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules = [node.module or ""]
        else:
            continue
        found += [
            f"oracles.py:{node.lineno} {module}"
            for module in modules
            if module.split(".")[0] == "galecross"
        ]
    assert found == []
