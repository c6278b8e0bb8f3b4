"""Canonical JSON plumbing shared by every file format.

Canonical form: sorted keys, no insignificant whitespace, rationals as
canonical strings, single trailing newline. Writers are atomic (temp file in
the target directory, then rename) so partially written files never exist.
"""

from __future__ import annotations

import json
import os
import tempfile

from .errors import InvalidInputError


def canonical_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def atomic_write_text(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".json")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def load_json(path: str):
    try:
        with open(path) as handle:
            return json.load(handle)
    except OSError as exc:
        raise InvalidInputError(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        # bad JSON, bad UTF-8, an oversized integer, or nesting too deep to parse
        raise InvalidInputError(f"not valid JSON: {path}: {exc}") from exc
