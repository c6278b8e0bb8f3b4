"""Rational scalar support: the text grammar used in every file format.

The scalar type itself is fractions.Fraction, which already keeps values in
canonical form (gcd-reduced, positive denominator). This module pins the
serialization grammar: optional '-', digits, optionally '/' followed by digits
for the denominator. "3", "-7/2", "0" are canonical; "+3", "1.5", "3/0" and
surrounding whitespace are rejected. A vector is a JSON list of such strings,
a count in a file header is a JSON integer, and a label is a JSON string.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import InvalidInputError

_RATIONAL_RE = re.compile(r"-?[0-9]+(/[0-9]+)?\Z")


def parse_rational(text: str) -> Fraction:
    """Parse a rational string per the grammar; reject denominator zero."""
    if not isinstance(text, str) or _RATIONAL_RE.match(text) is None:
        raise InvalidInputError(f"not a rational literal: {text!r}")
    if "/" in text:
        num, den = text.split("/")
        if int(den) == 0:
            raise InvalidInputError(f"zero denominator: {text!r}")
        return Fraction(int(num), int(den))
    return Fraction(int(text))


def format_rational(value: Fraction) -> str:
    """Canonical text form: denominator omitted when it is 1."""
    return str(Fraction(value))


def parse_vector(items) -> tuple[Fraction, ...]:
    if not isinstance(items, list):
        raise InvalidInputError(f"not a list of rationals: {items!r}")
    return tuple(parse_rational(x) for x in items)


def parse_count(value, name: str) -> int:
    """A header field that must be a JSON integer: no bool, float or string."""
    if type(value) is not int:
        raise InvalidInputError(f"{name} must be a JSON integer, got {value!r}")
    return value


def parse_label(value) -> str:
    """A point or vector label, which must be a JSON string."""
    if not isinstance(value, str):
        raise InvalidInputError(f"label must be a JSON string, got {value!r}")
    return value


def format_vector(coords) -> list[str]:
    return [format_rational(c) for c in coords]
