"""Exact dense linear algebra on rows of rationals: elimination, rank,
determinants, and canonical null-space bases.

A matrix is a sequence of equal-length rows, and its width is the length of
the first row, so a matrix with no rows has no columns. Entries are Fractions
or ints; every result is exact either way. det clears each row's
denominators and eliminates fraction-free on Python ints; rref and
kernel_basis eliminate over Fractions. Everything here is deterministic.
kernel_basis returns the RREF-derived basis (one vector per free column, free
columns in ascending order), which downstream code treats as *the* canonical
basis; semantic assertions elsewhere only ever use basis-invariant quantities.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .errors import InvalidInputError

ZERO = Fraction(0)
ONE = Fraction(1)


def rref(rows) -> tuple[list[list], tuple[int, ...]]:
    """Reduced row echelon form and the pivot column indices."""
    a = [list(r) for r in rows]
    height = len(a)
    width = len(a[0]) if a else 0
    pivots: list[int] = []
    r = 0
    for c in range(width):
        if r == height:
            break
        pivot_row = next((i for i in range(r, height) if a[i][c] != 0), None)
        if pivot_row is None:
            continue
        a[r], a[pivot_row] = a[pivot_row], a[r]
        inv = Fraction(a[r][c])
        a[r] = [x / inv for x in a[r]]
        for i in range(height):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
    return a, tuple(pivots)


def rank(rows) -> int:
    return len(rref(rows)[1])


def det(rows) -> Fraction:
    """Determinant by Bareiss elimination on ints.

    Each row is first multiplied by the lcm of its entries' denominators, so
    det(rows) is the integer determinant over the product of those scales;
    every Bareiss quotient on an integer matrix is exact (Bareiss 1968)."""
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise InvalidInputError("determinant requires a square matrix")
    if n == 0:
        return ONE
    a = []
    scale = 1
    for row in rows:
        row_scale = lcm(*(x.denominator for x in row))
        a.append([x.numerator * (row_scale // x.denominator) for x in row])
        scale *= row_scale
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if swap is None:
                return ZERO
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        pivot = a[k][k]
        for i in range(k + 1, n):
            aik = a[i][k]
            row_i = a[i]
            row_k = a[k]
            for j in range(k + 1, n):
                row_i[j] = (row_i[j] * pivot - aik * row_k[j]) // prev
            row_i[k] = 0
        prev = pivot
    return Fraction(sign * a[n - 1][n - 1], scale)


def kernel_basis(rows) -> list[tuple[Fraction, ...]]:
    """Canonical right-null-space basis: one vector per free column of the RREF,
    with unit entry at its free column and zeros at the other free columns."""
    reduced, pivots = rref(rows)
    width = len(rows[0]) if rows else 0
    pivot_set = set(pivots)
    basis = []
    for free in range(width):
        if free in pivot_set:
            continue
        v = [ZERO] * width
        v[free] = ONE
        for i, p in enumerate(pivots):
            v[p] = -reduced[i][free]
        basis.append(tuple(v))
    return basis
