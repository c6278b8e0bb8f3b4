"""Exact dense linear algebra on rows of rationals: denominator clearing,
elimination, rank, determinants, and canonical null-space bases.

A matrix is a sequence of equal-length rows, and its width is the length of
the first row, so a matrix with no rows has no columns. Entries are Fractions
or ints; every result is exact either way. clear_denominators is the one rule
that turns rational rows into int rows; rref clears once and then eliminates
fraction-free on Python ints. int_det is the one determinant, on int rows the
caller already holds: the point side's orientation signs (which decide
general position), the diagram's spanning check and the candidate scan in
separations, whose normals are the cofactor vectors of their subsets, made
of (m-1) x (m-1) minors. int_det answers n <= 2 in closed form (so the
minors of the m = 3 scan cost one product difference) and runs Bareiss
elimination beyond. rref serves rank and kernel_basis.
Everything here is deterministic.
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


def clear_denominators(rows):
    """Int rows equal to `rows` times the lcm of all their denominators, and
    that lcm.

    Every entry must be an int or a Fraction; bools, floats, strings and the
    rest raise InvalidInputError. Rows of ints are returned as they are."""
    kinds = {type(x) for row in rows for x in row}
    if not kinds <= {int, Fraction}:
        names = sorted(kind.__name__ for kind in kinds - {int, Fraction})
        raise InvalidInputError(f"entries must be ints or Fractions, got {', '.join(names)}")
    if Fraction not in kinds:
        return rows, 1
    scale = lcm(*(x.denominator for row in rows for x in row))
    return [[x.numerator * (scale // x.denominator) for x in row] for row in rows], scale


def rref(rows) -> tuple[list[list[int]], tuple[int, ...], int]:
    """Fraction-free Gauss-Jordan elimination: (int_rows, pivots, den), where
    int_rows/den is the reduced row echelon form of `rows` and pivots are its
    pivot columns. The rows are cleared of denominators once; then each pivot
    p makes every other row (row*p - f*pivot_row) // den and p the new den
    (Edmonds/Jordan), exact because every entry is a minor of the cleared rows
    (Edmonds 1967). den may be negative."""
    ints, _ = clear_denominators(rows)
    a = [list(row) for row in ints]
    height = len(a)
    width = len(a[0]) if a else 0
    pivots: list[int] = []
    den = 1
    for c in range(width):
        r = len(pivots)
        if r == height:
            break
        pivot_row = next((i for i in range(r, height) if a[i][c] != 0), None)
        if pivot_row is None:
            continue
        a[r], a[pivot_row] = a[pivot_row], a[r]
        lead = a[r]
        p = lead[c]
        for i, row in enumerate(a):
            if i != r:
                f = row[c]
                if f:
                    a[i] = [(x * p - f * y) // den for x, y in zip(row, lead)]
                elif p != den:
                    a[i] = [x * p // den for x in row]
        pivots.append(c)
        den = p
    return a, tuple(pivots), den


def rank(rows) -> int:
    return len(rref(rows)[1])


def int_det(rows) -> int:
    """Determinant of a square matrix of ints: 1 for the empty matrix, the
    entry for n = 1, ad - bc for n = 2, and Bareiss elimination beyond, where
    every quotient is exact (Bareiss 1968). The caller checks the shape and
    the entry types."""
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    if n == 2:
        (a, b), (c, d) = rows
        return a * d - b * c
    a = [list(row) for row in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if swap is None:
                return 0
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
    return sign * a[n - 1][n - 1]


def kernel_basis(rows) -> list[tuple[Fraction, ...]]:
    """Canonical right-null-space basis: one vector per free column of the RREF,
    with unit entry at its free column and zeros at the other free columns."""
    reduced, pivots, den = rref(rows)
    width = len(rows[0]) if rows else 0
    pivot_set = set(pivots)
    basis = []
    for free in range(width):
        if free in pivot_set:
            continue
        v = [ZERO] * width
        v[free] = ONE
        for i, p in enumerate(pivots):
            v[p] = Fraction(-reduced[i][free], den)
        basis.append(tuple(v))
    return basis
