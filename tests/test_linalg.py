import random
from fractions import Fraction
from itertools import permutations

from hypothesis import given, settings, strategies as st

from galecross.linalg import int_det, kernel_basis, rank, rref
from galecross.lp import lp_max_min
from oracles import fraction_kernel_basis, fraction_rref


def det_by_permutations(m):
    """Leibniz expansion; independent of the Bareiss code path."""
    assert all(len(row) == len(m) for row in m)
    total = Fraction(0)
    for perm in permutations(range(len(m))):
        sign = 1
        seen = list(perm)
        for i in range(len(seen)):
            for j in range(i + 1, len(seen)):
                if seen[i] > seen[j]:
                    sign = -sign
        term = Fraction(1)
        for i, j in enumerate(perm):
            term *= m[i][j]
        total += sign * term
    return total


def random_matrix(rng, rows, cols, spread=6):
    return [[rng.randint(-spread, spread) for _ in range(cols)] for _ in range(rows)]


def mul_vec(rows, v):
    return tuple(sum((a * b for a, b in zip(row, v)), Fraction(0)) for row in rows)


def matmul(a, b):
    columns = [mul_vec(a, [row[j] for row in b]) for j in range(len(b[0]))]
    return [list(row) for row in zip(*columns)]


def test_empty_matrix_needs_cols():
    # a zero row has no pivot, so every column is free: the width still
    # comes from the row
    assert kernel_basis([[0, 0, 0]]) == [
        (Fraction(1), Fraction(0), Fraction(0)),
        (Fraction(0), Fraction(1), Fraction(0)),
        (Fraction(0), Fraction(0), Fraction(1)),
    ]


def test_kernel_frozen_example():
    m = [[0, 1, 2], [1, 1, 1]]
    assert kernel_basis(m) == [(Fraction(1), Fraction(-2), Fraction(1))]


def test_vandermonde_det():
    nodes = [1, 2, 3]
    m = [[t**k for k in range(3)] for t in nodes]
    assert int_det(m) == 2  # product of pairwise node differences


def test_det_swap_sign():
    assert int_det([[0, 1], [1, 0]]) == -1
    assert int_det([[1]]) == 1


def test_det_matches_leibniz():
    rng = random.Random(4)
    for size in (2, 3, 4):
        for _ in range(15):
            m = random_matrix(rng, size, size)
            assert int_det(m) == det_by_permutations(m)


BIG = 2**200


@st.composite
def int_square_matrices(draw):
    """Square int matrices of size 0..4, the sizes around int_det's closed
    forms, with small, negative and 200-bit entries; in half of them the
    last row is k times the first (a zero row when k = 0), so the matrix is
    singular."""
    n = draw(st.integers(0, 4))
    entry = st.integers(-3, 3) | st.integers(-BIG, BIG) | st.sampled_from([BIG, -BIG])
    rows = [draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(n)]
    if n >= 1 and draw(st.booleans()):
        k = draw(st.integers(-3, 3) | st.just(BIG))
        rows[-1] = [k * x for x in rows[0]] if n >= 2 else [0]
    return rows


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(int_square_matrices())
def test_int_det_matches_leibniz(rows):
    value = int_det(rows)
    assert type(value) is int
    assert value == det_by_permutations(rows)


def test_int_det_closed_forms():
    assert int_det([]) == 1
    assert int_det([[0]]) == 0
    assert int_det([[-BIG]]) == -BIG
    assert int_det([[0, 0], [0, 0]]) == 0
    assert int_det([[BIG, 1], [BIG, 1]]) == 0
    assert int_det([[BIG, -1], [1, BIG]]) == BIG * BIG + 1
    assert int_det([[0, 1], [1, 0]]) == -1


def test_det_multiplicative():
    rng = random.Random(5)
    for _ in range(20):
        a = random_matrix(rng, 3, 3)
        b = random_matrix(rng, 3, 3)
        # matmul builds Fractions; their values are ints
        product = [[int(x) for x in row] for row in matmul(a, b)]
        assert int_det(product) == int_det(a) * int_det(b)


def _over(int_rows, den):
    return [[Fraction(x, den) for x in row] for row in int_rows]


def test_rref_idempotent_and_pivots():
    rng = random.Random(6)
    for _ in range(25):
        m = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 5))
        r, pivots, den = rref(m)
        reduced = _over(r, den)
        again, pivots2, den2 = rref(reduced)
        assert _over(again, den2) == reduced and pivots2 == pivots
        for k, j in enumerate(pivots):
            col = [row[j] for row in reduced]
            assert col[k] == 1
            assert all(col[i] == 0 for i in range(len(reduced)) if i != k)


RATIONALS = st.integers(-3, 3) | st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))


@st.composite
def rational_matrices(draw):
    """Rational matrices up to 5x6, the empty one included, with optional
    dependent rows, zero columns and rows negated to lead with a negative."""
    height = draw(st.integers(0, 5))
    width = draw(st.integers(1, 6)) if height else 0
    rows = [draw(st.lists(RATIONALS, min_size=width, max_size=width)) for _ in range(height)]
    if height >= 2 and draw(st.booleans()):
        a, b = draw(RATIONALS), draw(RATIONALS)
        rows[-1] = [a * x + b * y for x, y in zip(rows[0], rows[1])]
    if width:
        for j in draw(st.sets(st.integers(0, width - 1), max_size=2)):
            for row in rows:
                row[j] = 0
    for row in rows:
        lead = next((x for x in row if x != 0), 0)
        if lead > 0 and draw(st.booleans()):
            row[:] = [-x for x in row]
    return rows


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(rational_matrices())
def test_rref_matches_fraction_oracle(rows):
    int_rows, pivots, den = rref(rows)
    expected, expected_pivots = fraction_rref(rows)
    assert type(den) is int and den != 0
    assert all(type(x) is int for row in int_rows for x in row)
    assert pivots == expected_pivots
    assert _over(int_rows, den) == expected
    assert rank(rows) == len(expected_pivots)
    width = len(rows[0]) if rows else 0
    assert kernel_basis(rows) == fraction_kernel_basis(rows, width)


def test_kernel_properties():
    rng = random.Random(7)
    for _ in range(30):
        m = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 6))
        basis = kernel_basis(m)
        width = len(m[0])
        assert len(basis) == width - rank(m)
        zero = tuple(Fraction(0) for _ in range(len(m)))
        for v in basis:
            assert mul_vec(m, v) == zero
        # canonical form: each vector has a 1 in its own free column
        if basis:
            _, pivots, _ = rref(m)
            free = [j for j in range(width) if j not in pivots]
            for v, j in zip(basis, free):
                assert v[j] == 1
                assert all(v[jj] == 0 for jj in free if jj != j)


def _floats(value):
    """Every float anywhere inside nested tuples and lists."""
    if isinstance(value, (tuple, list)):
        return [f for item in value for f in _floats(item)]
    return [value] if isinstance(value, float) else []


def test_integer_rows_stay_exact():
    # int rows must give exact results: an int pivot divided without a
    # Fraction would turn a row into floats
    rng = random.Random(8)
    for _ in range(40):
        m = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 5))
        square = random_matrix(rng, len(m), len(m))
        res = lp_max_min(m, [rng.randint(-4, 4) for _ in m])
        results = [rref(m), rank(m), kernel_basis(m), int_det(square), res.objective, res.solution]
        assert _floats(results) == []
