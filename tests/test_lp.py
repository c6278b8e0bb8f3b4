import random
from fractions import Fraction

import pytest
from hypothesis import event, given, settings, strategies as st

import galecross.lp
import oracles
from conftest import with_pivots
from galecross.errors import InvalidInputError, TheoremViolationError
from galecross.lp import (
    INFEASIBLE,
    OPTIMAL,
    UNBOUNDED,
    lp_max_min,
    simplex_max,
)
from oracles import fm_max_min, fraction_simplex_max


def test_simplex_known_optimum():
    # max x + y subject to x + s1 = 1, y + s2 = 2, all vars >= 0
    res = simplex_max(
        [1, 1, 0, 0],
        [[1, 0, 1, 0], [0, 1, 0, 1]],
        [1, 2],
    )
    assert res.status == OPTIMAL
    assert res.objective == 3
    assert res.solution[:2] == (1, 2)


def test_simplex_infeasible():
    # x1 + x2 = -1 with x >= 0
    res = simplex_max([1, 0], [[1, 1]], [-1])
    assert res.status == INFEASIBLE


def test_simplex_unbounded():
    # max x1 - x2 subject to x1 - x2 = 0... unbounded along the ray (1,1)? no:
    # objective is 0 on the feasible set; use x1 - x2 = 1, maximize x1
    res = simplex_max([1, 0], [[1, -1]], [1])
    assert res.status == UNBOUNDED


def test_simplex_degenerate_terminates():
    # redundant constraints force degenerate pivots; Bland's rule must exit
    res = simplex_max([1, 1], [[1, 1], [2, 2]], [1, 2])
    assert res.status == OPTIMAL
    assert res.objective == 1


def test_optimize_stops_when_a_basis_repeats(monkeypatch):
    # Bland's rule never visits a basis twice; a pivot that changes nothing
    # would keep the same column entering forever, and the basis count
    # C(columns, rows) turns that into an error instead of a hang
    monkeypatch.setattr(galecross.lp, "_pivot", lambda tab, basis, den, r, s: den)
    with pytest.raises(TheoremViolationError, match="basis count"):
        simplex_max([1, 1], [[1, 2]], [3])


def test_lp_max_min_frozen_examples():
    res = lp_max_min([[1, 1], [1, -1]], [1, 1])
    assert res.status == OPTIMAL
    assert res.objective == 0
    assert res.solution == (Fraction(1), Fraction(0))

    res = lp_max_min([[1, 1], [1, -1]], [1, 0])
    assert res.status == OPTIMAL
    assert res.objective == Fraction(1, 2)
    assert res.solution == (Fraction(1, 2), Fraction(1, 2))


def test_lp_max_min_solution_satisfies_system():
    rng = random.Random(11)
    hits = 0
    while hits < 40:
        n = rng.randint(1, 5)
        k = rng.randint(1, 3)
        a = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(k)]
        b = [rng.randint(-5, 5) for _ in range(k)]
        res = lp_max_min(a, b)
        if res.status != OPTIMAL:
            continue
        hits += 1
        assert [sum(x * y for x, y in zip(row, res.solution)) for row in a] == b
        assert min(res.solution) == res.objective


def test_lp_max_min_agrees_with_fourier_motzkin():
    rng = random.Random(12)
    for _ in range(60):
        n = rng.randint(1, 4)
        k = rng.randint(1, 3)
        rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(k)]
        b = [rng.randint(-4, 4) for _ in range(k)]
        res = lp_max_min(rows, b)
        status, t = fm_max_min(rows, b)
        assert status == res.status
        if status == OPTIMAL:
            assert t == res.objective


def test_lp_max_min_no_constraints_unbounded():
    res = lp_max_min([], [])
    assert res.status == UNBOUNDED


def test_lp_max_min_shape_errors():
    with pytest.raises(InvalidInputError):
        lp_max_min([[1, 2]], [1, 2])
    with pytest.raises(InvalidInputError):
        lp_max_min([[1, 2], [3]], [1, 2])
    # entries are ints or Fractions only, in every place of the program
    for aeq, b in (
        ([[0.5, 1.0]], [1]),
        ([[1, 2]], [0.5]),
        ([["1/2", 1]], [1]),
        ([[1, 2]], ["1"]),
        ([[True, 1]], [1]),
        ([[1, 2]], [False]),
        ([[None, 1]], [1]),
        ([[Fraction(1, 2), 1.5]], [1]),
    ):
        with pytest.raises(InvalidInputError, match="ints or Fractions"):
            lp_max_min(aeq, b)
    for c in ([1.0, 0], [True, 0], ["1", 0]):
        with pytest.raises(InvalidInputError, match="ints or Fractions"):
            simplex_max(c, [[1, 1]], [1])


RATIONALS = st.integers(-4, 4) | st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))


@st.composite
def small_lps(draw):
    """c, a, b with rational entries and b of either sign; some with a row
    that is a combination of others (redundant), a row contradicting another
    (infeasible), or a free zero column with positive cost (unbounded when
    feasible)."""
    n = draw(st.integers(0, 5))
    m = draw(st.integers(1, 4))
    a = [draw(st.lists(RATIONALS, min_size=n, max_size=n)) for _ in range(m)]
    # zeros in b make degenerate vertices, where phase 1 can end with an
    # artificial variable basic at zero that must be pivoted out
    b = draw(st.lists(st.just(0) | RATIONALS, min_size=m, max_size=m))
    c = draw(st.lists(RATIONALS, min_size=n, max_size=n))
    shape = draw(st.sampled_from(["plain", "redundant", "infeasible", "unbounded"]))
    i = draw(st.integers(0, m - 1))
    j = draw(st.integers(0, m - 1))
    k = draw(RATIONALS)
    if shape == "redundant":
        a.append([k * x + y for x, y in zip(a[i], a[j])])
        b.append(k * b[i] + b[j])
    elif shape == "infeasible":
        a.append(list(a[i]))
        b.append(b[i] + 1)
    elif shape == "unbounded":
        a = [row + [0] for row in a]
        c = c + [1]
    return c, a, b


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(small_lps())
def test_simplex_matches_fraction_tableau(lp):
    # same result and, by Bland's rule on a positively scaled tableau, the
    # very same pivots
    c, a, b = lp
    res, pivots = with_pivots(galecross.lp, "_pivot", lambda: simplex_max(c, a, b))
    want, want_pivots = with_pivots(
        oracles, "_fraction_pivot", lambda: fraction_simplex_max(c, a, b)
    )
    event(res.status)
    assert (res.status, res.objective, res.solution) == want
    assert pivots == want_pivots
    if res.status == OPTIMAL:
        assert all(type(v) is Fraction for v in (res.objective, *res.solution))
