import random
from fractions import Fraction

import pytest

from galecross.errors import InvalidInputError
from galecross.lp import (
    INFEASIBLE,
    OPTIMAL,
    UNBOUNDED,
    lp_max_min,
    simplex_max,
)
from oracles import fm_max_min


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

