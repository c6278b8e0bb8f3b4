"""Exact linear programming over Fractions.

A dense two-phase tableau simplex with Bland's rule (guaranteed termination,
no tolerances anywhere). Problem sizes in this package are tiny (tens of rows
and columns), so clarity beats sparsity.

Public surface:
  simplex_max -- maximize c.x subject to a x = b, x >= 0.
  lp_max_min  -- maximize t subject to Aeq x = b and x_i >= t (x otherwise
                 free). The package's one reduction to simplex_max: both the
                 crossing predicate and the realizability check
                 gale.is_realizable are stated as lp_max_min programs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InvalidInputError
from .linalg import Matrix, ONE, ZERO

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class LpResult:
    status: str
    objective: Fraction | None = None
    solution: tuple[Fraction, ...] | None = None


def _optimize(tab, rhs, basis, cost):
    """Pivot the canonical tableau to optimality for `cost` (maximization).

    Bland's rule both for entering (smallest improving column index) and
    leaving (smallest basic variable among minimum ratios). Returns "optimal"
    or "unbounded"; mutates tab/rhs/basis in place.
    """
    m = len(tab)
    n = len(cost)
    while True:
        cb = [cost[basis[i]] for i in range(m)]
        entering = -1
        for j in range(n):
            reduced = cost[j] - sum((cb[i] * tab[i][j] for i in range(m)), ZERO)
            if reduced > 0:
                entering = j
                break
        if entering < 0:
            return OPTIMAL
        leaving = -1
        best = None
        for i in range(m):
            coef = tab[i][entering]
            if coef > 0:
                ratio = rhs[i] / coef
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leaving]):
                    best = ratio
                    leaving = i
        if leaving < 0:
            return UNBOUNDED
        _pivot(tab, rhs, basis, leaving, entering)


def _pivot(tab, rhs, basis, i, j):
    pivot = tab[i][j]
    tab[i] = [x / pivot for x in tab[i]]
    rhs[i] = rhs[i] / pivot
    for k in range(len(tab)):
        if k != i and tab[k][j] != 0:
            f = tab[k][j]
            tab[k] = [x - f * y for x, y in zip(tab[k], tab[i])]
            rhs[k] = rhs[k] - f * rhs[i]
    basis[i] = j


def simplex_max(c, a, b) -> LpResult:
    """Maximize c.x subject to a x = b, x >= 0. Two-phase, exact."""
    m = len(a)
    n = len(c)
    rows = [list(map(Fraction, row)) for row in a]
    rhs = list(map(Fraction, b))
    if len(rhs) != m or any(len(row) != n for row in rows):
        raise InvalidInputError("inconsistent LP dimensions")
    for i in range(m):
        if rhs[i] < 0:
            rows[i] = [-x for x in rows[i]]
            rhs[i] = -rhs[i]

    # phase 1: drive artificial variables (columns n..n+m-1) to zero
    tab = [rows[i] + [ONE if j == i else ZERO for j in range(m)] for i in range(m)]
    basis = list(range(n, n + m))
    cost1 = [ZERO] * n + [-ONE] * m
    _optimize(tab, rhs, basis, cost1)
    if any(basis[i] >= n and rhs[i] != 0 for i in range(m)):
        return LpResult(INFEASIBLE)
    redundant = []
    for i in range(m):
        if basis[i] >= n:
            j = next((jj for jj in range(n) if tab[i][jj] != 0), None)
            if j is None:
                redundant.append(i)
            else:
                _pivot(tab, rhs, basis, i, j)
    for i in sorted(redundant, reverse=True):
        del tab[i]
        del rhs[i]
        del basis[i]
    tab = [row[:n] for row in tab]

    cost2 = list(map(Fraction, c))
    status = _optimize(tab, rhs, basis, cost2)
    if status == UNBOUNDED:
        return LpResult(UNBOUNDED)
    x = [ZERO] * n
    for i, bi in enumerate(basis):
        x[bi] = rhs[i]
    objective = sum((cost2[j] * x[j] for j in range(n)), ZERO)
    return LpResult(OPTIMAL, objective, tuple(x))


def lp_max_min(aeq: Matrix, b) -> LpResult:
    """Maximize t subject to aeq.x = b and x_i >= t for every i; x free above t.

    Substitutes y_i = x_i - t >= 0 and splits the free t, then solves the
    standard form exactly. On "optimal" the solution is the original x."""
    n = aeq.cols
    if len(b) != aeq.rows:
        raise InvalidInputError("b length does not match Aeq row count")
    row_sums = [sum(row, ZERO) for row in aeq.data]
    a = [list(row) + [s, -s] for row, s in zip(aeq.data, row_sums)]
    c = [ZERO] * n + [ONE, -ONE]
    res = simplex_max(c, a, b)
    if res.status != OPTIMAL:
        return res
    t = res.objective
    x = tuple(res.solution[i] + t for i in range(n))
    return LpResult(OPTIMAL, t, x)
