"""Exact linear programming on an integer tableau.

A dense two-phase tableau simplex with Bland's rule (guaranteed termination,
no tolerances anywhere). Problem sizes in this package are tiny (tens of rows
and columns), so clarity beats sparsity. The tableau is fraction-free in the
style of lrslib (Avis 2000): a matrix of Python ints with one common
denominator, so the true tableau is tab/den, and each pivot is the
Edmonds/Jordan integer update. As in lrs, the objective is kept as one more
int row of the tableau, den times the reduced costs, and every pivot updates
it with the same step; it is built once per phase, so choosing the entering
column reads one row instead of pricing each column against the basis rows.

Public surface:
  simplex_max -- maximize c.x subject to a x = b, x >= 0.
  lp_max_min  -- lp_max_min(aeq, b): maximize t subject to aeq x = b and
                 x_i >= t (x otherwise free), where aeq is a sequence of
                 equal-length rows, one per entry of b. Its one caller is
                 the crossing verdict, crossing._crossing.

simplex_max takes ints and Fractions as they come (anything else is refused
once per LP) and clears the denominators of a Fraction input. Ints become
Fractions only on the way out: the objective is one Fraction, and the
solution stays int numerators over the final tableau's denominator, and
reading LpResult.solution builds its Fractions. lp_max_min shifts those
numerators by t before any Fraction exists, so a caller that reads only the
status and the objective (the crossing predicate on a non-crossing pair)
makes no solution Fraction at all.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import NamedTuple

from .errors import InvalidInputError, TheoremViolationError
from .linalg import clear_denominators

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


class LpResult(NamedTuple):
    """An LP's status and, when optimal, its objective and its solution as
    int numerators over one denominator."""

    status: str
    objective: Fraction | None = None
    numerators: list[int] | None = None
    den: int = 1

    @property
    def solution(self) -> tuple[Fraction, ...] | None:
        if self.numerators is None:
            return None
        return tuple(Fraction(v, self.den) for v in self.numerators)


def _objective_row(tab, basis, den, cost):
    """den times the reduced-cost row of `cost` (maximization) for the basis,
    kept as the tableau's last row: entry j is sum cb_i tab_ij - cost_j*den,
    negative exactly when column j improves, and the last entry, over den, is
    the objective value of the basic solution."""
    row = [-c * den for c in cost] + [0]
    for b, tab_row in zip(basis, tab):
        if cost[b]:
            row = [x + cost[b] * y for x, y in zip(row, tab_row)]
    return row


def _optimize(tab, basis, den):
    """Pivot the integer tableau to optimality for the objective held in its
    last row (see _objective_row). Returns ("optimal" or "unbounded", den);
    mutates tab/basis in place.

    Bland's rule both for entering (the first negative entry of the
    objective row) and leaving (smallest basic variable among minimum
    ratios). The true tableau is tab/den with den > 0, so the ratios of the
    right-hand side (each row's last entry) to positive column entries
    compare by cross-multiplying. Bland's rule visits no basis twice, so
    more iterations than there are bases, C(columns, rows), mean a broken
    tableau and raise TheoremViolationError instead of looping forever.
    """
    rows = len(tab) - 1
    columns = len(tab[-1]) - 1
    for _ in range(comb(columns, rows)):
        obj = tab[-1]
        entering = -1
        for j in range(columns):
            if obj[j] < 0:
                entering = j
                break
        if entering < 0:
            return OPTIMAL, den
        leaving = -1
        for i in range(rows):
            row = tab[i]
            coef = row[entering]
            if coef > 0:
                if leaving >= 0:
                    lead = tab[leaving]
                    lhs = row[-1] * lead[entering]
                    rhs = lead[-1] * coef
                    if lhs > rhs or (lhs == rhs and basis[i] > basis[leaving]):
                        continue
                leaving = i
        if leaving < 0:
            return UNBOUNDED, den
        den = _pivot(tab, basis, den, leaving, entering)
    raise TheoremViolationError("simplex pivoted past its basis count: THEOREM_VIOLATION")


def _pivot(tab, basis, den, r, s):
    """Exchange basis[r] for column s and return the new common denominator.

    Edmonds/Jordan update: with p = tab[r][s], every other row k, the
    objective row included, becomes (tab[k]*p - tab[k][s]*tab[r]) // den and
    |p| is the new denominator; a negative pivot first negates its own row,
    which negates all others too. The division is exact because every entry
    is then a minor of the scaled input matrix with the cost row appended
    (Edmonds 1967; lrs keeps its objective row the same way)."""
    pivot_row = tab[r]
    p = pivot_row[s]
    if p < 0:
        pivot_row = tab[r] = [-x for x in pivot_row]
        p = -p
    for k, row in enumerate(tab):
        if k != r:
            f = row[s]
            if f:
                tab[k] = [(x * p - f * y) // den for x, y in zip(row, pivot_row)]
            elif p != den:
                tab[k] = [x * p // den for x in row]
    basis[r] = s
    return p


def simplex_max(c, a, b) -> LpResult:
    """Maximize c.x subject to a x = b, x >= 0. Two-phase, exact.

    Entries are ints or Fractions. a, b and c are scaled by one lcm of all
    their denominators, in one type scan. Positive scaling keeps every sign
    and the order of every ratio, so Bland's rule makes the same pivots as on
    the rational tableau, and the solution is that tableau's: its right-hand
    sides over the final denominator."""
    m = len(a)
    n = len(c)
    if len(b) != m or any(len(row) != n for row in a):
        raise InvalidInputError("inconsistent LP dimensions")
    (*rows, rhs, cost), scale = clear_denominators([*a, b, c])

    # phase 1: drive artificial variables (columns n..n+m-1) to zero; each
    # row is [a_i | unit_i | b_i], a_i and b_i negated together when b_i < 0
    tab = []
    for i, (row, v) in enumerate(zip(rows, rhs)):
        unit = [0] * m
        unit[i] = 1
        if v < 0:
            tab.append([-x for x in row] + unit + [-v])
        else:
            tab.append([*row, *unit, v])
    basis = list(range(n, n + m))
    tab.append(_objective_row(tab, basis, 1, [0] * n + [-1] * m))
    _, den = _optimize(tab, basis, 1)
    # the phase-1 objective is minus the artificials' sum: 0 iff feasible
    if tab.pop()[-1]:
        return LpResult(INFEASIBLE)
    redundant = []
    for i in range(m):
        if basis[i] >= n:
            j = next((jj for jj in range(n) if tab[i][jj] != 0), None)
            if j is None:
                redundant.append(i)
            else:
                den = _pivot(tab, basis, den, i, j)
    for i in sorted(redundant, reverse=True):
        del tab[i]
        del basis[i]
    tab = [row[:n] + row[-1:] for row in tab]

    tab.append(_objective_row(tab, basis, den, cost))
    status, den = _optimize(tab, basis, den)
    if status == UNBOUNDED:
        return LpResult(UNBOUNDED)
    x = [0] * n
    for bi, row in zip(basis, tab):
        x[bi] = row[-1]
    return LpResult(OPTIMAL, Fraction(tab[-1][-1], den * scale), x, den)


def lp_max_min(aeq, b) -> LpResult:
    """Maximize t subject to aeq.x = b and x_i >= t for every i; x free above t.

    aeq is a sequence of equal-length rows; with no rows there are no
    variables and t is unbounded. Substitutes y_i = x_i - t >= 0 and splits
    the free t, then solves the standard form exactly. On "optimal" the
    solution is the original x, formed as y + t on the int numerators of the
    standard form's solution."""
    n = len(aeq[0]) if aeq else 0
    if len(b) != len(aeq):
        raise InvalidInputError("b length does not match Aeq row count")
    try:
        row_sums = [sum(row) for row in aeq]
    except TypeError as exc:
        raise InvalidInputError(f"LP entries must be ints or Fractions: {exc}") from exc
    a = [[*row, s, -s] for row, s in zip(aeq, row_sums)]
    res = simplex_max([0] * n + [1, -1], a, b)
    if res.status != OPTIMAL:
        return res
    # the objective is t+ - t-, so t is their numerators' difference over den
    y = res.numerators
    t = y[n] - y[n + 1]
    return LpResult(OPTIMAL, res.objective, [v + t for v in y[:n]], res.den)
