"""Independent oracles used to cross-check the library's exact kernels.

Everything here is deliberately written against different algorithms than the
package: Fourier-Motzkin elimination instead of the simplex method, random
normal sampling instead of candidate-plane enumeration, orientation predicates
instead of LP feasibility, and the Pascal recurrence instead of math.comb.
Three oracles follow the package's algorithm in different arithmetic, so the
package must reach the same results by the same steps. fraction_simplex_max is
a two-phase tableau simplex with a Fraction in every cell, against the
package's integer tableau; fraction_rref is Gauss-Jordan elimination with a
Fraction in every cell, against the package's fraction-free integer
elimination; fraction_candidate_scan finds each candidate hyperplane's normal
from fraction_rref and classifies the other vectors by Fraction dot products;
fraction_degenerate_subset ranks each affine (d+1)-subset with fraction_rref,
against the package's integer determinants of differences.
Slow is fine; these only run in tests on small instances.
"""

import random
from fractions import Fraction
from itertools import combinations

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


def _dedupe(rows):
    """Keep, per coefficient direction, only the tightest right-hand side."""
    best = {}
    for row in rows:
        coeffs, rhs = row[:-1], row[-1]
        for x in coeffs:
            if x != 0:
                scale = abs(x)
                coeffs = tuple(v / scale for v in coeffs)
                rhs = rhs / scale
                break
        else:
            coeffs = tuple(coeffs)
        if coeffs not in best or rhs < best[coeffs]:
            best[coeffs] = rhs
    return [list(c) + [r] for c, r in best.items()]


def _eliminate(rows, var):
    pos, neg, rest = [], [], []
    for row in rows:
        c = row[var]
        if c > 0:
            pos.append(row)
        elif c < 0:
            neg.append(row)
        else:
            rest.append(row)
    out = list(rest)
    for p in pos:
        for q in neg:
            # p/p[var] + q/(-q[var]) cancels the variable, both scalings positive
            a, b = p[var], -q[var]
            out.append([pi / a + qi / b for pi, qi in zip(p, q)])
    return _dedupe(out)


def fm_max_min(aeq_rows, b):
    """Maximize t subject to A.x = b and x_i >= t, by Fourier-Motzkin.

    Gauss-Jordan substitution removes the equalities first, then the remaining
    free variables fall to Fourier-Motzkin elimination (greedy order, tightest
    representative per direction). Returns (status, t) with t a Fraction when
    status is "optimal"; the feasible region is a closed polyhedron, so a
    finite supremum is attained.
    """
    aeq = [list(map(Fraction, row)) + [Fraction(v)] for row, v in zip(aeq_rows, b)]
    if len(aeq) != len(b):
        raise ValueError("row/rhs mismatch")
    n = len(aeq_rows[0]) if aeq_rows else 0
    if any(len(r) != n + 1 for r in aeq):
        raise ValueError("ragged rows")

    # Gauss-Jordan on [A | b]
    pivot_cols = []
    r = 0
    for col in range(n):
        pivot = next((i for i in range(r, len(aeq)) if aeq[i][col] != 0), None)
        if pivot is None:
            continue
        aeq[r], aeq[pivot] = aeq[pivot], aeq[r]
        aeq[r] = [v / aeq[r][col] for v in aeq[r]]
        for i in range(len(aeq)):
            if i != r and aeq[i][col] != 0:
                factor = aeq[i][col]
                aeq[i] = [vi - factor * vr for vi, vr in zip(aeq[i], aeq[r])]
        pivot_cols.append(col)
        r += 1
    for i in range(r, len(aeq)):
        if aeq[i][n] != 0:
            return INFEASIBLE, None
    # rows mutate during the sweep; only the final reduced rows are expressions
    pivots = {col: aeq[k] for k, col in enumerate(pivot_cols)}
    free = [j for j in range(n) if j not in pivots]
    fidx = {j: k for k, j in enumerate(free)}

    # inequalities over (free vars..., t), row = coeffs + [rhs], <= rhs;
    # x_i >= t becomes t - x_i <= 0 with pivot x_i substituted out
    rows = []
    for i in range(n):
        row = [Fraction(0)] * (len(free) + 2)
        if i in pivots:
            expr = pivots[i]
            # x_i = expr[n] - sum expr[j] x_j over free j
            for j in free:
                row[fidx[j]] = expr[j]
            row[len(free)] = Fraction(1)
            row[-1] = expr[n]
        else:
            row[fidx[i]] = Fraction(-1)
            row[len(free)] = Fraction(1)
        rows.append(row)
    rows = _dedupe(rows)

    remaining = list(range(len(free)))
    while remaining:
        # greedy: eliminate the variable generating the fewest new rows
        def cost(var):
            p = sum(1 for row in rows if row[var] > 0)
            q = sum(1 for row in rows if row[var] < 0)
            return p * q - p - q
        var = min(remaining, key=cost)
        rows = _eliminate(rows, var)
        remaining.remove(var)

    t_col = len(free)
    uppers, lowers = [], []
    for row in rows:
        ct, rhs = row[t_col], row[-1]
        if ct > 0:
            uppers.append(rhs / ct)
        elif ct < 0:
            lowers.append(rhs / ct)
        elif rhs < 0:
            return INFEASIBLE, None
    if not uppers:
        return UNBOUNDED, None
    t = min(uppers)
    if lowers and t < max(lowers):
        return INFEASIBLE, None
    return OPTIMAL, t


def fm_crossing(coords_left, coords_right):
    """Crossing verdict for two simplices via the Fourier-Motzkin oracle.

    Builds the barycentric feasibility system directly: weights on both
    vertex sets sum to one, the weighted points coincide, and every weight
    stays above the margin t being maximized. Crossing means t* > 0.
    """
    nl, nr = len(coords_left), len(coords_right)
    d = len(coords_left[0])
    rows = []
    b = []
    for k in range(d):
        rows.append(
            [Fraction(p[k]) for p in coords_left]
            + [-Fraction(q[k]) for q in coords_right]
        )
        b.append(Fraction(0))
    rows.append([Fraction(1)] * nl + [Fraction(0)] * nr)
    b.append(Fraction(1))
    rows.append([Fraction(0)] * nl + [Fraction(1)] * nr)
    b.append(Fraction(1))
    status, t = fm_max_min(rows, b)
    if status == INFEASIBLE:
        # affine hulls never meet (skew flats); trivially not crossing
        return False, None
    if status != OPTIMAL:
        raise AssertionError(f"crossing system cannot be unbounded, got {status}")
    return t > 0, t


def fm_separable(vectors):
    """Whether some h has <w, h> > 0 for every w in `vectors`, by Gordan's
    alternative: exactly when the origin is not a convex combination of the
    vectors. That membership is the Fourier-Motzkin program max t subject to
    sum_i lambda_i w_i = 0, sum_i lambda_i = 1 and every lambda_i >= t, which
    reaches t >= 0 iff the origin is in the hull."""
    rows = [[Fraction(w[k]) for w in vectors] for k in range(len(vectors[0]))]
    rows.append([Fraction(1)] * len(vectors))
    status, t = fm_max_min(rows, [Fraction(0)] * (len(rows) - 1) + [Fraction(1)])
    return not (status == OPTIMAL and t >= 0)


def separable_sides(vectors, side_a, side_b):
    """Whether some hyperplane through the origin has every vector of side_a
    strictly on its positive side and every vector of side_b strictly on its
    negative side: fm_separable on the side_a vectors and the negated side_b
    vectors. `vectors` maps each label to its vector."""
    return fm_separable(
        [vectors[lab] for lab in side_a] + [[-x for x in vectors[lab]] for lab in side_b]
    )


def sampled_separations(labeled_vectors, sizes, samples, seed, spread=1000):
    """Proper separations of labeled vectors found by random normal probing.

    Draws integer normals, keeps the strict sign partitions whose side sizes
    match. Returns canonical partition keys: frozensets of frozensets of
    labels. Misses are expected; anything found must appear in an exhaustive
    enumeration.
    """
    rng = random.Random(seed)
    m = len(labeled_vectors[0][1])
    want = tuple(sorted(sizes))
    found = set()
    for _ in range(samples):
        h = [rng.randint(-spread, spread) for _ in range(m)]
        plus, minus = [], []
        degenerate = False
        for label, vec in labeled_vectors:
            dot = sum(hi * Fraction(vi) for hi, vi in zip(h, vec))
            if dot > 0:
                plus.append(label)
            elif dot < 0:
                minus.append(label)
            else:
                degenerate = True
                break
        if degenerate:
            continue
        if tuple(sorted((len(plus), len(minus)))) == want:
            found.add(frozenset({frozenset(plus), frozenset(minus)}))
    return found


def fraction_rref(rows):
    """Reduced row echelon form over Fractions, as a list of Fraction rows,
    and the tuple of its pivot columns; the width is that of the first row."""
    a = [[Fraction(x) for x in row] for row in rows]
    width = len(a[0]) if a else 0
    pivots = []
    for col in range(width):
        r = len(pivots)
        found = next((i for i in range(r, len(a)) if a[i][col] != 0), None)
        if found is None:
            continue
        a[r], a[found] = a[found], a[r]
        a[r] = [x / a[r][col] for x in a[r]]
        for i in range(len(a)):
            if i != r and a[i][col] != 0:
                a[i] = [x - a[i][col] * y for x, y in zip(a[i], a[r])]
        pivots.append(col)
    return a, tuple(pivots)


def fraction_affine_sign(points):
    """Sign (1, -1 or 0) of the determinant of the affine rows of d+1 points
    in R^d (each point's coordinates, then a one), by Fraction elimination
    with row swaps."""
    a = [[Fraction(x) for x in point] + [Fraction(1)] for point in points]
    sign = 1
    for col in range(len(a)):
        found = next((i for i in range(col, len(a)) if a[i][col] != 0), None)
        if found is None:
            return 0
        if found != col:
            a[col], a[found] = a[found], a[col]
            sign = -sign
        if a[col][col] < 0:
            sign = -sign
        for i in range(col + 1, len(a)):
            f = a[i][col] / a[col][col]
            a[i] = [x - f * y for x, y in zip(a[i], a[col])]
    return sign


def fraction_kernel_basis(rows, width):
    """One null vector of `rows` per free column of their reduced row echelon
    form, free columns ascending: a 1 at its own free column, 0 at the others."""
    reduced, pivots = fraction_rref(rows)
    basis = []
    for free in (col for col in range(width) if col not in pivots):
        v = [Fraction(0)] * width
        v[free] = Fraction(1)
        for row, col in zip(reduced, pivots):
            v[col] = -row[free]
        basis.append(tuple(v))
    return basis


def fraction_kernel_normal(rows, width):
    """The one vector of fraction_kernel_basis; None unless exactly one column
    is free, that is unless the rows have rank width - 1."""
    basis = fraction_kernel_basis(rows, width)
    return basis[0] if len(basis) == 1 else None


def fraction_degenerate_subset(labeled_points, d):
    """The first (d+1)-subset of the labels, in lexicographic order, whose
    affine rows (each point's coordinates, then a one) have fraction_rref
    rank below d+1; None when there is none."""
    points = dict(labeled_points)
    for subset in combinations(sorted(points), d + 1):
        rows = [[*points[lab], 1] for lab in subset]
        if len(fraction_rref(rows)[1]) < d + 1:
            return subset
    return None


def fraction_candidate_scan(labeled_vectors):
    """Every (m-1)-subset of the labels, in lexicographic order, as
    (subset, normal, plus, minus): the subset's canonical kernel normal and the
    frozensets of the other labels whose vectors have a positive or negative
    Fraction dot product with it. None when some subset has rank below m-1 or
    some other vector lies on a subset's hyperplane."""
    vectors = dict(labeled_vectors)
    labels = sorted(vectors)
    m = len(labeled_vectors[0][1])
    scan = []
    for subset in combinations(labels, m - 1):
        normal = fraction_kernel_normal([vectors[lab] for lab in subset], m)
        if normal is None:
            return None
        plus, minus = set(), set()
        for lab in labels:
            if lab in subset:
                continue
            dot = sum(h * Fraction(x) for h, x in zip(normal, vectors[lab]))
            if dot == 0:
                return None
            (plus if dot > 0 else minus).add(lab)
        scan.append((subset, normal, frozenset(plus), frozenset(minus)))
    return scan


def fraction_bisects(normal, labeled_vectors, classes):
    """Whether each open side of the hyperplane with this normal holds at most
    half, rounded down, of each class, counted by Fraction dot products."""
    vectors = dict(labeled_vectors)
    for cls in classes:
        dots = [sum(h * Fraction(x) for h, x in zip(normal, vectors[lab])) for lab in cls]
        bound = len(cls) // 2
        if sum(1 for d in dots if d > 0) > bound or sum(1 for d in dots if d < 0) > bound:
            return False
    return True


def pascal(n, k):
    """Binomial coefficient by the additive recurrence."""
    if k < 0 or k > n:
        return 0
    row = [1]
    for _ in range(n):
        row = [1] + [row[i] + row[i + 1] for i in range(len(row) - 1)] + [1]
    return row[k]


def orient(a, b, c):
    v = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
    return (v > 0) - (v < 0)


def segments_cross(p, q, r, s):
    """Strict interior crossing of segments pq and rs, endpoints all distinct."""
    return (
        orient(p, q, r) * orient(p, q, s) < 0
        and orient(r, s, p) * orient(r, s, q) < 0
    )


def planar_crossing_count(labeled_points):
    """Exact count of crossing segment pairs via orientation predicates."""
    count = 0
    for pair in combinations(labeled_points, 2):
        rest = [lp for lp in labeled_points if lp not in pair]
        for other in combinations(rest, 2):
            if pair[0][0] > other[0][0]:
                continue  # unordered pair of pairs, count once
            if segments_cross(pair[0][1], pair[1][1], other[0][1], other[1][1]):
                count += 1
    return count


def _fraction_optimize(tab, rhs, basis, cost):
    """Pivot the canonical tableau to optimality for `cost` (maximization),
    by Bland's rule for entering and leaving; mutates tab/rhs/basis."""
    m = len(tab)
    n = len(cost)
    while True:
        cb = [cost[basis[i]] for i in range(m)]
        entering = -1
        for j in range(n):
            reduced = cost[j] - sum((cb[i] * tab[i][j] for i in range(m)), Fraction(0))
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
        _fraction_pivot(tab, rhs, basis, leaving, entering)


def _fraction_pivot(tab, rhs, basis, i, j):
    pivot = tab[i][j]
    tab[i] = [x / pivot for x in tab[i]]
    rhs[i] = rhs[i] / pivot
    for k in range(len(tab)):
        if k != i and tab[k][j] != 0:
            f = tab[k][j]
            tab[k] = [x - f * y for x, y in zip(tab[k], tab[i])]
            rhs[k] = rhs[k] - f * rhs[i]
    basis[i] = j


def fraction_simplex_max(c, a, b):
    """Maximize c.x subject to a x = b, x >= 0: the two-phase dense tableau
    simplex with a Fraction in every cell. Returns (status, objective,
    solution), the last two None unless status is "optimal"."""
    m = len(a)
    n = len(c)
    rows = [list(map(Fraction, row)) for row in a]
    rhs = list(map(Fraction, b))
    if len(rhs) != m or any(len(row) != n for row in rows):
        raise ValueError("inconsistent LP dimensions")
    for i in range(m):
        if rhs[i] < 0:
            rows[i] = [-x for x in rows[i]]
            rhs[i] = -rhs[i]

    # phase 1: drive artificial variables (columns n..n+m-1) to zero
    tab = [rows[i] + [Fraction(int(j == i)) for j in range(m)] for i in range(m)]
    basis = list(range(n, n + m))
    _fraction_optimize(tab, rhs, basis, [Fraction(0)] * n + [Fraction(-1)] * m)
    if any(basis[i] >= n and rhs[i] != 0 for i in range(m)):
        return INFEASIBLE, None, None
    redundant = []
    for i in range(m):
        if basis[i] >= n:
            j = next((jj for jj in range(n) if tab[i][jj] != 0), None)
            if j is None:
                redundant.append(i)
            else:
                _fraction_pivot(tab, rhs, basis, i, j)
    for i in sorted(redundant, reverse=True):
        del tab[i]
        del rhs[i]
        del basis[i]
    tab = [row[:n] for row in tab]

    cost = list(map(Fraction, c))
    if _fraction_optimize(tab, rhs, basis, cost) == UNBOUNDED:
        return UNBOUNDED, None, None
    x = [Fraction(0)] * n
    for i, bi in enumerate(basis):
        x[bi] = rhs[i]
    return OPTIMAL, sum((cost[j] * x[j] for j in range(n)), Fraction(0)), tuple(x)
