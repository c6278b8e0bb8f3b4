"""Independent oracles used to cross-check the library's exact kernels.

Everything here is deliberately written against different algorithms than the
package: Fourier-Motzkin elimination instead of the simplex method, random
normal sampling instead of candidate-plane enumeration, orientation predicates
instead of LP feasibility, and the Pascal recurrence instead of math.comb.
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
