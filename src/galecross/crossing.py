"""Crossing detection for vertex-disjoint simplices, exhaustive pair counting,
witness search on 2k+3 points in R^{2k}, and extension of a crossing pair to
larger vertex sets.

Two simplices cross when their relative interiors share a point. A hyperplane
through d of their vertices that leaves one vertex set on each closed side,
and some vertex off it, separates them properly and proves that they do not;
the configuration's stored orientation signs find one without an LP. Every
other pair goes to a max-min LP over the barycentric weights, and crosses
exactly when its optimum is strictly positive. Boundary contact (optimum
exactly 0) is NOT crossing, and pairs sharing a vertex are refused outright
rather than counted.

The LP rows and the certificate check read the configuration's stored int
coordinates and scale (PointConfig.int_coords, PointConfig.coord_scale), so
no pair clears denominators again. A verdict is certified on the LP's own
int numerators over its denominator (_crossing), and Fractions appear only in
a witness that a caller keeps: the weights, numerators over that
denominator, and the certified point. A count without witnesses and the
crossing pair set of the bijection and eight-point checks build none.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb
from operator import mul

from .configs import PointConfig, SimplexPair, require_general_position
from .errors import InvalidInputError, TheoremViolationError
from .linalg import clear_denominators
from .lp import OPTIMAL, lp_max_min
from .rationals import format_vector


@dataclass(frozen=True)
class CrossingWitness:
    """A common relative-interior point with its barycentric coordinates.

    Coefficients are listed against the sorted labels of each side."""

    pair: SimplexPair
    point: tuple[Fraction, ...]
    left_coeffs: tuple[Fraction, ...]
    right_coeffs: tuple[Fraction, ...]

    def validate(self, config: PointConfig) -> bool:
        """Re-check every invariant by direct arithmetic (no LP trust):
        positive coefficients, each side's summing to one, and both sides'
        combinations equal to the point. The coefficients are cleared by one
        lcm and checked by _certificate, the rule every LP verdict passes."""
        left = sorted(self.pair.left)
        right = sorted(self.pair.right)
        if len(left) != len(self.left_coeffs) or len(right) != len(self.right_coeffs):
            return False
        (lw, rw), den = clear_denominators([self.left_coeffs, self.right_coeffs])
        ints = config.int_coords
        combo = _certificate([ints(lab) for lab in left], [ints(lab) for lab in right], lw, rw, den)
        scale = den * config.coord_scale
        return combo is not None and self.point == tuple(Fraction(v, scale) for v in combo)

    def to_json_obj(self) -> dict:
        return {
            "pair": self.pair.to_json_obj(),
            "point": format_vector(self.point),
            "left_coeffs": format_vector(self.left_coeffs),
            "right_coeffs": format_vector(self.right_coeffs),
        }


def _certificate(left, right, lw, rw, den):
    """The common integer combination of the two sides, or None when the
    weights are not a crossing certificate.

    left and right are vertex coordinates times the configuration's scale, as
    ints, and lw/den and rw/den are the two sides' weights, den > 0. They
    certify a crossing when every weight is positive, each side's sum to den,
    and the two integer combinations of the vertices are equal. The common
    point is that combination over den * scale."""
    if min(lw) <= 0 or min(rw) <= 0 or sum(lw) != den or sum(rw) != den:
        return None
    combo = [sum(map(mul, lw, coord)) for coord in zip(*left)]
    if combo != [sum(map(mul, rw, coord)) for coord in zip(*right)]:
        return None
    return combo


@dataclass(frozen=True)
class CrossingCount:
    config_id: str
    part_sizes: tuple[int, int]
    total_pairs_checked: int
    crossing_pairs: int
    witnesses: tuple[CrossingWitness, ...] = ()

    def to_json_obj(self) -> dict:
        return {
            "config_id": self.config_id,
            "part_sizes": list(self.part_sizes),
            "total_pairs_checked": self.total_pairs_checked,
            "crossing_pairs": self.crossing_pairs,
            "witnesses": [w.to_json_obj() for w in self.witnesses],
        }


@dataclass(frozen=True)
class ExtensionResult:
    witnesses: tuple[CrossingWitness, ...]
    distributions_checked: int


def _separated(config: PointConfig, left, right) -> bool | None:
    """Whether a hyperplane through d points of left + right separates the two
    sides properly, read off orientation signs; None, without a search, unless
    d < len(left) + len(right) <= d + 4, so at most C(p+q-1, 3) hyperplanes
    are tried.

    A d-subset S puts a further point x on side (-1)^i * orientation(S + x),
    i being x's position in sorted S + x. S separates when every nonzero side
    is one sign on left and the other on right. A nonzero side means S spans
    a hyperplane H with that point off H: conv left and conv right lie in
    opposite closed half-spaces of H and not both in H, so their relative
    interiors are disjoint (Rockafellar, Convex Analysis, Thm. 11.3). That
    holds for any points.

    Conversely, let left + right be in general position and affinely span
    R^d, and let their relative interiors be disjoint. A proper separating
    hyperplane holds at most d of the points, affinely independent, so the
    two hulls meet it in disjoint faces and are disjoint: the separating
    hyperplanes form a full-dimensional pointed cone. Each extreme ray of
    that cone passes through exactly d of the points, and not all of them
    through the first point, or the cone would lie in one hyperplane. So S
    ranges over the d-subsets without the first point, and a pair with no
    separating S crosses."""
    d = config.dimension
    if not d < len(left) + len(right) <= d + 4:
        return None
    both = sorted([*left, *right])
    lefts = set(left)
    for s in combinations(both[1:], d):
        seen = 0
        pos = 0
        for x in both:
            if pos < d and s[pos] == x:
                pos += 1
                continue
            side = config.orientation((*s[:pos], x, *s[pos:]))
            if (x in lefts) == pos % 2:
                side = -side
            if side:
                if seen == -side:
                    break
                seen = side
        else:
            if seen:
                return True
    return False


def _crossing(config: PointConfig, left, right):
    """The crossing verdict on sorted, disjoint, nonempty label sequences:
    None when the pair does not cross, else the certificate (lw, rw, combo,
    den) of _certificate, all ints.

    A pair that _separated proves disjoint is None without an LP. Any other
    pair builds the equality system sum lam_i x_i - sum mu_j x_j = 0,
    sum lam = 1, sum mu = 1 over the concatenated weights and maximizes their
    minimum; the pair crosses exactly when the optimum is strictly positive.
    A miss of _separated on points in general position means the pair
    crosses, so an LP that then finds no crossing raises
    TheoremViolationError. The system goes to the LP in ints: the coordinate
    rows of the configuration's int coordinates, which are the rational ones
    times its scale L > 0, and the two weight rows and their right-hand sides
    times L too. A positive multiple of the rational system gives Bland's
    rule the same pivots and the LP the same weights. Those weights are the
    LP's int numerators lw, rw over its denominator den, and _certificate
    checks them as they are; a failed check raises TheoremViolationError."""
    separated = _separated(config, left, right)
    if separated:
        return None
    nl, nr = len(left), len(right)
    lcols = [config.int_coords(lab) for lab in left]
    rcols = [config.int_coords(lab) for lab in right]
    scale = config.coord_scale
    rows = [[*lk, *(-x for x in rk)] for lk, rk in zip(zip(*lcols), zip(*rcols))]
    rows.append([scale] * nl + [0] * nr)
    rows.append([0] * nl + [scale] * nr)
    res = lp_max_min(rows, [0] * config.dimension + [scale, scale])
    if res.status != OPTIMAL or res.objective <= 0:
        if separated is False and all(
            map(config.orientation, combinations(sorted(left + right), config.dimension + 1))
        ):
            raise TheoremViolationError(
                "no separating hyperplane for a non-crossing pair in general "
                f"position {list(left)} / {list(right)}: THEOREM_VIOLATION"
            )
        return None
    lw, rw = res.numerators[:nl], res.numerators[nl:]
    combo = _certificate(lcols, rcols, lw, rw, res.den)
    if combo is None:
        raise TheoremViolationError(
            "LP produced a witness that failed exact re-validation: THEOREM_VIOLATION"
        )
    return lw, rw, combo, res.den


def simplices_cross(config: PointConfig, left, right) -> CrossingWitness | None:
    """Witness that relint(conv left) meets relint(conv right), or None.

    The verdict and its integer certificate are _crossing's. A crossing pair
    reads them as Fractions: each weight is its numerator over the LP's
    denominator den, and the point is the common combination over
    den * scale."""
    left = sorted(set(left))
    right = sorted(set(right))
    if not left or not right:
        raise InvalidInputError("both vertex sets must be nonempty")
    shared = set(left) & set(right)
    if shared:
        raise InvalidInputError(f"shared vertex (never a crossing): {sorted(shared)}")
    verdict = _crossing(config, left, right)
    if verdict is None:
        return None
    lw, rw, combo, den = verdict
    lam = tuple(Fraction(v, den) for v in lw)
    mu = tuple(Fraction(v, den) for v in rw)
    point = tuple(Fraction(v, den * config.coord_scale) for v in combo)
    pair = SimplexPair(frozenset(left), frozenset(right))
    # the pair canonicalizes its sides; keep the coefficients on the right ones
    if set(pair.left) == set(left):
        return CrossingWitness(pair, point, lam, mu)
    return CrossingWitness(pair, point, mu, lam)


def _disjoint_pairs(config: PointConfig, p: int, q: int):
    """Disjoint label tuples (I, J), |I| = p and |J| = q, in lexicographic
    order; a p = q pair comes once, with the smaller first label in I."""
    labels = sorted(config.labels())
    for left in combinations(labels, p):
        taken = set(left)
        rest = [lab for lab in labels if lab not in taken]
        for right in combinations(rest, q):
            if p == q and right[0] < left[0]:
                continue
            yield left, right


def disjoint_pair_count(n: int, p: int, q: int) -> int:
    """How many pairs _disjoint_pairs yields on n labels: C(n,p) C(n-p,q),
    halved when p = q because such a pair comes once."""
    return comb(n, p) * comb(n - p, q) // (2 if p == q else 1)


def _checked_pairs(config: PointConfig, p: int, q: int):
    """_disjoint_pairs of a count, after refusing part sizes that do not fit
    and a configuration not in general position."""
    if p < 1 or q < 1 or p + q > config.n:
        raise InvalidInputError(f"part sizes ({p},{q}) do not fit {config.n} points")
    require_general_position(config)
    return _disjoint_pairs(config, p, q)


def count_crossing_pairs(
    config: PointConfig, p: int, q: int, keep_witnesses: bool = False
) -> CrossingCount:
    """Exhaustively count crossing pairs (I, J) with |I| = p, |J| = q over
    disjoint vertex sets; unordered, so p = q pairs are counted once. Only
    keep_witnesses builds a CrossingWitness; a plain count counts verdicts."""
    decide = simplices_cross if keep_witnesses else _crossing
    total = 0
    crossing = 0
    witnesses = []
    for left, right in _checked_pairs(config, p, q):
        total += 1
        verdict = decide(config, left, right)
        if verdict is not None:
            crossing += 1
            if keep_witnesses:
                witnesses.append(verdict)
    return CrossingCount(config.config_id(), (p, q), total, crossing, tuple(witnesses))


def crossing_pair_set(config: PointConfig, p: int, q: int) -> set:
    """The pairs of count_crossing_pairs(config, p, q) that cross, as
    SimplexPairs, each certified on the LP's ints by _crossing with no
    witness built. Not part of galecross.__all__."""
    return {
        SimplexPair(frozenset(left), frozenset(right))
        for left, right in _checked_pairs(config, p, q)
        if _crossing(config, left, right) is not None
    }


def vkf_find(config: PointConfig) -> CrossingWitness:
    """First crossing pair of disjoint (k+1)-subsets of 2k+3 points in R^{2k},
    in lexicographic order by sorted labels.

    Existence is a theorem with no position hypothesis, so exhausting the
    search raises TheoremViolationError. Degenerate configurations are
    accepted; lifted configurations (which are never in general position as a
    whole) rely on that."""
    d = config.dimension
    if d % 2 != 0 or d < 2:
        raise InvalidInputError(f"need an even dimension 2k, got {d}")
    k = d // 2
    if config.n != 2 * k + 3:
        raise InvalidInputError(f"need exactly {2 * k + 3} points in R^{d}, got {config.n}")
    size = k + 1
    for left, right in _disjoint_pairs(config, size, size):
        w = simplices_cross(config, left, right)
        if w is not None:
            return w
    raise TheoremViolationError(
        f"no crossing ({size},{size})-pair among {config.n} points in R^{d}: "
        "THEOREM_VIOLATION (degenerate beyond repair, or a bug)"
    )


def extension_pairs(config: PointConfig, pair: SimplexPair, target: int) -> list:
    """Every way to grow both sides of `pair` to exactly `target` vertices
    with spare points of the configuration, as (left, right) label sets that
    keep the pair's orientation.

    Distributions pick the left side's extras first, then the right side's
    from what remains, and their number is checked against the binomial
    C(spares, needed_left) * C(spares - needed_left, needed_right)."""
    used = pair.left | pair.right
    spares = [lab for lab in sorted(config.labels()) if lab not in used]
    nl = target - len(pair.left)
    nr = target - len(pair.right)
    if nl < 0 or nr < 0:
        raise InvalidInputError("target is below a current side size")
    if nl + nr > len(spares):
        raise InvalidInputError(
            f"insufficient spare points: need {nl}+{nr}, have {len(spares)}"
        )
    out = []
    for extra_left in combinations(spares, nl):
        remaining = [lab for lab in spares if lab not in extra_left]
        for extra_right in combinations(remaining, nr):
            out.append((pair.left | set(extra_left), pair.right | set(extra_right)))
    expected = comb(len(spares), nl) * comb(len(spares) - nl, nr)
    if len(out) != expected:
        raise TheoremViolationError(
            f"extension checked {len(out)} distributions, expected {expected}: "
            "THEOREM_VIOLATION"
        )
    return out


def extend_crossing(config: PointConfig, witness: CrossingWitness, target: int) -> ExtensionResult:
    """The crossing witnesses among extension_pairs of a crossing pair, each
    distribution re-checked by simplices_cross (the claim that extensions
    stay crossing is measured, not assumed). When the extras exhaust the
    spares, the distributions number C(spares, needed_left)."""
    pairs = extension_pairs(config, witness.pair, target)
    found = (simplices_cross(config, left, right) for left, right in pairs)
    return ExtensionResult(tuple(w for w in found if w is not None), len(pairs))
