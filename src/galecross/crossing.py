"""Crossing detection for vertex-disjoint simplices, exhaustive pair counting,
witness search on 2k+3 points in R^{2k}, and extension of a crossing pair to
larger vertex sets.

Two simplices cross when their relative interiors share a point; with exact
arithmetic that is the strict positivity of the optimum of a max-min LP over
the barycentric weights. Boundary contact (optimum exactly 0) is NOT crossing,
and pairs sharing a vertex are refused outright rather than counted.

The LP rows and the witness check read the configuration's stored int
coordinates and scale (PointConfig.int_coords, PointConfig.coord_scale), so
no pair clears denominators again. Fractions appear only in a crossing
witness: the LP's weights, read off its result, and the certified point.
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
        combinations equal to the point. The check runs on ints: the
        configuration's int coordinates, the coefficients cleared by one
        lcm."""
        left = sorted(self.pair.left)
        right = sorted(self.pair.right)
        if len(left) != len(self.left_coeffs) or len(right) != len(self.right_coeffs):
            return False
        point = _certified_point(
            [config.int_coords(lab) for lab in left],
            [config.int_coords(lab) for lab in right],
            config.coord_scale,
            self.left_coeffs,
            self.right_coeffs,
        )
        return point == self.point

    def to_json_obj(self) -> dict:
        return {
            "pair": self.pair.to_json_obj(),
            "point": format_vector(self.point),
            "left_coeffs": format_vector(self.left_coeffs),
            "right_coeffs": format_vector(self.right_coeffs),
        }


def _certified_point(left, right, scale, left_coeffs, right_coeffs):
    """The common point of the two convex combinations, or None when the
    coefficients are not a crossing certificate.

    left and right are vertex coordinates times `scale`, as ints. The
    coefficients are cleared by the lcm `den` of their denominators; they
    certify a crossing when every cleared coefficient is positive, each side's
    sum to den, and the two integer combinations of the vertices are equal.
    The point is that combination over den * scale, one Fraction per
    coordinate."""
    (lw, rw), den = clear_denominators([left_coeffs, right_coeffs])
    if min(lw) <= 0 or min(rw) <= 0 or sum(lw) != den or sum(rw) != den:
        return None
    combo = [sum(map(mul, lw, coord)) for coord in zip(*left)]
    if combo != [sum(map(mul, rw, coord)) for coord in zip(*right)]:
        return None
    return tuple(Fraction(v, den * scale) for v in combo)


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


def simplices_cross(config: PointConfig, left, right) -> CrossingWitness | None:
    """Witness that relint(conv left) meets relint(conv right), or None.

    Builds the equality system sum lam_i x_i - sum mu_j x_j = 0, sum lam = 1,
    sum mu = 1 over the concatenated weights and maximizes their minimum; the
    pair crosses exactly when the optimum is strictly positive. The system
    goes to the LP in ints: the coordinate rows of the configuration's int
    coordinates, which are the rational ones times its scale L > 0, and the
    two weight rows and their right-hand sides times L too. A positive
    multiple of the rational system gives Bland's rule the same pivots and
    the LP the same weights. Only a crossing pair reads those weights as
    Fractions; they are certified on the same ints (_certified_point, as in
    CrossingWitness.validate), which also gives the witness point."""
    left = sorted(set(left))
    right = sorted(set(right))
    if not left or not right:
        raise InvalidInputError("both vertex sets must be nonempty")
    shared = set(left) & set(right)
    if shared:
        raise InvalidInputError(f"shared vertex (never a crossing): {sorted(shared)}")
    nl, nr = len(left), len(right)
    lcols = [config.int_coords(lab) for lab in left]
    rcols = [config.int_coords(lab) for lab in right]
    scale = config.coord_scale
    rows = [[*lk, *(-x for x in rk)] for lk, rk in zip(zip(*lcols), zip(*rcols))]
    rows.append([scale] * nl + [0] * nr)
    rows.append([0] * nl + [scale] * nr)
    res = lp_max_min(rows, [0] * config.dimension + [scale, scale])
    if res.status != OPTIMAL or res.objective <= 0:
        return None
    solution = res.solution
    lam, mu = solution[:nl], solution[nl:]
    point = _certified_point(lcols, rcols, scale, lam, mu)
    if point is None:
        raise TheoremViolationError(
            "LP produced a witness that failed exact re-validation: THEOREM_VIOLATION"
        )
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


def count_crossing_pairs(
    config: PointConfig, p: int, q: int, keep_witnesses: bool = False
) -> CrossingCount:
    """Exhaustively count crossing pairs (I, J) with |I| = p, |J| = q over
    disjoint vertex sets; unordered, so p = q pairs are counted once."""
    if p < 1 or q < 1 or p + q > config.n:
        raise InvalidInputError(f"part sizes ({p},{q}) do not fit {config.n} points")
    require_general_position(config)
    total = 0
    crossing = 0
    witnesses = []
    for left, right in _disjoint_pairs(config, p, q):
        total += 1
        w = simplices_cross(config, left, right)
        if w is not None:
            crossing += 1
            if keep_witnesses:
                witnesses.append(w)
    return CrossingCount(config.config_id(), (p, q), total, crossing, tuple(witnesses))


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


def extend_crossing(config: PointConfig, witness: CrossingWitness, target: int) -> ExtensionResult:
    """All ways to grow both sides of a crossing pair to exactly `target`
    vertices using spare points of the configuration, re-checking the crossing
    for every distribution (the claim that extensions stay crossing is
    measured, not assumed).

    Distributions pick the left side's extras first, then the right side's from
    what remains; when the extras exhaust the spares (the only case the
    verification pipelines use) the count is C(spares, needed_left)."""
    used = set(witness.pair.left) | set(witness.pair.right)
    spares = [lab for lab in sorted(config.labels()) if lab not in used]
    nl = target - len(witness.pair.left)
    nr = target - len(witness.pair.right)
    if nl < 0 or nr < 0:
        raise InvalidInputError("target is below a current side size")
    if nl + nr > len(spares):
        raise InvalidInputError(
            f"insufficient spare points: need {nl}+{nr}, have {len(spares)}"
        )
    found = []
    checked = 0
    for extra_left in combinations(spares, nl):
        taken = set(extra_left)
        remaining = [lab for lab in spares if lab not in taken]
        for extra_right in combinations(remaining, nr):
            checked += 1
            w = simplices_cross(
                config,
                set(witness.pair.left) | set(extra_left),
                set(witness.pair.right) | set(extra_right),
            )
            if w is not None:
                found.append(w)
    expected = comb(len(spares), nl) * comb(len(spares) - nl, nr)
    if checked != expected:
        raise TheoremViolationError(
            f"extension checked {checked} distributions, expected {expected}: "
            "THEOREM_VIOLATION"
        )
    return ExtensionResult(tuple(found), checked)
