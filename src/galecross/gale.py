"""Gale transforms and linear separations of the resulting vector diagrams.

A configuration of n = m + d + 1 labeled points in R^d lifts to the
(d+1) x n matrix M whose rows are the d coordinate rows plus an all-ones row.
The canonical kernel basis of M, read off column by column, gives n labeled
vectors in R^m: the diagram. The key duality: strict origin-hyperplane
bipartitions of the diagram correspond to vertex-disjoint simplex pairs of the
source whose relative interiors meet, with matching part sizes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations

from .configs import (
    LabeledPoint,
    PointConfig,
    SimplexPair,
    find_degenerate_subset,
    is_general_position,
)
from .errors import InvalidInputError
from .jsonio import atomic_write_text, canonical_dumps, load_json
from .linalg import Matrix, ONE, ZERO, kernel_basis, rank
from .lp import OPTIMAL, lp_max_min
from .rationals import format_vector, parse_vector


def lift_matrix(config: PointConfig) -> Matrix:
    """The (d+1) x n matrix: coordinate rows, then the all-ones row."""
    rows = [
        [p.coords[k] for p in config.points] for k in range(config.dimension)
    ]
    rows.append([ONE] * config.n)
    return Matrix(rows, cols=config.n)


@dataclass(frozen=True)
class GaleDiagram:
    m: int
    source_d: int
    vectors: tuple[LabeledPoint, ...]

    def __post_init__(self):
        if self.m < 1:
            raise InvalidInputError("diagram dimension m must be >= 1")
        if self.source_d < 0:
            raise InvalidInputError("source dimension source_d must be >= 0")
        if len(self.vectors) != self.m + self.source_d + 1:
            raise InvalidInputError("vector count must equal m + source_d + 1")
        labels = [v.label for v in self.vectors]
        if len(set(labels)) != len(labels):
            raise InvalidInputError("duplicate diagram labels")
        for v in self.vectors:
            if len(v.coords) != self.m:
                raise InvalidInputError(f"vector {v.label} has wrong width")

    @property
    def source_n(self) -> int:
        return len(self.vectors)

    def labels(self) -> tuple[str, ...]:
        return tuple(v.label for v in self.vectors)

    def vector(self, label: str) -> tuple[Fraction, ...]:
        for v in self.vectors:
            if v.label == label:
                return v.coords
        raise InvalidInputError(f"unknown diagram label: {label}")

    def to_json_obj(self) -> dict:
        return {
            "m": self.m,
            "source_d": self.source_d,
            "vectors": [
                {"label": v.label, "coords": format_vector(v.coords)} for v in self.vectors
            ],
        }

    @classmethod
    def from_json_obj(cls, obj) -> "GaleDiagram":
        try:
            return cls(
                int(obj["m"]),
                int(obj["source_d"]),
                tuple(
                    LabeledPoint(str(item["label"]), parse_vector(item["coords"]))
                    for item in obj["vectors"]
                ),
            )
        except (KeyError, TypeError) as exc:
            raise InvalidInputError(f"malformed diagram file: {exc!r}") from exc

    def save(self, path: str) -> None:
        atomic_write_text(path, canonical_dumps(self.to_json_obj()))

    @classmethod
    def load(cls, path: str) -> "GaleDiagram":
        return cls.from_json_obj(load_json(path))


@dataclass(frozen=True, eq=False)
class LinearSeparation:
    """Strict origin-hyperplane bipartition of a diagram's labels.

    witness_normal is the hyperplane normal used to find the partition; labels
    listed in witness_shifts sat on that hyperplane and were pushed to the
    recorded side (+1 = side of positive inner product). Equality and hashing
    are by the unordered partition only, and side_a always holds the
    lexicographically smallest label.
    """

    side_a: frozenset
    side_b: frozenset
    witness_normal: tuple[Fraction, ...]
    witness_shifts: tuple = field(default=())

    def __post_init__(self):
        a = frozenset(self.side_a)
        b = frozenset(self.side_b)
        if not a or not b:
            raise InvalidInputError("separation sides must be nonempty")
        if a & b:
            raise InvalidInputError("separation sides overlap")
        swap = min(b) < min(a)
        if swap:
            a, b = b, a
        object.__setattr__(self, "side_a", a)
        object.__setattr__(self, "side_b", b)
        shifts = tuple(sorted((str(lab), int(s)) for lab, s in self.witness_shifts))
        normal = tuple(Fraction(x) for x in self.witness_normal)
        if swap:
            # flip the normal so side_a stays the positive side
            shifts = tuple((lab, -s) for lab, s in shifts)
            normal = _negate(normal)
        object.__setattr__(self, "witness_shifts", shifts)
        object.__setattr__(self, "witness_normal", normal)

    def partition(self) -> tuple[frozenset, frozenset]:
        return (self.side_a, self.side_b)

    def sizes(self) -> tuple[int, int]:
        return (len(self.side_a), len(self.side_b))

    def __eq__(self, other):
        return isinstance(other, LinearSeparation) and self.partition() == other.partition()

    def __hash__(self):
        return hash(self.partition())

    def to_json_obj(self) -> dict:
        return {
            "side_a": sorted(self.side_a),
            "side_b": sorted(self.side_b),
            "normal": format_vector(self.witness_normal),
            "shifts": [[lab, s] for lab, s in self.witness_shifts],
        }


def proper_sizes(n: int) -> tuple[int, int]:
    """Part sizes floor(n/2) and ceil(n/2) of a proper separation of n labels."""
    return (n // 2, (n + 1) // 2)


def _negate(v):
    return tuple(-x for x in v)


def gale_transform(config: PointConfig) -> GaleDiagram:
    """Canonical diagram of a general-position configuration with n >= d+2."""
    n, d = config.n, config.dimension
    if n < d + 2:
        raise InvalidInputError("need n >= d + 2 so that m >= 1")
    bad = find_degenerate_subset(config)
    if bad is not None:
        raise InvalidInputError(
            f"configuration is not in general position: "
            f"affinely dependent subset {sorted(bad)}"
        )
    return _transform_from_kernel(config)


def _transform_from_kernel(config: PointConfig) -> GaleDiagram:
    basis = kernel_basis(lift_matrix(config))
    m = len(basis)
    vectors = tuple(
        LabeledPoint(p.label, tuple(row[i] for row in basis))
        for i, p in enumerate(config.points)
    )
    return GaleDiagram(m, config.dimension, vectors)


def verify_spanning(diagram: GaleDiagram) -> bool:
    """True iff every m-subset of diagram vectors has rank m."""
    m = diagram.m
    for subset in combinations(sorted(diagram.labels()), m):
        mat = Matrix([diagram.vector(lab) for lab in subset], cols=m)
        if rank(mat) < m:
            return False
    return True


def verify_duality(config: PointConfig) -> bool:
    """Check that the two sides of the position/spanning equivalence agree:
    is_general_position(P) on the left, full-rank diagram spanning on the right.

    Configurations that do not even affinely span R^d (lift matrix rank below
    d+1) have no well-formed diagram; the spanning side is defined false there,
    which keeps the equivalence intact since such configs are degenerate."""
    n, d = config.n, config.dimension
    if n < d + 2:
        raise InvalidInputError("need n >= d + 2")
    left = is_general_position(config)
    if rank(lift_matrix(config)) < d + 1:
        right = False
    else:
        right = verify_spanning(_transform_from_kernel(config))
    return left == right


def is_realizable(diagram: GaleDiagram, separation: LinearSeparation) -> bool:
    """Independent re-check: does some hyperplane through the origin strictly
    separate side_a from side_b? Decided by an exact LP that ignores the
    stored witness.

    Let W have rows +g for side_a and -g for side_b. Some h has W h > 0 iff
    the range of W holds a positive vector x, and the range of W is the set
    of x orthogonal to the kernel of W^T. So the partition is realizable iff
    max t subject to (kernel of W^T) x = 0, sum(x) = 1 and every x_i >= t has
    an optimum t > 0; by Gordan's alternative, t <= 0 exactly when the origin
    lies in the convex hull of the rows of W."""
    rows = [diagram.vector(lab) for lab in sorted(separation.side_a)]
    rows += [_negate(diagram.vector(lab)) for lab in sorted(separation.side_b)]
    aeq = kernel_basis(Matrix(rows, cols=diagram.m).transpose())
    aeq.append([ONE] * len(rows))
    res = lp_max_min(Matrix(aeq, cols=len(rows)), [ZERO] * (len(aeq) - 1) + [ONE])
    return res.status == OPTIMAL and res.objective > 0


def separation_classifies(diagram: GaleDiagram, separation: LinearSeparation) -> bool:
    """Direct sign audit of the stored witness: the normal must classify every
    off-plane vector strictly, and every on-plane vector must appear in
    witness_shifts with the side it was assigned to."""
    shifts = dict(separation.witness_shifts)
    h = separation.witness_normal
    for lab in diagram.labels():
        dot = sum((a * b for a, b in zip(h, diagram.vector(lab))), ZERO)
        if dot == 0:
            sign = shifts.get(lab)
            if sign is None:
                return False
        else:
            if lab in shifts:
                return False
            sign = 1 if dot > 0 else -1
        if (lab in separation.side_a) != (sign > 0):
            return False
    return True


def separation_to_crossing(diagram: GaleDiagram, separation: LinearSeparation) -> SimplexPair:
    """Map a proper separation to the source-simplex pair with the same labels.

    The diagram's kernel origin makes this index-preserving map land exactly on
    the crossing pairs: a kernel vector with signs split by a hyperplane is an
    affine dependence with strictly positive weights on both sides.

    The separation is accepted iff its stored witness certifies it, checked by
    arithmetic alone: the normal classifies every vector
    (separation_classifies), and the on-plane vectors listed in witness_shifts
    are linearly independent, so an arbitrarily small tilt of the normal
    pushes each to its recorded side. The check is sound on every diagram. It
    is complete for the witnesses the library emits on spanning diagrams,
    whose at most m-1 on-plane vectors are independent. A hand-built
    separation whose stored witness is wrong is rejected even when some other
    normal would realize it; is_realizable decides that question."""
    labels = set(diagram.labels())
    if set(separation.side_a) | set(separation.side_b) != labels:
        raise InvalidInputError("separation labels do not match the diagram")
    proper = set(proper_sizes(diagram.source_n))
    if set(separation.sizes()) != proper:
        raise InvalidInputError(
            f"not a proper separation: sizes {separation.sizes()}, expected {sorted(proper)}"
        )
    shifted = [diagram.vector(lab) for lab, _ in separation.witness_shifts]
    on_plane = Matrix(shifted, cols=diagram.m)
    if not separation_classifies(diagram, separation) or rank(on_plane) < on_plane.rows:
        raise InvalidInputError("separation is not strictly realizable by its stored witness")
    return SimplexPair(separation.side_a, separation.side_b)
