"""Gale transforms and linear separations of the resulting vector diagrams.

A configuration of n = m + d + 1 labeled points in R^d lifts to the
(d+1) x n matrix M whose rows are the d coordinate rows plus an all-ones row.
The canonical kernel basis of M, read off column by column, gives n labeled
vectors in R^m: the diagram. The key duality: strict origin-hyperplane
bipartitions of the diagram correspond to vertex-disjoint simplex pairs of the
source whose relative interiors meet, with matching part sizes.
separation_to_crossing certifies a bipartition by arithmetic on its stored
witness normal; this module solves no LP.

General position is tested on whichever side of Gale duality has the smaller
matrices. When the points affinely span R^d, a (d+1)-subset of them is
affinely dependent exactly when the other m = n-d-1 diagram vectors are
linearly dependent (Matousek, Lectures on Discrete Geometry, Sec. 5.6). The
columns of the lift matrix M on a set S of d+1 points are dependent (S is
affinely dependent) iff some nonzero kernel vector of M vanishes outside S.
The kernel of M is the set of G y, for the diagram's n x m matrix G of rank
m, so that happens iff G_T y = 0 for some y != 0, where G_T holds the m rows
outside S: iff those m vectors are dependent. Both sides thus answer the
same C(n, d+1) = C(n, m) questions: d x d determinants on the points
(configs.find_degenerate_subset) or m x m ones on the diagram
(verify_spanning). gale_transform builds the diagram first and checks it when
m < d and the configuration has no stored scan. The diagram side only says
yes or no, so when it says no, or when the points do not affinely span R^d
(the kernel has more than m vectors), the point-side scan runs and names the
first dependent subset. Only that scan stores an answer on the
configuration, so verify_duality still compares two independently computed
sides.

Each diagram holds its vectors as int rows over one common scale, made once
per instance; the spanning check, the candidate scan in separations and the
witness audits read them. GaleDiagram names its header, its row field and its
noun; the row code it shares with PointConfig (label index, integer form, row
checks, the file form, save and load) is configs.LabeledRows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations

from .configs import (
    LabeledPoint,
    LabeledRows,
    PointConfig,
    SimplexPair,
    is_general_position,
    ordered_sides,
    require_general_position,
)
from .errors import InvalidInputError
from .linalg import clear_denominators, int_det, kernel_basis, rank
from .rationals import format_vector


def lift_matrix(config: PointConfig) -> list[list[int]]:
    """The (d+1) x n matrix as int rows, times the configuration's scale s:
    the coordinate rows of its int coordinates, then s in every column. A
    positive multiple has the same kernel and rank as the matrix itself."""
    cols = [config.int_coords(p.label) for p in config.points]
    rows = [[col[k] for col in cols] for k in range(config.dimension)]
    rows.append([config.coord_scale] * config.n)
    return rows


@dataclass(frozen=True)
class GaleDiagram(LabeledRows):
    m: int
    source_d: int
    vectors: tuple[LabeledPoint, ...]

    _HEADER = ("m", "source_d")
    _ROWS = "vectors"
    _NOUN = "diagram"

    def __post_init__(self):
        if self.m < 1:
            raise InvalidInputError("diagram dimension m must be >= 1")
        if self.source_d < 0:
            raise InvalidInputError("source dimension source_d must be >= 0")
        if len(self.vectors) != self.m + self.source_d + 1:
            raise InvalidInputError("vector count must equal m + source_d + 1")
        self._check_rows(self.m)

    @property
    def source_n(self) -> int:
        return len(self.vectors)

    def vector(self, label: str) -> tuple[Fraction, ...]:
        return self.vectors[self._position(label)].coords

    def int_vector(self, label: str) -> tuple[int, ...]:
        """vector(label) times the diagram's common scale s > 0, as ints; s
        keeps every sign and every linear dependence."""
        return self._integer_form[0][self._position(label)]


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
        a, b, swap = ordered_sides(self.side_a, self.side_b)
        object.__setattr__(self, "side_a", a)
        object.__setattr__(self, "side_b", b)
        shifts = tuple(sorted((str(lab), int(s)) for lab, s in self.witness_shifts))
        normal = tuple(Fraction(x) for x in self.witness_normal)
        if swap:
            # flip the normal so side_a stays the positive side
            shifts = tuple((lab, -s) for lab, s in shifts)
            normal = tuple(-x for x in normal)
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


def gale_transform(config: PointConfig) -> GaleDiagram:
    """Canonical diagram of a general-position configuration with n >= d+2.

    General position is decided by the diagram's m x m determinants when
    m < d and the configuration holds no scan yet, and by the points' d x d
    determinants otherwise; a configuration that is not in general position
    is always named by its first dependent subset from the point side."""
    n, d = config.n, config.dimension
    if n < d + 2:
        raise InvalidInputError("need n >= d + 2 so that m >= 1")
    if n - d - 1 < d and not config._scanned():
        diagram = _kernel_diagram(config)
        if diagram is not None and verify_spanning(diagram):
            return diagram
    require_general_position(config)
    return _kernel_diagram(config)


def _kernel_diagram(config: PointConfig) -> GaleDiagram | None:
    """The diagram read off the lift matrix's canonical kernel basis; None
    when the points do not affinely span R^d, so that the kernel has more
    than m = n-d-1 vectors."""
    basis = kernel_basis(lift_matrix(config))
    if len(basis) != config.n - config.dimension - 1:
        return None
    vectors = tuple(
        LabeledPoint(p.label, tuple(row[i] for row in basis))
        for i, p in enumerate(config.points)
    )
    return GaleDiagram(len(basis), config.dimension, vectors)


def verify_spanning(diagram: GaleDiagram) -> bool:
    """True iff every m-subset of diagram vectors has rank m: its m x m
    determinant on the diagram's int vectors is nonzero."""
    for rows in combinations(diagram._integer_form[0], diagram.m):
        if int_det(rows) == 0:
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
    diagram = _kernel_diagram(config)
    right = diagram is not None and verify_spanning(diagram)
    return left == right


def separation_classifies(diagram: GaleDiagram, separation: LinearSeparation) -> bool:
    """Direct sign audit of the stored witness: the normal must classify every
    off-plane vector strictly, and every on-plane vector must appear in
    witness_shifts with the side it was assigned to."""
    shifts = dict(separation.witness_shifts)
    (h,), _ = clear_denominators([separation.witness_normal])
    for v, g in zip(diagram.vectors, diagram._integer_form[0]):
        lab = v.label
        dot = sum(a * b for a, b in zip(h, g))
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
    normal would realize it."""
    labels = set(diagram.labels())
    if set(separation.side_a) | set(separation.side_b) != labels:
        raise InvalidInputError("separation labels do not match the diagram")
    proper = set(proper_sizes(diagram.source_n))
    if set(separation.sizes()) != proper:
        raise InvalidInputError(
            f"not a proper separation: sizes {separation.sizes()}, expected {sorted(proper)}"
        )
    shifted = [diagram.int_vector(lab) for lab, _ in separation.witness_shifts]
    if not separation_classifies(diagram, separation) or rank(shifted) < len(shifted):
        raise InvalidInputError("separation is not strictly realizable by its stored witness")
    return SimplexPair(separation.side_a, separation.side_b)
