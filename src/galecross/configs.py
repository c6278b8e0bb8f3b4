"""Labeled rational point configurations: generators, the general-position
predicate, dimension lifting, and the point-file format.

Labels are strings so the CLI can reference points; every operation that
enumerates subsets does so in lexicographic label order, which is what makes
"first witness" style results reproducible.

Coordinates are Fractions. Each configuration instance also holds, made once
on first use, a label index and its integer form: every coordinate times one
common scale s (linalg.clear_denominators over all points at once), as int
rows. The general-position scan, the Gale lift and the crossing LP read those
rows; Fractions are made again only for what they return.

Both sides of Gale duality are labeled rational rows of one width: the points
here and the diagram vectors of gale.GaleDiagram. The row code they share
(label index, integer form, row checks, file rows, save and load) lives once,
in LabeledRows; so does the side-order rule of a pair of label sets
(ordered_sides), which SimplexPair and gale.LinearSeparation both follow.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations

from .errors import InvalidInputError, RetryLimitError
from .jsonio import atomic_write_text, canonical_dumps, load_json
from .linalg import ONE, clear_denominators, int_det
from .rationals import format_vector, parse_count, parse_label, parse_vector

DUMMY_LABEL = "dummy"
RETRY_LIMIT = 1000


@dataclass(frozen=True)
class LabeledPoint:
    label: str
    coords: tuple[Fraction, ...]


class LabeledRows:
    """The storage both sides of Gale duality share: labeled rational rows of
    one width, read from the dataclass field named by _ROWS. A subclass names
    its header fields (_HEADER, JSON integers in that order before the rows
    in its constructor), its row field and its noun for messages; it holds,
    made once on first use, a label index and the integer form, every row
    times one common scale s > 0 (one clear_denominators call) as int rows.
    The file form is the header, then the rows as {label, coords} objects.
    Not part of galecross.__all__."""

    _HEADER: tuple[str, ...]
    _ROWS: str
    _NOUN: str

    @property
    def _rows(self) -> tuple[LabeledPoint, ...]:
        return getattr(self, self._ROWS)

    def _check_rows(self, width: int) -> None:
        """Refuse a repeated label or a row whose width is not `width`."""
        labels = self.labels()
        if len(set(labels)) != len(labels):
            raise InvalidInputError(f"duplicate {self._NOUN} labels")
        for row in self._rows:
            if len(row.coords) != width:
                raise InvalidInputError(
                    f"{self._NOUN} row {row.label} has {len(row.coords)} coords, expected {width}"
                )

    def labels(self) -> tuple[str, ...]:
        return tuple(row.label for row in self._rows)

    def _position(self, label) -> int:
        try:
            return self._index[label]
        except (KeyError, TypeError):
            raise InvalidInputError(f"unknown {self._NOUN} label: {label}") from None

    @cached_property
    def _index(self) -> dict[str, int]:
        return {row.label: i for i, row in enumerate(self._rows)}

    @cached_property
    def _integer_form(self) -> tuple[tuple[tuple[int, ...], ...], int]:
        rows, scale = clear_denominators([row.coords for row in self._rows])
        return tuple(map(tuple, rows)), scale

    def to_json_obj(self) -> dict:
        obj = {key: getattr(self, key) for key in self._HEADER}
        obj[self._ROWS] = [
            {"label": row.label, "coords": format_vector(row.coords)} for row in self._rows
        ]
        return obj

    @classmethod
    def from_json_obj(cls, obj):
        try:
            header = [parse_count(obj[key], key) for key in cls._HEADER]
            rows = tuple(
                LabeledPoint(parse_label(item["label"]), parse_vector(item["coords"]))
                for item in obj[cls._ROWS]
            )
        except (KeyError, TypeError) as exc:
            raise InvalidInputError(f"malformed {cls._NOUN} file: {exc!r}") from exc
        return cls(*header, rows)

    def save(self, path: str) -> None:
        atomic_write_text(path, canonical_dumps(self.to_json_obj()))

    @classmethod
    def load(cls, path: str):
        return cls.from_json_obj(load_json(path))


@dataclass(frozen=True)
class PointConfig(LabeledRows):
    dimension: int
    points: tuple[LabeledPoint, ...]

    _HEADER = ("dimension",)
    _ROWS = "points"
    _NOUN = "point"

    def __post_init__(self):
        if self.dimension < 1:
            raise InvalidInputError("dimension must be >= 1")
        self._check_rows(self.dimension)

    @property
    def n(self) -> int:
        return len(self.points)

    def coords(self, label: str) -> tuple[Fraction, ...]:
        return self.points[self._position(label)].coords

    def int_coords(self, label: str) -> tuple[int, ...]:
        """coords(label) times coord_scale, as ints."""
        return self._integer_form[0][self._position(label)]

    @property
    def coord_scale(self) -> int:
        """The common scale s > 0 of int_coords: the lcm of every
        coordinate's denominator."""
        return self._integer_form[1]

    def _scanned(self) -> bool:
        """Whether find_degenerate_subset's answer is stored on this instance."""
        return "_degenerate_subset" in self.__dict__

    @cached_property
    def _degenerate_subset(self) -> tuple[str, ...] | None:
        """find_degenerate_subset's scan, made once per instance: the
        configuration is frozen, so its answer never changes. It walks the
        (d+1)-subsets in lexicographic label order and returns the first
        whose orientation is 0. Every sign it reads is kept, so a subset
        reads the signs its parent already holds."""
        keys = combinations(sorted(self.labels()), self.dimension + 1)
        return next((key for key in keys if not self.orientation(key)), None)

    @cached_property
    def _orientations(self) -> dict[tuple[str, ...], int]:
        return {}

    def orientation(self, key: tuple[str, ...]) -> int:
        """The sign (1, -1 or 0) of det(x_1 - x_0, ..., x_d - x_0) for the
        points of `key`, a tuple of d+1 distinct labels x_0, ..., x_d in that
        order: (-1)^d times the sign of their affine determinant, 0 exactly
        when they are affinely dependent. Subtracting the first row of the
        affine matrix (each point's coordinates, then a one) from the others
        and expanding along the column of ones gives that factor. The
        d x d int_det is taken on the int coordinates, once per key: every
        sign is kept, and shared with subsets."""
        sign = self._orientations.get(key)
        if sign is None:
            if len(key) != self.dimension + 1 or len(set(key)) != len(key):
                raise InvalidInputError(
                    f"orientation needs {self.dimension + 1} distinct labels, got {list(key)}"
                )
            first, *rest = map(self.int_coords, key)
            value = int_det([[x - y for x, y in zip(row, first)] for row in rest])
            sign = self._orientations[key] = (value > 0) - (value < 0)
        return sign

    @cached_property
    def _cocircuits(self) -> dict[tuple[str, ...], tuple[int, int]]:
        return {}

    @cached_property
    def _sorted_bits(self) -> tuple[tuple[str, int], ...]:
        """Each label with the bit of its row (row_mask), in label order."""
        return tuple(sorted((label, 1 << i) for label, i in self._index.items()))

    def row_mask(self, labels) -> int:
        """The bitmask of the labels' row positions: bit i stands for the
        i-th point of `points`."""
        mask = 0
        for label in labels:
            mask |= 1 << self._position(label)
        return mask

    def cocircuit(self, key: tuple[str, ...]) -> tuple[int, int]:
        """The two open sides of the hyperplane through the points of `key`,
        a sorted tuple of d distinct labels, as row masks (row_mask): the
        points x outside key on side +1, then those on side -1. The side of
        x is (-1)^i * orientation(sorted key + x), i being x's position in
        that tuple; it is 0 for x on the hyperplane, and for every x when
        key is affinely dependent. The table is filled from orientation
        signs alone, one key on first use, and kept per instance: a subset
        numbers its rows differently, so it does not share it."""
        sides = self._cocircuits.get(key)
        if sides is None:
            if len(key) != self.dimension or list(key) != sorted(set(key)):
                raise InvalidInputError(
                    f"cocircuit needs {self.dimension} sorted distinct labels, got {list(key)}"
                )
            plus = minus = 0
            i = 0
            for label, bit in self._sorted_bits:
                if i < len(key) and key[i] == label:
                    i += 1
                    continue
                side = self.orientation((*key[:i], label, *key[i:]))
                if i % 2:
                    side = -side
                if side > 0:
                    plus |= bit
                elif side < 0:
                    minus |= bit
            sides = self._cocircuits[key] = (plus, minus)
        return sides

    def subset(self, labels) -> "PointConfig":
        """Restriction to the given labels, preserving the original order.

        A subset's (d+1)-subsets are the parent's, so it shares the parent's
        orientation signs, and a subset of a configuration already known to
        be in general position takes that answer without a scan."""
        wanted = set(labels)
        missing = wanted.difference(self._index)
        if missing:
            raise InvalidInputError(f"unknown labels: {sorted(missing)}")
        sub = PointConfig(self.dimension, tuple(p for p in self.points if p.label in wanted))
        sub.__dict__["_orientations"] = self._orientations
        if self._scanned() and self._degenerate_subset is None:
            sub.__dict__["_degenerate_subset"] = None
        return sub

    def config_id(self) -> str:
        digest = hashlib.sha256(canonical_dumps(self.to_json_obj()).encode()).hexdigest()
        return f"n{self.n}d{self.dimension}-{digest[:12]}"


def moment_curve_config(n: int, d: int) -> PointConfig:
    """Points t -> (t, t^2, ..., t^d) for t = 1..n; general position for free
    (Vandermonde determinants never vanish)."""
    if n < 1 or d < 1:
        raise InvalidInputError("need n >= 1 and d >= 1")
    points = tuple(
        LabeledPoint(f"p{t}", tuple(Fraction(t**j) for j in range(1, d + 1)))
        for t in range(1, n + 1)
    )
    return PointConfig(d, points)


def draw_config(rng: random.Random, n: int, d: int, coord_range: int) -> PointConfig:
    """Points p1..pn with integer coordinates drawn from `rng` uniformly in
    [-coord_range, coord_range], point by point, coordinate by coordinate;
    no general-position check."""
    points = tuple(
        LabeledPoint(
            f"p{i + 1}",
            tuple(Fraction(rng.randrange(-coord_range, coord_range + 1)) for _ in range(d)),
        )
        for i in range(n)
    )
    return PointConfig(d, points)


def random_config(n: int, d: int, seed: int, coord_range: int) -> PointConfig:
    """Uniform integer coordinates in [-coord_range, coord_range], resampling the
    whole configuration until it is in general position.

    Generator: random.Random (MT19937) seeded with `seed`; draws happen point by
    point, coordinate by coordinate, via randrange. Same inputs, same output.

    General position is decided on the side of Gale duality with the smaller
    determinants. When 1 <= m = n-d-1 < d, a draw is accepted iff its
    diagram exists and spans (gale.spanning_diagram), the same answer as the
    points' scan, and the configuration holds no point-side scan; otherwise
    the points' scan decides and is stored."""
    if n < d + 1:
        raise InvalidInputError("need n >= d + 1")
    if coord_range < 1:
        raise InvalidInputError("range must come as a positive integer")
    if 1 <= n - d - 1 < d:
        from .gale import spanning_diagram  # gale imports this module

        def accept(config):
            return spanning_diagram(config) is not None

    else:
        accept = is_general_position
    rng = random.Random(seed)
    for _ in range(RETRY_LIMIT):
        config = draw_config(rng, n, d, coord_range)
        if accept(config):
            return config
    raise RetryLimitError(
        f"no general-position configuration after {RETRY_LIMIT} attempts "
        f"(n={n}, d={d}, range={coord_range}; range too small?)"
    )


def find_degenerate_subset(config: PointConfig) -> tuple[str, ...] | None:
    """First (d+1)-subset, in lexicographic label order, that is affinely
    dependent; None when the configuration is in general position.

    The scan reads orientation() of each (d+1)-subset on the first call for
    a configuration instance only, and not at all for a subset of one already
    known to be in general position; later calls return the stored answer.
    A subset shares its parent's signs, so it makes no determinant for a
    sign its parent holds, even when it was made before the parent's scan."""
    return config._degenerate_subset


def is_general_position(config: PointConfig) -> bool:
    return find_degenerate_subset(config) is None


def require_general_position(config: PointConfig) -> None:
    """Raise InvalidInputError naming the first affinely dependent subset,
    unless the configuration is in general position."""
    bad = find_degenerate_subset(config)
    if bad is not None:
        raise InvalidInputError(
            f"configuration is not in general position: "
            f"affinely dependent subset {sorted(bad)}"
        )


def lift_odd(config: PointConfig) -> PointConfig:
    """Embed one dimension up: append coordinate 0 to every point and add one
    apex point "dummy" at (0, ..., 0, 1).

    The lifted originals keep every affine independence they had, and the apex
    is affinely independent of any of their subsets; but d+2 lifted originals
    always share the hyperplane x_{d+1} = 0, so the lifted configuration as a
    whole never satisfies is_general_position once n >= d+2. Downstream
    witness searches do not need it to."""
    if DUMMY_LABEL in config.labels():
        raise InvalidInputError(f"label collision with {DUMMY_LABEL!r}")
    zero = Fraction(0)
    lifted = [LabeledPoint(p.label, p.coords + (zero,)) for p in config.points]
    apex = LabeledPoint(DUMMY_LABEL, (zero,) * config.dimension + (ONE,))
    return PointConfig(config.dimension + 1, tuple(lifted) + (apex,))


def ordered_sides(a, b) -> tuple[frozenset, frozenset, bool]:
    """The two sides of a pair of label sets as frozensets, the side holding
    the smallest label first, and whether they were swapped to get there.
    Both must be nonempty and share no label. Not part of galecross.__all__."""
    a, b = frozenset(a), frozenset(b)
    if not a or not b:
        raise InvalidInputError("both sides of a pair must be nonempty")
    if a & b:
        raise InvalidInputError("pair sides share a label")
    if min(b) < min(a):
        return b, a, True
    return a, b, False


@dataclass(frozen=True)
class SimplexPair:
    """Unordered pair of disjoint vertex sets, canonicalized so that `left`
    holds the lexicographically smallest label overall."""

    left: frozenset
    right: frozenset

    def __post_init__(self):
        left, right, _ = ordered_sides(self.left, self.right)
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)

    def sizes(self) -> tuple[int, int]:
        return (len(self.left), len(self.right))

    def to_json_obj(self) -> dict:
        return {"left": sorted(self.left), "right": sorted(self.right)}
