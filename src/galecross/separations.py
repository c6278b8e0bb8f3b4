"""Origin-hyperplane separations of Gale diagrams: complete enumeration, the
bisecting-cut search, and the iterative coloring schedules that manufacture
many distinct separations.

Every result here is drawn from one scan of the diagram's candidate
hyperplanes: for each (m-1)-subset of vectors, the hyperplane through the
origin that they span, with the strict sides of all other vectors. The scan is
also the spanning check. It fails exactly when some m-subset of vectors has
rank below m: either an (m-1)-subset is dependent, or a further vector lies on
its hyperplane. So a spanning diagram has one candidate per (m-1)-subset,
and each public call scans it once.

The scan runs on integers. It reads the diagram's int vectors, scaled once
per diagram by the lcm of their denominators, which keeps every sign; a
candidate's normal is the cofactor vector of its subset (the signed maximal
minors of the subset's rows), and every other vector's side is an integer
dot product with it. Each candidate stores its plus and minus label sets, so
the cut search and the schedules test bisection by counting labels in them
and compute no further dot product. A candidate's Fraction normal is made
only when a separation is built from it, once per candidate, and
enumeration dedupes partitions before it builds any separation.

The schedules' state is the list of blocks: the maximal groups of labels
that no cut so far has separated. It starts as one block of all labels, and
each cut refines it once, splitting every block by the cut's two sides; the
pairs that one refinement splits are the pairs that cut separates for the
first time.

Enumeration rests on a rotation argument: any hyperplane strictly separating
the vectors can be rotated, without any vector changing sides, until it
contains m-1 of them. So scanning every candidate and every sign assignment of
its on-plane vectors visits every realizable partition, and the 2^(m-1)
assignments are all realizable because independent on-plane vectors can be
pushed to prescribed sides by an arbitrarily small tilt.

The schedules rest on a splitting lemma. Take a spanning diagram of n
vectors in R^3, a set T of at least 2 labels and the set C of the others.
Some candidate bisects (T, C): each of its strict sides holds at most
floor(|T|/2) of T and floor(|C|/2) of C. Some sign assignment of its two
on-plane vectors gives sizes {floor(n/2), ceil(n/2)} and puts labels of T on
both sides, and when |T| = |C| = 4 some such assignment splits T 2-2.

Proof. The discrete ham sandwich theorem (Matousek, Using the Borsuk-Ulam
Theorem, Cor. 3.1.3) bisects T, C and {0} by one plane; no strict side may
hold the origin, so the plane passes through it. Rotating it about the
origin until it holds two vectors moves no vector across it, so the strict
sides only lose vectors and a bisecting candidate results. Its strict sides
hold p and q vectors with p + q = n - 2 and p, q <= floor(|T|/2) +
floor(|C|/2) <= floor(n/2).
- If p = floor(n/2), both bounds are tight, so that side holds
  floor(|T|/2) >= 1 labels of T, and the rest of T, at least one label, lies
  on the plane or beyond it. Sending both on-plane vectors across gives sizes
  floor(n/2), ceil(n/2) and splits T. The case q = floor(n/2) is the same.
- Otherwise p + q = n - 2 forces p = q = n/2 - 1 with n even, and every
  assignment sending one on-plane vector to each side is proper. If T lies
  strictly on both sides, each of them splits T. If T has no label on one
  strict side, at least ceil(|T|/2) of T lie on the plane; sending one of
  them to that side leaves the rest of T, at least one label, on the other.
- For n = 8 and |T| = |C| = 4, p = 4 leaves 2 of T on that side. For
  p = q = 3: with no vector of T on the plane, T is strictly 2-2; with both,
  C is strictly 2-2, so T is strictly 1-1 and either assignment spreads it;
  with one, T is strictly 2 and 1, and sending the on-plane vector of T to
  the side with 1 of T (and the other across) spreads T 2-2.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from operator import mul

from .errors import InvalidInputError, SearchIncompleteError, TheoremViolationError
from .gale import GaleDiagram, LinearSeparation, proper_sizes
from .linalg import int_det


@dataclass(frozen=True)
class HamSandwichInstance:
    """Two disjoint color classes over a diagram's labels; the origin is always
    the implicit third class, pinning candidate hyperplanes through it."""

    ambient: int
    c1: frozenset
    c2: frozenset

    def __post_init__(self):
        object.__setattr__(self, "c1", frozenset(self.c1))
        object.__setattr__(self, "c2", frozenset(self.c2))
        if self.c1 & self.c2:
            raise InvalidInputError("color classes overlap")

    def to_json_obj(self) -> dict:
        return {
            "ambient": self.ambient,
            "c1": sorted(self.c1),
            "c2": sorted(self.c2),
            # constant: the key keeps the trace schema of earlier versions
            "c3_origin": True,
        }


@dataclass(frozen=True)
class ScheduleStep:
    coloring: HamSandwichInstance
    separation: LinearSeparation
    newly_separated_pairs: tuple
    kind: str = "cut"  # "cut" | "quad"
    note: str = ""

    def to_json_obj(self) -> dict:
        return {
            "coloring": self.coloring.to_json_obj(),
            "separation": self.separation.to_json_obj(),
            "new_pairs": [list(p) for p in self.newly_separated_pairs],
            "kind": self.kind,
            "note": self.note,
        }


@dataclass(frozen=True)
class ScheduleTrace:
    steps: tuple
    case_taken: str | None = None

    def separations(self) -> list[LinearSeparation]:
        return [s.separation for s in self.steps]

    def fallback_count(self) -> int:
        # always 0: every schedule step is a lemma-backed "cut" or "quad"
        return sum(1 for s in self.steps if s.kind == "fallback")

    def to_json_obj(self) -> dict:
        return {
            "case_taken": self.case_taken,
            "steps": [s.to_json_obj() for s in self.steps],
        }


@dataclass
class _Candidate:
    """A candidate hyperplane: the (m-1)-subset of labels it passes through,
    its integer normal h, and the other labels strictly on its positive and
    negative side as frozensets. h is the subset's cofactor vector, negated
    if need be so that its last nonzero entry is positive."""

    subset: tuple
    h: tuple
    plus: frozenset
    minus: frozenset

    @cached_property
    def normal(self) -> tuple[Fraction, ...]:
        """The one vector of kernel_basis(rows) for the subset's rows: h over
        its last nonzero entry. That entry sits at the basis's free column,
        since every later column is a pivot column, where the basis vector
        is 0."""
        den = next(c for c in reversed(self.h) if c)
        return tuple(Fraction(c, den) for c in self.h)


def _oriented_candidates(diagram: GaleDiagram) -> list:
    """All candidate hyperplanes, one _Candidate per (m-1)-subset of labels
    in lexicographic subset order; for m = 1 the single candidate is the
    coordinate axis.

    The subset's cofactor vector w has w_j = (-1)^j times the determinant of
    its int rows without column j. It spans their kernel when they have rank
    m-1 and is 0 otherwise; for m = 1 it is (1,), the determinant of the
    empty matrix. A further vector's side is the sign of its integer dot
    product with w, times the sign of w's last nonzero entry.

    The full scan is the spanning check: it raises InvalidInputError when a
    subset spans fewer than m-1 dimensions (w = 0) or a further vector lies
    on its hyperplane, which is exactly when some m-subset has rank below
    m."""
    m = diagram.m
    labels = sorted(diagram.labels())
    vectors = {lab: diagram.int_vector(lab) for lab in labels}
    candidates = []
    for subset in combinations(labels, m - 1):
        rows = [vectors[lab] for lab in subset]
        w = [(-1) ** j * int_det([row[:j] + row[j + 1 :] for row in rows]) for j in range(m)]
        last = next((c for c in reversed(w) if c), 0)
        if last == 0:
            raise InvalidInputError(
                f"subset {subset} does not span {m - 1} dimensions; "
                "diagram violates the spanning precondition"
            )
        h = tuple(w) if last > 0 else tuple(-c for c in w)
        plus = []
        minus = []
        for lab in labels:
            if lab in subset:
                continue
            d = sum(map(mul, h, vectors[lab]))
            if d == 0:
                raise InvalidInputError(
                    "an extra vector lies on a candidate hyperplane; "
                    "diagram violates the spanning precondition"
                )
            if d > 0:
                plus.append(lab)
            else:
                minus.append(lab)
        candidates.append(_Candidate(subset, h, frozenset(plus), frozenset(minus)))
    return candidates


def _assignments(subset):
    """All 2^len(subset) on-plane side choices, in stable binary order; each is
    a tuple of (label, +1/-1) with +1 meaning the positive side."""
    k = len(subset)
    for bits in range(1 << k):
        yield tuple(
            (lab, 1 if not (bits >> i) & 1 else -1) for i, lab in enumerate(subset)
        )


def _sized_sides(candidates, sizes):
    """(candidate, positive side, negative side, assignment) for each
    candidate and each sign assignment of its on-plane vectors that gives
    part sizes {s1, s2} (both positive), in scan order, with both sides as
    frozensets. Only sizes are counted here; no separation is built."""
    wanted = set(sizes)
    for candidate in candidates:
        subset, plus, minus = candidate.subset, candidate.plus, candidate.minus
        n = len(subset) + len(plus) + len(minus)
        for assignment in _assignments(subset):
            up = {lab for lab, sign in assignment if sign > 0}
            a = len(plus) + len(up)
            if {a, n - a} == wanted:
                yield candidate, plus | up, minus | (set(subset) - up), assignment


def enumerate_separations(diagram: GaleDiagram, sizes) -> list[LinearSeparation]:
    """Every partition of the diagram's labels with part sizes {s1, s2} that a
    hyperplane through the origin realizes strictly (after on-plane sign
    assignment), deduped by partition and deterministically ordered."""
    s1, s2 = sizes
    n = diagram.source_n
    if s1 + s2 != n:
        raise InvalidInputError(f"sizes {sizes} do not sum to {n}")
    if s1 < 1 or s2 < 1:
        # a strict hyperplane cannot leave one side empty: the vectors sum to zero
        return []
    out = {}
    for candidate, positive, negative, assignment in _sized_sides(
        _oriented_candidates(diagram), sizes
    ):
        # only the first occurrence of each partition in scan order is built
        key = frozenset((positive, negative))
        if key not in out:
            out[key] = LinearSeparation(positive, negative, candidate.normal, assignment)
    return sorted(out.values(), key=_partition_key)


def _partition_key(sep):
    return (tuple(sorted(sep.side_a)), tuple(sorted(sep.side_b)))


def _bisects(candidate, inst: HamSandwichInstance) -> bool:
    """Open-half-space bound: for each color class, each strict side of the
    candidate hyperplane holds at most floor(|class|/2) of it. The sides are
    the candidate's stored plus and minus sets, so its on-plane labels count
    toward neither side."""
    for cls in (inst.c1, inst.c2):
        bound = len(cls) // 2
        if len(cls & candidate.plus) > bound or len(cls & candidate.minus) > bound:
            return False
    return True


def _cuts(candidates, inst: HamSandwichInstance, sizes):
    """The sized separations of the candidates whose hyperplane bisects both
    color classes, in scan order.

    Every enumerated separation's normal is plus or minus a candidate's, and
    the bisection bound ignores the sign, so no enumerated separation outside
    this family bisects."""
    bisecting = (c for c in candidates if _bisects(c, inst))
    for candidate, positive, negative, assignment in _sized_sides(bisecting, sizes):
        yield LinearSeparation(positive, negative, candidate.normal, assignment)


def ham_sandwich_cut(diagram: GaleDiagram, inst: HamSandwichInstance, sizes) -> LinearSeparation:
    """First separation with the requested part sizes whose hyperplane leaves at
    most half of each color class strictly on each side."""
    if diagram.m > 3:
        raise InvalidInputError("cut search supports diagrams in R^1..R^3 only")
    labels = set(diagram.labels())
    if not (inst.c1 <= labels and inst.c2 <= labels):
        raise InvalidInputError("color classes mention unknown labels")
    s1, s2 = sizes
    if s1 + s2 != diagram.source_n or s1 < 1 or s2 < 1:
        raise InvalidInputError(f"part sizes {sizes} do not fit the diagram")
    for sep in _cuts(_oriented_candidates(diagram), inst, sizes):
        return sep
    raise SearchIncompleteError(
        "no bisecting separation with the requested sizes exists in the "
        "complete enumeration: SEARCH_INCOMPLETE"
    )


def _refine(blocks, sep):
    """One cut's step of the schedules' state. `blocks` are the maximal
    groups of labels that no earlier cut separated; split each by the cut's
    two sides and drop empty parts. Returns the new blocks and the sorted
    pairs inside the old blocks that the cut splits."""
    refined = []
    for block in blocks:
        refined.extend(part for part in (block & sep.side_a, block & sep.side_b) if part)
    within = _within_block_pairs(blocks)
    return refined, tuple((x, y) for x, y in within if (x in sep.side_a) != (y in sep.side_a))


def _within_block_pairs(blocks):
    pairs = []
    for block in blocks:
        pairs.extend(combinations(sorted(block), 2))
    return sorted(pairs)


def _splits(group):
    """The predicate that a separation puts labels of `group` on both sides."""
    return lambda sep: bool(group & sep.side_a) and bool(group & sep.side_b)


def _spreads(quad):
    """The predicate that a separation divides the four labels of `quad` 2-2."""
    return lambda sep: len(quad & sep.side_a) == 2


def _first_cut(candidates, inst: HamSandwichInstance, sizes, wanted) -> LinearSeparation:
    """First cut of `inst` in scan order that satisfies `wanted`. Every
    schedule step asks for a cut that the splitting lemma guarantees, so a
    miss is a theorem violation."""
    for sep in _cuts(candidates, inst, sizes):
        if wanted(sep):
            return sep
    raise TheoremViolationError(
        f"no bisecting cut of {sorted(inst.c1)} against the other labels fits "
        "the schedule step: THEOREM_VIOLATION (splitting lemma)"
    )


def schedule_eight(diagram: GaleDiagram) -> ScheduleTrace:
    """The four-cut coloring schedule for 8 vectors in R^3.

    Cut 1 colors everything alike; cut 2 colors the first cut's two sides; cut
    3 splits the lexicographically first pair that stayed together through both
    cuts. If some pair still survives all three cuts, cut 4 splits it (case
    ii). Otherwise every pair has been split and there is a 4-subset that every
    previous cut divided 3-1; coloring it forces a 2-2 division, which no
    earlier separation gives (case i).

    Each step colors one group against the other labels and takes the first
    cut that splits the group (the quad step: spreads it 2-2), which no
    earlier cut did, so the four separations are distinct and the splitting
    lemma guarantees every step a cut. Cut 2 is also the first cut of its
    coloring: a bisecting cut of cut 1's sides (A, B) keeps at most 2 of A on
    each open side, so putting all of A on one side takes both on-plane
    vectors from A and leaves B split 2-2; no such cut is (A, B) itself."""
    if diagram.m != 3 or diagram.source_n != 8:
        raise InvalidInputError("schedule needs exactly 8 vectors in R^3")
    all_labels = frozenset(diagram.labels())
    candidates = _oriented_candidates(diagram)
    blocks = [all_labels]
    steps = []

    def run_step(group, wanted, kind="cut", note=""):
        nonlocal blocks
        inst = HamSandwichInstance(diagram.m, group, all_labels - group)
        sep = _first_cut(candidates, inst, proper_sizes(8), wanted)
        blocks, pairs = _refine(blocks, sep)
        steps.append(ScheduleStep(inst, sep, pairs, kind, note))
        return sep

    s1 = run_step(all_labels, _splits(all_labels))
    run_step(s1.side_a, _splits(s1.side_a))
    pair3 = frozenset(_within_block_pairs(blocks)[0])
    run_step(pair3, _splits(pair3))

    surviving = _within_block_pairs(blocks)
    if surviving:
        case = "case_ii"
        pair4 = frozenset(surviving[0])
        run_step(pair4, _splits(pair4))
    else:
        case = "case_i"
        quad = _find_lopsided_quad(all_labels, [step.separation for step in steps])
        if quad is None:
            # three 4/4 cuts that split every pair give the labels all eight
            # sign patterns, and 000, 100, 010, 001 form a 3-1 quad
            raise TheoremViolationError(
                "three cuts split every pair but leave no 3-1 quad: THEOREM_VIOLATION"
            )
        group = frozenset(quad)
        run_step(group, _spreads(group), "quad", f"2-2 spread of {{{','.join(quad)}}}")

    trace = ScheduleTrace(tuple(steps), case)
    _assert_distinct(trace)
    return trace


def _find_lopsided_quad(labels, separations):
    """Lexicographically first 4-subset that every separation so far split 3-1;
    None when no such subset exists."""
    for quad in combinations(sorted(labels), 4):
        ok = True
        for sep in separations:
            inside = sum(1 for lab in quad if lab in sep.side_a)
            if inside not in (1, 3):
                ok = False
                break
        if ok:
            return quad
    return None


def _assert_distinct(trace: ScheduleTrace):
    seps = trace.separations()
    if len(set(seps)) != len(seps):
        raise SearchIncompleteError("schedule produced duplicate separations")


def schedule_blocks(diagram: GaleDiagram) -> ScheduleTrace:
    """Block-refinement schedule for d+4 vectors in R^3 (d >= 4).

    Maintains the maximal never-yet-separated blocks, refined once per cut.
    Round 1 colors everything alike; every later round recolors the largest
    surviving block against its complement and takes the first cut that
    splits a pair inside it, which the splitting lemma guarantees. Each
    emitted separation certifies at least one newly split within-block pair,
    so the refinement strictly progresses and the trace length is at least
    ceil(log2(n)) by the time every block is a singleton: k separations can
    tell at most 2^k labels apart."""
    if diagram.m != 3 or diagram.source_d < 4:
        raise InvalidInputError("schedule needs d+4 vectors in R^3 with d >= 4")
    if diagram.source_n == 8:
        # eight vectors: the four-cut schedule subsumes block refinement and
        # certifies four distinct separations, one more than log2(8)
        return schedule_eight(diagram)
    all_labels = frozenset(diagram.labels())
    candidates = _oriented_candidates(diagram)
    blocks = [all_labels]
    steps = []
    while True:
        big = [b for b in blocks if len(b) >= 2]
        if not big:
            break
        target = min(big, key=lambda b: (-len(b), min(b)))
        inst = HamSandwichInstance(diagram.m, target, all_labels - target)
        sep = _first_cut(candidates, inst, proper_sizes(len(all_labels)), _splits(target))
        blocks, pairs = _refine(blocks, sep)
        steps.append(ScheduleStep(inst, sep, pairs))
    trace = ScheduleTrace(tuple(steps))
    _assert_distinct(trace)
    return trace
