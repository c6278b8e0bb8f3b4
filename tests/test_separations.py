import math
import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from galecross import (
    GaleDiagram,
    HamSandwichInstance,
    LabeledPoint,
    LinearSeparation,
    enumerate_separations,
    gale_transform,
    ham_sandwich_cut,
    is_realizable,
    moment_curve_config,
    random_config,
    schedule_blocks,
    schedule_eight,
    separation_classifies,
    separation_to_crossing,
    verify_spanning,
)
from galecross.errors import InvalidInputError, SearchIncompleteError
from galecross.gale import proper_sizes
from oracles import fm_separable, sampled_separations

F = Fraction


def diagram_of(n, d, seed=None, coord_range=40):
    if seed is None:
        return gale_transform(moment_curve_config(n, d))
    return gale_transform(random_config(n, d, seed=seed, coord_range=coord_range))


def hand_diagram(m, source_d, rows):
    vectors = tuple(
        LabeledPoint(lab, tuple(F(x) for x in coords)) for lab, coords in rows
    )
    return GaleDiagram(m, source_d, vectors)


def test_rank_one_square(zigzag_square):
    dia = gale_transform(zigzag_square)
    seps = enumerate_separations(dia, (2, 2))
    assert len(seps) == 1
    assert seps[0].partition() == (frozenset({"p1", "p4"}), frozenset({"p2", "p3"}))
    assert enumerate_separations(dia, (1, 3)) == []


def test_sizes_validation():
    dia = diagram_of(6, 3)
    with pytest.raises(InvalidInputError):
        enumerate_separations(dia, (2, 3))
    assert enumerate_separations(dia, (0, 6)) == []


def test_enumerated_separations_are_sound():
    for n, d, seed in [(6, 3, None), (7, 4, None), (7, 3, 51), (8, 4, 52)]:
        dia = diagram_of(n, d, seed)
        sizes = (n // 2, (n + 1) // 2)
        seps = enumerate_separations(dia, sizes)
        assert len(seps) == len({s.partition() for s in seps})
        for sep in seps:
            assert set(sep.sizes()) == set(sizes)
            assert separation_classifies(dia, sep)
            assert is_realizable(dia, sep)
            separation_to_crossing(dia, sep)  # must not raise


def test_enumeration_contains_all_sampled():
    for n, d, seed in [(6, 3, 61), (7, 4, 62), (8, 4, 63), (6, 2, 64)]:
        dia = diagram_of(n, d, seed)
        sizes = (n // 2, (n + 1) // 2)
        enumerated = {frozenset(s.partition()) for s in enumerate_separations(dia, sizes)}
        labeled = [(lab, dia.vector(lab)) for lab in dia.labels()]
        sampled = sampled_separations(labeled, sizes, samples=2500, seed=seed)
        assert sampled <= enumerated


def test_enumeration_invariant_under_basis_change():
    rng = random.Random(71)
    dia = diagram_of(7, 3, seed=72)
    m = dia.m
    base = {frozenset(s.partition()) for s in enumerate_separations(dia, (3, 4))}
    for _ in range(4):
        while True:
            mat = [[rng.randint(-3, 3) for _ in range(m)] for _ in range(m)]
            det = (
                mat[0][0] * (mat[1][1] * mat[2][2] - mat[1][2] * mat[2][1])
                - mat[0][1] * (mat[1][0] * mat[2][2] - mat[1][2] * mat[2][0])
                + mat[0][2] * (mat[1][0] * mat[2][1] - mat[1][1] * mat[2][0])
            )
            if det != 0:
                break
        mapped = GaleDiagram(
            m,
            dia.source_d,
            tuple(
                LabeledPoint(
                    v.label,
                    tuple(
                        sum(mat[i][j] * v.coords[j] for j in range(m)) for i in range(m)
                    ),
                )
                for v in dia.vectors
            ),
        )
        assert {
            frozenset(s.partition()) for s in enumerate_separations(mapped, (3, 4))
        } == base


def test_spanning_violation_rejected():
    dia = hand_diagram(
        2, 1, [("g1", (1, 0)), ("g2", (2, 0)), ("g3", (0, 1)), ("g4", (-3, -1))]
    )
    with pytest.raises(InvalidInputError, match="spanning"):
        enumerate_separations(dia, (2, 2))


@st.composite
def small_diagrams(draw):
    """Diagrams of distinct vectors with m in {1, 2, 3} and coordinates in
    [-2, 2], so that dependent subsets and vectors on candidate hyperplanes
    are common; distinct vectors keep spanning diagrams common too."""
    m = draw(st.integers(1, 3))
    n = m + draw(st.integers(0, 2)) + 1
    vector = st.tuples(*[st.integers(-2, 2)] * m)
    rows = draw(st.lists(vector, min_size=n, max_size=n, unique=True))
    return hand_diagram(m, n - m - 1, [(f"g{i + 1}", row) for i, row in enumerate(rows)])


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(small_diagrams())
def test_candidate_scan_is_the_spanning_check(dia):
    spanning = verify_spanning(dia)
    sizes = proper_sizes(dia.source_n)
    emitted = []
    try:
        emitted += enumerate_separations(dia, sizes)
    except InvalidInputError:
        assert not spanning
    else:
        assert spanning
    try:
        cut = ham_sandwich_cut(dia, HamSandwichInstance(dia.m, frozenset(), frozenset()), sizes)
    except InvalidInputError:
        assert not spanning
    except SearchIncompleteError:
        assert spanning
    else:
        assert spanning
        emitted.append(cut)
    for sep in emitted:
        assert separation_classifies(dia, sep)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(small_diagrams())
def test_is_realizable_matches_gordan_oracle(dia):
    labels = sorted(dia.labels())
    for k in range(1, len(labels)):
        for side in combinations(labels, k):
            if labels[0] not in side:
                continue  # each unordered bipartition once
            rest = [lab for lab in labels if lab not in side]
            sep = LinearSeparation(frozenset(side), frozenset(rest), (F(1),) * dia.m)
            signed = [dia.vector(lab) for lab in side]
            signed += [tuple(-x for x in dia.vector(lab)) for lab in rest]
            assert is_realizable(dia, sep) == fm_separable(signed)


def test_stored_witness_certifies_enumerated_separations():
    for n, d, seed in [(6, 3, None), (7, 4, None), (7, 3, 81), (8, 4, 82), (9, 5, 83)]:
        dia = diagram_of(n, d, seed)
        seps = enumerate_separations(dia, proper_sizes(n))
        assert seps
        for sep in seps:
            separation_to_crossing(dia, sep)  # must not raise
            flipped = LinearSeparation(
                sep.side_a,
                sep.side_b,
                tuple(-x for x in sep.witness_normal),
                sep.witness_shifts,
            )
            with pytest.raises(InvalidInputError, match="realizable"):
                separation_to_crossing(dia, flipped)


def test_dependent_on_plane_witness_rejected():
    # g1 and g2 lie on one ray, so no tilt of the normal (0, 1) can push them
    # to opposite sides, although the normal classifies every other vector
    dia = hand_diagram(2, 1, [("g1", (1, 0)), ("g2", (2, 0)), ("g3", (0, 1)), ("g4", (0, -1))])
    sep = LinearSeparation(
        frozenset({"g1", "g3"}), frozenset({"g2", "g4"}), (F(0), F(1)), (("g1", 1), ("g2", -1))
    )
    assert separation_classifies(dia, sep)
    assert not is_realizable(dia, sep)
    with pytest.raises(InvalidInputError, match="realizable"):
        separation_to_crossing(dia, sep)


def test_instance_validation():
    with pytest.raises(InvalidInputError):
        HamSandwichInstance(3, frozenset({"p1"}), frozenset({"p1", "p2"}))


def test_ham_sandwich_bound_re_verified():
    rng = random.Random(81)
    for trial in range(12):
        n = rng.choice([7, 8])
        dia = diagram_of(n, n - 4, seed=800 + trial)
        labels = list(dia.labels())
        rng.shuffle(labels)
        k1 = rng.randint(1, 3)
        k2 = rng.randint(1, 3)
        inst = HamSandwichInstance(
            3, frozenset(labels[:k1]), frozenset(labels[k1 : k1 + k2])
        )
        sizes = (n // 2, (n + 1) // 2)
        try:
            sep = ham_sandwich_cut(dia, inst, sizes)
        except SearchIncompleteError:
            continue
        assert set(sep.sizes()) == set(sizes)
        for cls in (inst.c1, inst.c2):
            bound = len(cls) // 2
            shifts = dict(sep.witness_shifts)
            up = sum(
                1
                for lab in cls
                if lab not in shifts
                and sum(a * b for a, b in zip(sep.witness_normal, dia.vector(lab))) > 0
            )
            down = sum(
                1
                for lab in cls
                if lab not in shifts
                and sum(a * b for a, b in zip(sep.witness_normal, dia.vector(lab))) < 0
            )
            assert up <= bound and down <= bound, (trial, sorted(cls))


def test_ham_sandwich_two_and_two():
    # both classes of size 2: each open side carries at most one of each
    dia = diagram_of(8, 4)
    inst = HamSandwichInstance(3, frozenset({"p1", "p2"}), frozenset({"p3", "p4"}))
    sep = ham_sandwich_cut(dia, inst, (4, 4))
    assert len(sep.side_a & inst.c1) <= 1 + sum(1 for l, _ in sep.witness_shifts if l in inst.c1)
    assert len(sep.side_a & inst.c2) <= 1 + sum(1 for l, _ in sep.witness_shifts if l in inst.c2)


def test_ham_sandwich_search_incomplete(zigzag_square):
    # rank-one diagram has a single partition; p1 and p4 always land together
    dia = gale_transform(zigzag_square)
    inst = HamSandwichInstance(1, frozenset({"p1", "p4"}), frozenset())
    with pytest.raises(SearchIncompleteError):
        ham_sandwich_cut(dia, inst, (2, 2))


def test_ham_sandwich_input_errors():
    dia = diagram_of(8, 4)
    with pytest.raises(InvalidInputError):
        ham_sandwich_cut(dia, HamSandwichInstance(3, frozenset({"zz"}), frozenset()), (4, 4))
    with pytest.raises(InvalidInputError):
        ham_sandwich_cut(dia, HamSandwichInstance(3, frozenset(), frozenset()), (5, 4))


def test_schedule_eight_moment_frozen():
    trace = schedule_eight(diagram_of(8, 4))
    assert trace.case_taken == "case_ii"
    assert len(trace.steps) == 4
    assert trace.fallback_count() == 0
    first = trace.steps[0].separation
    assert first.partition() == (
        frozenset({"p1", "p3", "p5", "p7"}),
        frozenset({"p2", "p4", "p6", "p8"}),
    )
    # cut 1 colors everything with the first class
    assert trace.steps[0].coloring.c1 == frozenset(f"p{i}" for i in range(1, 9))
    # cut 2 recolors the two sides of cut 1 against each other
    assert trace.steps[1].coloring.c1 == first.side_a
    assert trace.steps[1].coloring.c2 == first.side_b


def test_schedule_eight_properties_random():
    for trial in range(15):
        dia = diagram_of(8, 4, seed=900 + trial)
        trace = schedule_eight(dia)
        seps = trace.separations()
        assert len(set(seps)) == len(seps) >= 4
        assert trace.case_taken in ("case_i", "case_ii")
        enumerated = set(enumerate_separations(dia, (4, 4)))
        for step in trace.steps:
            assert step.separation in enumerated
            assert separation_classifies(dia, step.separation)
            if step.kind == "cut":
                assert step.newly_separated_pairs
            if step.kind == "quad":
                assert "2-2 spread" in step.note


def test_lopsided_quad_detection():
    # the branch where three cuts already split every pair is rare on random
    # diagrams, so its quad search is pinned down directly: three synthetic
    # cuts splitting all pairs of 1..8 leave {1,2,3,5} split 3-1 by each
    from galecross.separations import _find_lopsided_quad

    labels = [str(i) for i in range(1, 9)]

    def mk(a):
        return LinearSeparation(
            frozenset(a), frozenset(set(labels) - set(a)), (F(1), F(0), F(0))
        )

    seps = [mk({"1", "2", "3", "4"}), mk({"1", "2", "5", "6"}), mk({"1", "3", "5", "7"})]
    assert _find_lopsided_quad(labels, seps) == ("1", "2", "3", "5")
    # a 2-2 split of that quad is exactly what none of the three cuts did
    for sep in seps:
        assert sum(1 for lab in ("1", "2", "3", "5") if lab in sep.side_a) in (1, 3)
    # with a fourth separation splitting the quad 2-2 no candidate remains
    seps.append(mk({"1", "2", "7", "8"}))
    assert _find_lopsided_quad(labels, seps) is None


def test_schedule_eight_shape_errors():
    with pytest.raises(InvalidInputError):
        schedule_eight(diagram_of(7, 3))


def test_schedule_blocks_moment_diagrams():
    for n, d in [(9, 5), (10, 6)]:
        dia = diagram_of(n, d)
        trace = schedule_blocks(dia)
        seps = trace.separations()
        assert len(set(seps)) == len(seps)
        assert len(seps) >= math.floor(math.log2(n))
        enumerated = set(enumerate_separations(dia, (n // 2, (n + 1) // 2)))
        for step in trace.steps:
            assert step.separation in enumerated
            assert step.newly_separated_pairs
        # refinement must finish: every label pair split by some separation
        for x, y in combinations(sorted(dia.labels()), 2):
            assert any((x in s.side_a) != (y in s.side_a) for s in seps)


def test_schedule_blocks_delegates_at_eight():
    dia = diagram_of(8, 4, seed=901)
    assert schedule_blocks(dia).to_json_obj() == schedule_eight(dia).to_json_obj()


def test_schedule_blocks_progress_certificates_random():
    for trial in range(6):
        n = 9 + trial % 2
        dia = diagram_of(n, n - 4, seed=950 + trial)
        trace = schedule_blocks(dia)
        seen = []
        for step in trace.steps:
            for x, y in step.newly_separated_pairs:
                assert (x in step.separation.side_a) != (y in step.separation.side_a)
                for prior in seen:
                    assert (x in prior.side_a) == (y in prior.side_a)
            seen.append(step.separation)
        assert len(seen) >= math.floor(math.log2(n))


def test_schedule_blocks_shape_errors():
    with pytest.raises(InvalidInputError):
        schedule_blocks(diagram_of(7, 3))


def test_trace_json_shape():
    trace = schedule_eight(diagram_of(8, 4))
    obj = trace.to_json_obj()
    assert obj["case_taken"] == "case_ii"
    assert len(obj["steps"]) == 4
    step = obj["steps"][0]
    assert set(step) == {"coloring", "separation", "new_pairs", "kind", "note"}
    assert step["coloring"]["c3_origin"] is True
