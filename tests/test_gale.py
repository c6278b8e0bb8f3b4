import random
import re
import sys
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest
from hypothesis import event, given, settings, strategies as st

import galecross.configs
import galecross.gale
from conftest import config_from, oracle_realizable
from galecross import (
    GaleDiagram,
    LabeledPoint,
    LinearSeparation,
    PointConfig,
    SimplexPair,
    enumerate_separations,
    gale_transform,
    is_general_position,
    moment_curve_config,
    random_config,
    separation_classifies,
    separation_to_crossing,
    simplices_cross,
    verify_duality,
    verify_spanning,
)
from galecross.configs import draw_config
from galecross.errors import InvalidInputError
from oracles import fraction_degenerate_subset, fraction_kernel_basis, fraction_rref

F = Fraction


def test_square_diagrams_frozen(zigzag_square, cyclic_square):
    zig = gale_transform(zigzag_square)
    assert (zig.m, zig.source_d) == (1, 2)
    assert [v.coords for v in zig.vectors] == [(F(1),), (F(-1),), (F(-1),), (F(1),)]
    cyc = gale_transform(cyclic_square)
    assert [v.coords for v in cyc.vectors] == [(F(-1),), (F(1),), (F(-1),), (F(1),)]


def test_moment63_diagram_frozen():
    dia = gale_transform(moment_curve_config(6, 3))
    assert dia.m == 2
    expected = {
        "p1": (F(1), F(4)),
        "p2": (F(-4), F(-15)),
        "p3": (F(6), F(20)),
        "p4": (F(-4), F(-10)),
        "p5": (F(1), F(0)),
        "p6": (F(0), F(1)),
    }
    assert {v.label: v.coords for v in dia.vectors} == expected
    assert verify_spanning(dia)


def test_diagram_tail_is_identity():
    # canonical kernel basis: with the moment curve the pivots sit on the
    # first d+1 columns, so the trailing m vectors come out as the identity
    dia = gale_transform(moment_curve_config(8, 4))
    m = dia.m
    tail = [dia.vector(f"p{8 - m + 1 + i}") for i in range(m)]
    for i, vec in enumerate(tail):
        assert vec == tuple(F(1) if j == i else F(0) for j in range(m))


def test_transform_invariants_random():
    rng = random.Random(31)
    for trial in range(15):
        d = rng.choice([2, 3, 4])
        n = d + rng.choice([2, 3, 4])
        cfg = random_config(n, d, seed=100 + trial, coord_range=40)
        dia = gale_transform(cfg)
        assert dia.m == n - d - 1
        zero = (F(0),) * dia.m
        assert tuple(map(sum, zip(*(v.coords for v in dia.vectors)))) == zero
        for k in range(d):
            dot = [
                sum(cfg.coords(lab)[k] * dia.vector(lab)[j] for lab in cfg.labels())
                for j in range(dia.m)
            ]
            assert tuple(dot) == zero
        assert verify_spanning(dia)


def test_transform_errors():
    with pytest.raises(InvalidInputError):
        gale_transform(moment_curve_config(4, 3))
    collinear = config_from(
        2, [("p1", (0, 0)), ("p2", (1, 1)), ("p3", (2, 2)), ("p4", (5, 0)), ("p5", (0, 3))]
    )
    with pytest.raises(InvalidInputError, match=r"\['p1', 'p2', 'p3'\]"):
        gale_transform(collinear)


def test_diagram_validation():
    v = LabeledPoint("g1", (F(1),))
    # m + source_d + 1 = 4 vectors, so each case reaches the check it names
    rest = tuple(LabeledPoint(lab, (F(1),)) for lab in ("g3", "g4"))
    with pytest.raises(InvalidInputError, match="duplicate diagram labels"):
        GaleDiagram(1, 2, (v, v) + rest)
    with pytest.raises(InvalidInputError, match="row g2 has 2 coords, expected 1"):
        GaleDiagram(1, 2, (v, LabeledPoint("g2", (F(1), F(2)))) + rest)
    with pytest.raises(InvalidInputError, match="vector count must equal m"):
        GaleDiagram(2, 2, (v,))
    pair = (LabeledPoint("g1", (F(1), F(0), F(0))), LabeledPoint("g2", (F(2), F(0), F(0))))
    with pytest.raises(InvalidInputError, match="source_d"):
        GaleDiagram(3, -2, pair)  # fewer vectors than the dimension m
    assert GaleDiagram(1, 0, (v, LabeledPoint("g2", (F(-1),)))).source_d == 0


def test_diagram_row_checks():
    v = LabeledPoint("g1", (F(1),))
    with pytest.raises(InvalidInputError, match="m must be >= 1"):
        GaleDiagram(0, 1, (LabeledPoint("g1", ()), LabeledPoint("g2", ())))
    with pytest.raises(InvalidInputError, match="duplicate diagram labels"):
        GaleDiagram(1, 0, (v, v))
    with pytest.raises(InvalidInputError, match="g2"):
        GaleDiagram(1, 0, (v, LabeledPoint("g2", (F(1), F(2)))))


def test_diagram_round_trip(tmp_path):
    dia = gale_transform(moment_curve_config(6, 3))
    path = tmp_path / "dia.json"
    dia.save(str(path))
    assert GaleDiagram.load(str(path)) == dia
    first = path.read_bytes()
    GaleDiagram.load(str(path)).save(str(path))
    assert path.read_bytes() == first


def test_duality_random_and_degenerate():
    for trial in range(10):
        cfg = random_config(6, 3, seed=200 + trial, coord_range=25)
        assert verify_duality(cfg)
    collinear = config_from(
        2, [("p1", (0, 0)), ("p2", (1, 1)), ("p3", (2, 2)), ("p4", (5, 0)), ("p5", (0, 3))]
    )
    assert verify_duality(collinear)
    flat = config_from(2, [("p1", (0, 0)), ("p2", (1, 0)), ("p3", (2, 0)), ("p4", (3, 0))])
    assert verify_duality(flat)  # does not even span; both sides false
    with pytest.raises(InvalidInputError):
        verify_duality(moment_curve_config(4, 3))


def test_separation_canonicalization():
    sep = LinearSeparation(
        frozenset({"p2", "p3"}), frozenset({"p1", "p4"}), (F(1),), ((("p9"), 1),)
    )
    assert min(sep.side_a) == "p1"
    assert sep.witness_normal == (F(-1),)
    assert sep.witness_shifts == (("p9", -1),)
    same = LinearSeparation(frozenset({"p1", "p4"}), frozenset({"p2", "p3"}), (F(7),))
    assert sep == same and hash(sep) == hash(same)
    assert sep.sizes() == (2, 2)


def test_separation_validation():
    with pytest.raises(InvalidInputError):
        LinearSeparation(frozenset(), frozenset({"p1"}), (F(1),))
    with pytest.raises(InvalidInputError):
        LinearSeparation(frozenset({"p1"}), frozenset({"p1", "p2"}), (F(1),))


def test_classifies_and_realizable(zigzag_square):
    dia = gale_transform(zigzag_square)
    good = LinearSeparation(frozenset({"p1", "p4"}), frozenset({"p2", "p3"}), (F(1),))
    assert separation_classifies(dia, good)
    assert oracle_realizable(dia, good)
    # mixed signs on one side: no witness normal exists in rank 1
    bad = LinearSeparation(frozenset({"p1", "p2"}), frozenset({"p3", "p4"}), (F(1),))
    assert not separation_classifies(dia, bad)
    assert not oracle_realizable(dia, bad)


def test_classifies_rejects_unlisted_on_plane_vector():
    dia = GaleDiagram(
        2,
        1,
        (
            LabeledPoint("g1", (F(1), F(0))),
            LabeledPoint("g2", (F(-1), F(1))),
            LabeledPoint("g3", (F(0), F(-1))),
            LabeledPoint("g4", (F(0), F(1))),
        ),
    )
    sep = LinearSeparation(frozenset({"g1", "g4"}), frozenset({"g2", "g3"}), (F(1), F(0)))
    # g3 and g4 sit on the plane of the stored normal but have no shift entry
    assert not separation_classifies(dia, sep)
    listed = LinearSeparation(
        frozenset({"g1", "g4"}),
        frozenset({"g2", "g3"}),
        (F(1), F(0)),
        (("g3", -1), ("g4", 1)),
    )
    assert separation_classifies(dia, listed)
    assert oracle_realizable(dia, listed)


def test_classifies_rejects_shift_of_off_plane_vector(zigzag_square):
    dia = gale_transform(zigzag_square)
    listed = LinearSeparation(
        frozenset({"p1", "p4"}), frozenset({"p2", "p3"}), (F(1),), (("p1", 1),)
    )
    # p1 is strictly on the positive side, so it has no business in the shifts
    assert not separation_classifies(dia, listed)


def test_separation_to_crossing(zigzag_square):
    dia = gale_transform(zigzag_square)
    sep = LinearSeparation(frozenset({"p1", "p4"}), frozenset({"p2", "p3"}), (F(1),))
    pair = separation_to_crossing(dia, sep)
    assert pair == SimplexPair(frozenset({"p1", "p4"}), frozenset({"p2", "p3"}))
    assert simplices_cross(zigzag_square, pair.left, pair.right) is not None


def test_separation_to_crossing_errors(zigzag_square):
    dia = gale_transform(zigzag_square)
    with pytest.raises(InvalidInputError, match="labels"):
        separation_to_crossing(
            dia, LinearSeparation(frozenset({"p1"}), frozenset({"p2", "p3"}), (F(1),))
        )
    dia6 = gale_transform(moment_curve_config(6, 3))
    lop = LinearSeparation(
        frozenset({"p2", "p4"}), frozenset({"p1", "p3", "p5", "p6"}), (F(1), F(0))
    )
    with pytest.raises(InvalidInputError, match="proper"):
        separation_to_crossing(dia6, lop)
    unreal = LinearSeparation(frozenset({"p1", "p2"}), frozenset({"p3", "p4"}), (F(1),))
    with pytest.raises(InvalidInputError, match="realizable"):
        separation_to_crossing(dia, unreal)


# small values of either sign and mixed denominators, so that repeated values
# make dependent subsets common
COORD_POOL = [F(v) for v in ("-2", "-3/2", "-1", "-1/2", "0", "1/3", "1", "3/2", "2", "5")]


@st.composite
def transform_inputs(draw):
    """A fresh configuration of d+m+1 points in R^d with d in 1..5 and m in
    1..3, so that both m < d and m >= d occur, labeled in a shuffled order.
    Some draws put every point on one hyperplane (a shared last coordinate),
    so that the points do not affinely span R^d."""
    d = draw(st.integers(1, 5))
    n = d + draw(st.integers(1, 3)) + 1
    labels = draw(st.permutations([f"p{i}" for i in range(1, n + 1)]))
    rows = draw(
        st.lists(st.tuples(*[st.sampled_from(COORD_POOL)] * d), min_size=n, max_size=n)
    )
    if draw(st.integers(0, 4)) == 0:
        level = draw(st.sampled_from(COORD_POOL))
        rows = [row[:-1] + (level,) for row in rows]
    return PointConfig(d, tuple(LabeledPoint(lab, row) for lab, row in zip(labels, rows)))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(transform_inputs())
def test_transform_accepts_exactly_general_position(cfg):
    # the diagram side (m < d) and the point side (m >= d) against the
    # Fraction rank of every affine (d+1)-subset
    n, d = cfg.n, cfg.dimension
    want = fraction_degenerate_subset([(p.label, p.coords) for p in cfg.points], d)
    flat = len(fraction_rref([[*p.coords, 1] for p in cfg.points])[1]) < d + 1
    kind = "flat" if flat else "degenerate" if want else "general position"
    event(f"{'m < d' if n - d - 1 < d else 'm >= d'}, {kind}")
    if want is None:
        dia = gale_transform(cfg)
        lift = [[p.coords[k] for p in cfg.points] for k in range(d)] + [[1] * n]
        basis = fraction_kernel_basis(lift, n)
        assert dia.m == n - d - 1 == len(basis)
        assert [v.coords for v in dia.vectors] == [tuple(b[i] for b in basis) for i in range(n)]
    else:
        with pytest.raises(InvalidInputError, match=re.escape(f"subset {list(want)}")):
            gale_transform(cfg)


@st.composite
def rational_diagrams(draw):
    """Diagrams with m in 1..4, rational coordinates and small values, so
    that dependent m-subsets are common."""
    m = draw(st.integers(1, 4))
    n = m + draw(st.integers(0, 3)) + 1
    coord = st.integers(-2, 2).map(F) | st.fractions(-3, 3, max_denominator=6)
    rows = draw(st.lists(st.tuples(*[coord] * m), min_size=n, max_size=n))
    return GaleDiagram(
        m, n - m - 1, tuple(LabeledPoint(f"g{i + 1}", row) for i, row in enumerate(rows))
    )


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(rational_diagrams())
def test_spanning_matches_fraction_rank_oracle(dia):
    want = all(
        len(fraction_rref(rows)[1]) == dia.m
        for rows in combinations([v.coords for v in dia.vectors], dia.m)
    )
    event("spanning" if want else "not spanning")
    assert verify_spanning(dia) == want


def _counting(monkeypatch, module, name):
    calls = []
    fn = getattr(module, name)

    def counting(*args):
        calls.append(args)
        return fn(*args)

    monkeypatch.setattr(module, name, counting)
    return calls


def test_small_m_transform_leaves_point_scan_unset(monkeypatch):
    # 10 points in R^6 (m = 3): the diagram's 3 x 3 determinants decide
    # general position, in random_config and in gale_transform, and neither
    # stores a scan, so a later is_general_position still makes the affine
    # side's own determinants
    dets = _counting(monkeypatch, galecross.configs, "int_det")
    spans = _counting(monkeypatch, galecross.gale, "verify_spanning")
    drawn = random_config(10, 6, 3, 1000)
    assert len(spans) == 1  # the first draw is accepted
    spans.clear()
    cfg = PointConfig(drawn.dimension, drawn.points)
    assert gale_transform(cfg) == gale_transform(drawn)
    assert len(spans) == 2  # neither holds a scan, so both are checked
    assert dets == []
    assert not cfg._scanned() and not drawn._scanned()
    assert is_general_position(cfg)
    assert len(dets) == comb(10, 7)
    # m >= d: the point side decides, and the diagram is not checked
    spans.clear()
    gale_transform(moment_curve_config(7, 3))
    assert spans == []


@pytest.mark.parametrize("n, d, spread", [(7, 5, 1), (8, 5, 1), (10, 6, 2)])
def test_random_config_on_the_diagram_side_draws_what_the_points_accept(n, d, spread):
    # 1 <= m < d: random_config accepts a draw by the diagram's determinants;
    # it must accept exactly the draws the rank oracle calls general position
    # (these small ranges reject 14, 169 and 1 draws over the 12 seeds)
    for seed in range(12):
        rng = random.Random(seed)
        while True:
            want = draw_config(rng, n, d, spread)
            rows = [(p.label, p.coords) for p in want.points]
            if fraction_degenerate_subset(rows, d) is None:
                break
        got = random_config(n, d, seed, spread)
        assert got == want
        assert not got._scanned()


@pytest.mark.parametrize("n, d", [(4, 3), (7, 3), (8, 2)])
def test_random_config_keeps_the_point_scan_unless_m_is_below_d(n, d):
    # m = 0 has no diagram, and m >= d makes the point side the smaller one
    assert random_config(n, d, 5, 3)._scanned()


def test_diagram_clears_its_vectors_once(monkeypatch):
    # verify_spanning, enumerate_separations and separation_to_crossing all
    # read one int form per diagram instance
    cfg = random_config(8, 4, 5, 1000)
    dia = GaleDiagram.from_json_obj(gale_transform(cfg).to_json_obj())
    assert any(x.denominator > 1 for v in dia.vectors for x in v.coords)
    vectors = [v.coords for v in dia.vectors]
    calls = []
    for module in [m for key, m in sys.modules.items() if key.startswith("galecross.")]:
        clear = getattr(module, "clear_denominators", None)
        if clear is None:
            continue

        def counting(rows, clear=clear):
            if any(row is v for row in rows for v in vectors):
                calls.append(rows)
            return clear(rows)

        monkeypatch.setattr(module, "clear_denominators", counting)
    assert verify_spanning(dia)
    seps = enumerate_separations(dia, (4, 4))
    assert seps == enumerate_separations(dia, (4, 4))
    for sep in seps:
        separation_to_crossing(dia, sep)
    assert len(calls) == 1
