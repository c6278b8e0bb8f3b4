import random
from fractions import Fraction

import pytest

from conftest import config_from
from galecross import (
    GaleDiagram,
    LabeledPoint,
    LinearSeparation,
    SimplexPair,
    gale_transform,
    is_realizable,
    moment_curve_config,
    random_config,
    separation_classifies,
    separation_to_crossing,
    simplices_cross,
    verify_duality,
    verify_spanning,
)
from galecross.errors import InvalidInputError

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
    with pytest.raises(InvalidInputError):
        GaleDiagram(1, 2, (v,) * 2)  # duplicate labels
    with pytest.raises(InvalidInputError):
        GaleDiagram(1, 2, (v, LabeledPoint("g2", (F(1), F(2)))))
    with pytest.raises(InvalidInputError):
        GaleDiagram(2, 2, (v,))
    pair = (LabeledPoint("g1", (F(1), F(0), F(0))), LabeledPoint("g2", (F(2), F(0), F(0))))
    with pytest.raises(InvalidInputError, match="source_d"):
        GaleDiagram(3, -2, pair)  # fewer vectors than the dimension m
    assert GaleDiagram(1, 0, (v, LabeledPoint("g2", (F(-1),)))).source_d == 0


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
    assert is_realizable(dia, good)
    # mixed signs on one side: no witness normal exists in rank 1
    bad = LinearSeparation(frozenset({"p1", "p2"}), frozenset({"p3", "p4"}), (F(1),))
    assert not separation_classifies(dia, bad)
    assert not is_realizable(dia, bad)


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
    assert is_realizable(dia, listed)


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
