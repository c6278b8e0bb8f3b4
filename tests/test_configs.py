import json
import random
import tempfile
from fractions import Fraction
from itertools import combinations
from math import comb
from pathlib import Path

import pytest
from hypothesis import event, given, settings, strategies as st

import galecross.configs
from conftest import config_from
from oracles import fraction_affine_sign, fraction_degenerate_subset
from galecross import (
    GaleDiagram,
    LabeledPoint,
    PointConfig,
    SimplexPair,
    count_crossing_pairs,
    find_degenerate_subset,
    gale_transform,
    is_general_position,
    lift_odd,
    moment_curve_config,
    random_config,
)
from galecross.errors import InvalidInputError, RetryLimitError
from galecross.jsonio import canonical_dumps


def test_config_validation():
    with pytest.raises(InvalidInputError):
        PointConfig(0, ())
    with pytest.raises(InvalidInputError):
        config_from(2, [("p1", (0, 0)), ("p1", (1, 1))])
    with pytest.raises(InvalidInputError):
        config_from(2, [("p1", (0, 0, 0))])


def test_subset_preserves_order(cyclic_square):
    sub = cyclic_square.subset(["p3", "p1"])
    assert sub.labels() == ("p1", "p3")
    with pytest.raises(InvalidInputError):
        cyclic_square.subset(["p9"])


def test_config_id_frozen():
    assert moment_curve_config(4, 2).config_id() == "n4d2-d2de0f971d0a"


def test_moment_curve_general_position():
    for n, d in [(6, 3), (8, 4), (10, 5), (12, 6)]:
        cfg = moment_curve_config(n, d)
        assert cfg.labels() == tuple(f"p{t}" for t in range(1, n + 1))
        assert cfg.coords("p2")[0] == 2
        assert is_general_position(cfg)
    with pytest.raises(InvalidInputError):
        moment_curve_config(0, 2)


def test_random_config_deterministic():
    a = random_config(5, 2, seed=7, coord_range=10)
    b = random_config(5, 2, seed=7, coord_range=10)
    assert a == b
    assert a.config_id() == "n5d2-d7e5ea9063da"
    assert all(abs(c) <= 10 for p in a.points for c in p.coords)
    assert is_general_position(a)


def test_random_config_seed_changes_output():
    assert random_config(5, 2, seed=7, coord_range=10) != random_config(
        5, 2, seed=8, coord_range=10
    )


def test_random_config_validation():
    with pytest.raises(InvalidInputError):
        random_config(2, 2, seed=0, coord_range=10)
    with pytest.raises(InvalidInputError):
        random_config(5, 2, seed=0, coord_range=0)


def test_random_config_retry_limit():
    # 10 points need to be distinct; a range-1 grid in the plane has only 9
    with pytest.raises(RetryLimitError):
        random_config(10, 2, seed=0, coord_range=1)


def test_degenerate_subset_detection(triangle_with_center):
    assert find_degenerate_subset(triangle_with_center) is None
    collinear = config_from(2, [("p1", (0, 0)), ("p2", (1, 1)), ("p3", (2, 2)), ("p4", (5, 0))])
    assert not is_general_position(collinear)
    assert find_degenerate_subset(collinear) == ("p1", "p2", "p3")


def test_general_position_affine_invariant():
    rng = random.Random(21)
    cfg = random_config(6, 2, seed=3, coord_range=20)
    for _ in range(5):
        while True:
            m = [[rng.randint(-3, 3) for _ in range(2)] for _ in range(2)]
            if m[0][0] * m[1][1] - m[0][1] * m[1][0] != 0:
                break
        shift = [rng.randint(-9, 9) for _ in range(2)]
        mapped = config_from(
            2,
            [
                (
                    p.label,
                    tuple(
                        sum(m[i][j] * p.coords[j] for j in range(2)) + shift[i]
                        for i in range(2)
                    ),
                )
                for p in cfg.points
            ],
        )
        assert is_general_position(mapped)


def test_general_position_scanned_once_per_config(monkeypatch):
    # gale_transform and count_crossing_pairs both require general position;
    # on one configuration instance the C(n, d+1) determinants are made once
    calls = _counting_det(monkeypatch)
    cfg = moment_curve_config(6, 2)
    gale_transform(cfg)
    count_crossing_pairs(cfg, 2, 2)
    assert find_degenerate_subset(cfg) is None
    assert len(calls) == comb(6, 3)
    collinear = config_from(2, [("p1", (0, 0)), ("p2", (1, 1)), ("p3", (2, 2)), ("p4", (5, 0))])
    calls.clear()
    for _ in range(3):
        assert find_degenerate_subset(collinear) == ("p1", "p2", "p3")
    assert len(calls) == 1


# a small pool of coordinates of either sign and mixed denominators, so that
# repeated values make collinear and coplanar subsets common
COORD_POOL = [
    Fraction(v) for v in ("-2", "-3/2", "-1", "-2/3", "-1/2", "0", "1/3", "1/2", "1", "3/2", "2")
]


@st.composite
def pooled_configs(draw):
    """A fresh configuration of d+1..d+4 points in R^d, d in 1..4, with labels
    whose lexicographic order differs from the point order."""
    d = draw(st.integers(1, 4))
    n = draw(st.integers(d + 1, d + 4))
    labels = draw(st.permutations([f"p{i}" for i in range(1, n + 1)]))
    rows = draw(
        st.lists(st.tuples(*[st.sampled_from(COORD_POOL)] * d), min_size=n, max_size=n)
    )
    return PointConfig(d, tuple(LabeledPoint(lab, row) for lab, row in zip(labels, rows)))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(pooled_configs())
def test_integer_scan_matches_fraction_rank_oracle(cfg):
    # the scan's d x d determinants of differences on int coordinates against
    # the Fraction rank of every affine (d+1)-subset
    want = fraction_degenerate_subset(
        [(p.label, p.coords) for p in cfg.points], cfg.dimension
    )
    event("degenerate" if want else "general position")
    assert find_degenerate_subset(cfg) == want


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(pooled_configs())
def test_orientation_matches_fraction_affine_sign(cfg):
    # every (d+1)-subset's sign, (-1)^d times the affine determinant's: read
    # from the scan on one instance and computed on demand on a fresh one,
    # where the scan stops at a degenerate subset or has not run
    scanned = PointConfig(cfg.dimension, cfg.points)
    find_degenerate_subset(scanned)
    d = cfg.dimension
    for key in combinations(sorted(cfg.labels()), d + 1):
        want = (-1) ** d * fraction_affine_sign([cfg.coords(lab) for lab in key])
        assert cfg.orientation(key) == scanned.orientation(key) == want


def test_orientation_refuses_malformed_keys():
    # d+1 distinct known labels, or a typed error; nothing is kept
    square = moment_curve_config(4, 2)
    for key in [("p1", "p2"), ("p1", "p2", "p3", "p4"), ("p1", "p1", "p2"), ()]:
        with pytest.raises(InvalidInputError, match="3 distinct labels"):
            square.orientation(key)
    with pytest.raises(InvalidInputError, match="unknown"):
        square.orientation(("p1", "p2", "zz"))
    # an unsorted key is the sign of the points in its own order
    assert square.orientation(("p2", "p1", "p3")) == -square.orientation(("p1", "p2", "p3")) != 0


def _counting_det(monkeypatch):
    calls = []
    det = galecross.configs.int_det

    def counting_det(rows):
        calls.append(rows)
        return det(rows)

    monkeypatch.setattr(galecross.configs, "int_det", counting_det)
    return calls


def test_subset_of_general_position_config_makes_no_det_call(monkeypatch):
    calls = _counting_det(monkeypatch)
    cfg = moment_curve_config(8, 3)
    unscanned = cfg.subset(["p1", "p3", "p4", "p6", "p8"])
    assert is_general_position(cfg)
    assert len(calls) == comb(8, 4)
    calls.clear()
    sub = cfg.subset(["p2", "p3", "p5", "p7", "p8"])
    assert find_degenerate_subset(sub) is None
    # its orientation signs are the parent's, kept by the parent's scan
    for key in combinations(sorted(sub.labels()), 4):
        assert sub.orientation(key) == cfg.orientation(key) != 0
    count_crossing_pairs(sub, 2, 3)
    assert calls == []
    # a subset taken before the parent's scan still scans on its own, but it
    # shares the parent's signs, and the parent's scan has made all of them
    assert is_general_position(unscanned)
    assert calls == []


def test_subset_of_degenerate_config_still_scans(monkeypatch):
    calls = _counting_det(monkeypatch)
    collinear = config_from(
        2, [("p1", (0, 0)), ("p2", (1, 1)), ("p3", (2, 2)), ("p4", (5, 0)), ("p5", (0, 3))]
    )
    assert find_degenerate_subset(collinear) == ("p1", "p2", "p3")
    calls.clear()
    sub = collinear.subset(["p1", "p2", "p4", "p5"])
    assert find_degenerate_subset(sub) is None
    assert len(calls) == comb(4, 3)
    assert find_degenerate_subset(collinear.subset(["p1", "p3", "p2"])) == ("p1", "p2", "p3")


def test_unknown_labels_raise_invalid_input(cyclic_square):
    dia = gale_transform(moment_curve_config(6, 2))
    for label in ("p9", "", ["p1"]):
        with pytest.raises(InvalidInputError, match="unknown"):
            cyclic_square.coords(label)
        with pytest.raises(InvalidInputError, match="unknown"):
            dia.vector(label)
    with pytest.raises(InvalidInputError, match="unknown"):
        cyclic_square.int_coords("p9")


def test_lift_odd_shape():
    cfg = moment_curve_config(5, 3)
    lifted = lift_odd(cfg)
    assert lifted.dimension == 4
    assert lifted.n == 6
    assert lifted.labels()[-1] == "dummy"
    assert lifted.coords("p2") == cfg.coords("p2") + (Fraction(0),)
    assert lifted.coords("dummy") == (0, 0, 0, 1)


def test_lift_odd_general_position_boundary():
    # a full simplex stays in general position, anything larger cannot:
    # d+2 lifted originals share the hyperplane added by the lift
    assert is_general_position(lift_odd(moment_curve_config(4, 3)))
    lifted = lift_odd(moment_curve_config(5, 3))
    assert find_degenerate_subset(lifted) == ("p1", "p2", "p3", "p4", "p5")


def test_lift_odd_label_collision():
    cfg = config_from(1, [("dummy", (0,)), ("p2", (1,))])
    with pytest.raises(InvalidInputError):
        lift_odd(cfg)


def test_save_load_round_trip(tmp_path):
    cfg = moment_curve_config(6, 3)
    path = tmp_path / "pts.json"
    cfg.save(str(path))
    first = path.read_bytes()
    loaded = PointConfig.load(str(path))
    assert loaded == cfg
    loaded.save(str(path))
    assert path.read_bytes() == first
    assert first.endswith(b"\n")


@st.composite
def point_and_diagram_files(draw):
    """A point configuration or a diagram with arbitrary distinct string
    labels (non-ASCII and empty ones included) and rational coordinates of
    either sign with arbitrary denominators."""
    width = draw(st.integers(1, 4))
    n = draw(st.integers(width + 1, width + 5))
    labels = draw(st.lists(st.text(max_size=6), min_size=n, max_size=n, unique=True))
    coord = st.fractions(max_denominator=10**6)
    rows = draw(st.lists(st.tuples(*[coord] * width), min_size=n, max_size=n))
    points = tuple(LabeledPoint(lab, row) for lab, row in zip(labels, rows))
    if draw(st.booleans()):
        return PointConfig(width, points)
    return GaleDiagram(width, n - width - 1, points)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(point_and_diagram_files())
def test_canonical_json_round_trip(obj):
    kind = type(obj)
    text = canonical_dumps(obj.to_json_obj())
    back = kind.from_json_obj(json.loads(text))
    assert back == obj
    assert canonical_dumps(back.to_json_obj()) == text
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "file.json")
        obj.save(path)
        assert Path(path).read_text() == text
        loaded = kind.load(path)
    assert loaded == obj
    if kind is PointConfig:
        assert back.config_id() == loaded.config_id() == obj.config_id()


def test_load_malformed(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"points": [{"label": "p1"}]}')
    with pytest.raises(InvalidInputError):
        PointConfig.load(str(path))


def test_simplex_pair_canonical_order():
    pair = SimplexPair(frozenset({"p7", "p9"}), frozenset({"p2", "p8"}))
    assert pair.left == frozenset({"p2", "p8"})
    assert pair.right == frozenset({"p7", "p9"})
    assert pair == SimplexPair(frozenset({"p2", "p8"}), frozenset({"p7", "p9"}))
    assert pair.sizes() == (2, 2)
    assert pair.to_json_obj() == {"left": ["p2", "p8"], "right": ["p7", "p9"]}


def test_simplex_pair_validation():
    with pytest.raises(InvalidInputError):
        SimplexPair(frozenset({"p1"}), frozenset({"p1", "p2"}))
    with pytest.raises(InvalidInputError):
        SimplexPair(frozenset(), frozenset({"p1"}))
