import random
from dataclasses import replace
from fractions import Fraction
from unittest.mock import patch

import pytest
from hypothesis import event, given, settings, strategies as st

import galecross.crossing
import galecross.lp
import oracles
from conftest import config_from, with_pivots
from galecross import (
    LabeledPoint,
    PointConfig,
    SimplexPair,
    count_crossing_pairs,
    extend_crossing,
    is_general_position,
    lift_odd,
    moment_curve_config,
    random_config,
    simplices_cross,
    vkf_find,
)
from galecross.crossing import _disjoint_pairs, crossing_pair_set, disjoint_pair_count
from galecross.errors import InvalidInputError, TheoremViolationError
from oracles import OPTIMAL, fm_crossing, fraction_simplex_max, pascal, planar_crossing_count

F = Fraction


def test_disjoint_pair_count_matches_enumeration():
    # the one (p,q)-pair count behind the count and vkf work budgets
    for n in range(2, 9):
        config = config_from(1, [(f"p{i}", (i,)) for i in range(n)])
        for p in range(1, n):
            for q in range(1, n - p + 1):
                pairs = list(_disjoint_pairs(config, p, q))
                assert len(set(pairs)) == len(pairs)
                assert disjoint_pair_count(n, p, q) == len(pairs), (n, p, q)


def test_square_diagonals_witness(cyclic_square):
    w = simplices_cross(cyclic_square, ["p1", "p3"], ["p2", "p4"])
    assert w is not None
    assert w.point == (F(1, 2), F(1, 2))
    assert w.left_coeffs == (F(1, 2), F(1, 2))
    assert w.right_coeffs == (F(1, 2), F(1, 2))
    assert w.validate(cyclic_square)


def test_validate_refuses_wrong_coefficient_count(cyclic_square):
    w = simplices_cross(cyclic_square, ["p1", "p3"], ["p2", "p4"])
    assert not replace(w, left_coeffs=w.left_coeffs[:1]).validate(cyclic_square)
    assert not replace(w, right_coeffs=w.right_coeffs + (F(0),)).validate(cyclic_square)


def test_square_edges_do_not_cross(cyclic_square):
    assert simplices_cross(cyclic_square, ["p1", "p2"], ["p3", "p4"]) is None
    assert simplices_cross(cyclic_square, ["p1", "p4"], ["p2", "p3"]) is None


def test_boundary_touch_is_not_crossing():
    # the segments meet only at (1,0), an endpoint of the second: the
    # optimum margin is exactly zero and strictness must reject it
    cfg = config_from(2, [("p1", (0, 0)), ("p2", (2, 0)), ("p3", (1, 0)), ("p4", (1, 1))])
    assert simplices_cross(cfg, ["p1", "p2"], ["p3", "p4"]) is None


def test_point_inside_triangle_crosses():
    cfg = config_from(2, [("p1", (0, 0)), ("p2", (4, 0)), ("p3", (0, 4)), ("p4", (1, 1))])
    w = simplices_cross(cfg, ["p1", "p2", "p3"], ["p4"])
    assert w is not None
    assert w.point == (F(1), F(1))
    assert w.right_coeffs == (F(1),)


def test_shared_vertex_rejected(cyclic_square):
    with pytest.raises(InvalidInputError, match="shared"):
        simplices_cross(cyclic_square, ["p1", "p2"], ["p2", "p3"])
    with pytest.raises(InvalidInputError):
        simplices_cross(cyclic_square, [], ["p1"])


def test_crossing_symmetric():
    rng = random.Random(41)
    for trial in range(10):
        cfg = random_config(6, 3, seed=300 + trial, coord_range=30)
        labels = list(cfg.labels())
        rng.shuffle(labels)
        left, right = labels[:3], labels[3:]
        a = simplices_cross(cfg, left, right)
        b = simplices_cross(cfg, right, left)
        assert (a is None) == (b is None)
        if a is not None:
            assert a.pair == b.pair
            assert a.point == b.point


def test_crossing_affine_invariant():
    rng = random.Random(42)
    cfg = random_config(6, 2, seed=77, coord_range=20)
    pairs = [(("p1", "p2", "p3"), ("p4", "p5", "p6")), (("p1", "p4"), ("p2", "p5"))]
    verdicts = [simplices_cross(cfg, l, r) is not None for l, r in pairs]
    for _ in range(4):
        while True:
            m = [[rng.randint(-3, 3) for _ in range(2)] for _ in range(2)]
            if m[0][0] * m[1][1] - m[0][1] * m[1][0] != 0:
                break
        shift = [rng.randint(-5, 5) for _ in range(2)]
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
        assert [simplices_cross(mapped, l, r) is not None for l, r in pairs] == verdicts


def test_crossing_agrees_with_fourier_motzkin():
    rng = random.Random(43)
    done = 0
    while done < 25:
        d = rng.choice([2, 3])
        n = rng.randint(d + 2, 7)
        cfg = random_config(n, d, seed=400 + done, coord_range=30)
        labels = list(cfg.labels())
        rng.shuffle(labels)
        nl = rng.randint(1, 3)
        nr = rng.randint(1, min(3, 6 - nl))
        if nl + nr > n:
            continue
        left, right = labels[:nl], labels[nl : nl + nr]
        verdict, _ = fm_crossing(
            [cfg.coords(x) for x in left], [cfg.coords(x) for x in right]
        )
        assert verdict == (simplices_cross(cfg, left, right) is not None)
        done += 1


def test_moment_6_3_count_frozen():
    cc = count_crossing_pairs(moment_curve_config(6, 3), 3, 3, keep_witnesses=True)
    assert cc.total_pairs_checked == 10
    assert cc.crossing_pairs == 3
    pairs = {
        (tuple(sorted(w.pair.left)), tuple(sorted(w.pair.right))) for w in cc.witnesses
    }
    assert pairs == {
        (("p1", "p3", "p5"), ("p2", "p4", "p6")),
        (("p1", "p3", "p6"), ("p2", "p4", "p5")),
        (("p1", "p4", "p6"), ("p2", "p3", "p5")),
    }
    assert all(w.validate(moment_curve_config(6, 3)) for w in cc.witnesses)


def test_moment_8_4_count_frozen():
    cc = count_crossing_pairs(moment_curve_config(8, 4), 4, 4)
    assert cc.total_pairs_checked == 35
    assert cc.crossing_pairs == 13


def test_quadrilateral_counts(cyclic_square, zigzag_square, triangle_with_center):
    assert count_crossing_pairs(cyclic_square, 2, 2).crossing_pairs == 1
    assert count_crossing_pairs(zigzag_square, 2, 2).crossing_pairs == 1
    assert count_crossing_pairs(triangle_with_center, 2, 2).crossing_pairs == 0


def test_count_matches_orientation_oracle():
    for trial in range(8):
        n = 4 + trial % 4
        cfg = random_config(n, 2, seed=500 + trial, coord_range=60)
        cc = count_crossing_pairs(cfg, 2, 2)
        pts = [(p.label, tuple(p.coords)) for p in cfg.points]
        assert cc.crossing_pairs == planar_crossing_count(pts)
        assert cc.total_pairs_checked == pascal(n, 2) * pascal(n - 2, 2) // 2


def _no_witness(*args, **kwargs):
    raise AssertionError("a CrossingWitness was built")


def test_plain_count_builds_no_witness_and_solves_one_lp_per_crossing_pair(monkeypatch):
    # a count without witnesses takes each verdict from the LP and its
    # integer certificate alone; a separating hyperplane decides every
    # non-crossing (2,2)-pair, so exactly the crossing pairs reach the LP
    calls = []
    simplex_max = galecross.lp.simplex_max

    def counting(*args):
        calls.append(args)
        return simplex_max(*args)

    monkeypatch.setattr(galecross.lp, "simplex_max", counting)
    monkeypatch.setattr(galecross.crossing, "CrossingWitness", _no_witness)
    cfg = random_config(8, 2, 9173, 1000)
    count = count_crossing_pairs(cfg, 2, 2)
    assert (count.total_pairs_checked, count.crossing_pairs, count.witnesses) == (210, 49, ())
    assert count.crossing_pairs == planar_crossing_count([(p.label, p.coords) for p in cfg.points])
    assert len(calls) == count.crossing_pairs
    assert len(crossing_pair_set(cfg, 2, 2)) == count.crossing_pairs
    assert len(calls) == 2 * count.crossing_pairs


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_verdicts_equal_witnesses(data):
    # the count-only verdicts and the crossing pair set agree with the kept
    # witnesses pair for pair, inside and outside the size rule of _separated
    d = data.draw(st.integers(2, 4), label="d")
    size = d + data.draw(st.integers(1, 6), label="p+q-d")
    p = data.draw(st.integers(1, size - 1), label="p")
    q = size - p
    n = data.draw(st.integers(size, max(size, 8)), label="n")
    cfg = random_config(n, d, data.draw(st.integers(0, 10**6), label="seed"), 30)
    plain = count_crossing_pairs(cfg, p, q)
    kept = count_crossing_pairs(cfg, p, q, keep_witnesses=True)
    event(f"crossing pairs: {kept.crossing_pairs}")
    assert plain.total_pairs_checked == kept.total_pairs_checked
    assert plain.crossing_pairs == len(kept.witnesses) == kept.crossing_pairs
    assert crossing_pair_set(cfg, p, q) == {w.pair for w in kept.witnesses}


def test_count_rejects_degenerate():
    collinear = config_from(
        2, [("p1", (0, 0)), ("p2", (1, 1)), ("p3", (2, 2)), ("p4", (5, 0))]
    )
    with pytest.raises(InvalidInputError, match=r"\['p1', 'p2', 'p3'\]"):
        count_crossing_pairs(collinear, 2, 2)


def test_count_rejects_bad_sizes(cyclic_square):
    with pytest.raises(InvalidInputError):
        count_crossing_pairs(cyclic_square, 3, 2)
    with pytest.raises(InvalidInputError):
        count_crossing_pairs(cyclic_square, 0, 2)


def test_mixed_size_count_includes_both_orders():
    cfg = moment_curve_config(5, 2)
    cc = count_crossing_pairs(cfg, 1, 2)
    assert cc.total_pairs_checked == pascal(5, 1) * pascal(4, 2)


def test_vkf_planar():
    for trial in range(6):
        cfg = random_config(5, 2, seed=600 + trial, coord_range=40)
        w = vkf_find(cfg)
        assert w.pair.sizes() == (2, 2)
        assert w.validate(cfg)


def test_vkf_moment_7_4():
    w = vkf_find(moment_curve_config(7, 4))
    assert w.pair.sizes() == (3, 3)
    assert w.validate(moment_curve_config(7, 4))


def test_vkf_accepts_degenerate_input():
    # three collinear points among five: still must find a crossing pair
    cfg = config_from(
        2,
        [("p1", (0, 0)), ("p2", (2, 0)), ("p3", (4, 0)), ("p4", (1, 3)), ("p5", (2, -3))],
    )
    w = vkf_find(cfg)
    assert w.validate(cfg)


def test_vkf_lifted_config_excludes_apex():
    cfg = moment_curve_config(8, 5)
    lifted = lift_odd(cfg)
    w = vkf_find(lifted)
    used = set(w.pair.left) | set(w.pair.right)
    assert "dummy" not in used
    assert w.validate(lifted)
    # zero last coordinate means the witness lives in the original space
    assert w.point[-1] == 0
    back = simplices_cross(cfg, w.pair.left, w.pair.right)
    assert back is not None


def test_vkf_shape_errors():
    with pytest.raises(InvalidInputError):
        vkf_find(moment_curve_config(6, 4))
    with pytest.raises(InvalidInputError):
        vkf_find(moment_curve_config(6, 3))


def test_extend_identity():
    cfg = moment_curve_config(6, 3)
    w = simplices_cross(cfg, ["p1", "p3", "p5"], ["p2", "p4", "p6"])
    res = extend_crossing(cfg, w, 3)
    assert res.distributions_checked == 1
    assert res.witnesses == (w,)


def test_extend_counts_distributions():
    cfg = moment_curve_config(8, 4)
    w = vkf_find(cfg.subset([f"p{i}" for i in range(1, 8)]))
    res = extend_crossing(cfg, w, 4)
    spares = 8 - 6
    assert res.distributions_checked == pascal(spares, 1) * pascal(spares - 1, 1)
    for ww in res.witnesses:
        assert ww.pair.sizes() == (4, 4)
        assert ww.validate(cfg)


def test_extend_errors():
    cfg = moment_curve_config(6, 3)
    w = simplices_cross(cfg, ["p1", "p3", "p5"], ["p2", "p4", "p6"])
    with pytest.raises(InvalidInputError):
        extend_crossing(cfg, w, 2)
    with pytest.raises(InvalidInputError):
        extend_crossing(cfg, w, 4)


# mixed denominators and signs, so the pair's coordinates share no common
# denominator and the LP's integer rows are scaled by a nontrivial lcm; the
# small pool repeats values, which makes degenerate pairs whose optimal
# weights are not unique
RATIONAL_COORDS = st.sampled_from(
    [F(0), F(1), F(-1), F(1, 2), F(-1, 3), F(2, 3), F(-3, 4)]
) | st.builds(Fraction, st.integers(-40, 40), st.integers(1, 12))


@st.composite
def rational_pairs(draw):
    """A small configuration with rational coordinates (d in 2..3, n <= 7,
    general position not required) and two disjoint labeled vertex lists of
    at most three vertices each."""
    d = draw(st.integers(2, 3))
    n = draw(st.integers(2, 7))
    cfg = config_from(
        d,
        [
            (f"p{i}", draw(st.lists(RATIONAL_COORDS, min_size=d, max_size=d)))
            for i in range(1, n + 1)
        ],
    )
    labels = draw(st.permutations(cfg.labels()))
    nl = draw(st.integers(1, min(3, n - 1)))
    nr = draw(st.integers(1, min(3, n - nl)))
    return cfg, labels[:nl], labels[nl : nl + nr]


def _max_min_weights(lcoords, rcoords):
    """The crossing max-min program in the standard form of
    fraction_simplex_max, over rational rows as they are: coordinate rows
    [x | -y] and the two weight-sum rows, each row's sum and its negation as
    the split margin t, maximizing t. Returns the optimal margin and the
    weights w = y + t."""
    nl, nr = len(lcoords), len(rcoords)
    rows = [
        [p[k] for p in lcoords] + [-q[k] for q in rcoords] for k in range(len(lcoords[0]))
    ]
    rows.append([1] * nl + [0] * nr)
    rows.append([0] * nl + [1] * nr)
    a = [row + [sum(row), -sum(row)] for row in rows]
    b = [0] * (len(rows) - 2) + [1, 1]
    status, t, y = fraction_simplex_max([0] * (nl + nr) + [1, -1], a, b)
    if status != OPTIMAL:
        return status, None, None
    return status, t, tuple(v + t for v in y[: nl + nr])


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(rational_pairs())
def test_crossing_matches_oracles_on_rational_coords(case):
    # the verdict is Fourier-Motzkin's, and a separating hyperplane is sound
    # on these points, degenerate ones too; the integer rows (all scaled by
    # one lcm) make the Fraction tableau's pivots, so a crossing's
    # coefficients are that tableau's vertex also where the optimal weights
    # are not unique. A pair certified by a separating hyperplane solves no
    # LP; its pivots are read from simplices_cross with the search off.
    cfg, left, right = case
    w, pivots = with_pivots(galecross.lp, "_pivot", lambda: simplices_cross(cfg, left, right))
    left, right = sorted(left), sorted(right)
    lcoords = [cfg.coords(lab) for lab in left]
    rcoords = [cfg.coords(lab) for lab in right]
    verdict, _ = fm_crossing(lcoords, rcoords)
    certified = galecross.crossing._separated(cfg, left, right)
    general = is_general_position(cfg.subset(left + right))
    event(f"crossing: {verdict}, certified: {certified}, general position: {general}")
    assert not (certified and verdict)
    assert (w is not None) == verdict
    if certified:
        assert pivots == []
        with patch.object(galecross.crossing, "_separated", lambda config, left, right: None):
            _, pivots = with_pivots(galecross.lp, "_pivot", lambda: simplices_cross(cfg, left, right))
    (status, t, weights), want_pivots = with_pivots(
        oracles, "_fraction_pivot", lambda: _max_min_weights(lcoords, rcoords)
    )
    assert pivots == want_pivots
    if w is None:
        return
    assert status == OPTIMAL and t > 0
    lam, mu = weights[: len(left)], weights[len(left) :]
    if w.pair.left != frozenset(left):
        lam, mu = mu, lam
    assert (w.left_coeffs, w.right_coeffs) == (lam, mu)
    assert w.point == tuple(
        sum(c * x[k] for c, x in zip(lam, map(cfg.coords, sorted(w.pair.left))))
        for k in range(cfg.dimension)
    )
    assert w.validate(cfg)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_separating_hyperplane_is_complete_in_general_position(data):
    # d+1 <= p+q <= d+4 points in general position: a hyperplane is found
    # exactly for the pairs that Fourier-Motzkin says do not cross
    d = data.draw(st.integers(2, 4), label="d")
    n = data.draw(st.integers(d + 1, d + 4), label="n")
    cfg = random_config(n, d, data.draw(st.integers(0, 10**6), label="seed"), 30)
    p = data.draw(st.integers(1, n - 1), label="p")
    q = data.draw(st.integers(max(1, d + 1 - p), n - p), label="q")
    labels = data.draw(st.permutations(cfg.labels()), label="labels")
    left, right = labels[:p], labels[p : p + q]
    verdict, _ = fm_crossing([cfg.coords(x) for x in left], [cfg.coords(x) for x in right])
    event(f"crossing: {verdict}")
    assert galecross.crossing._separated(cfg, left, right) == (not verdict)


def test_separating_hyperplane_size_rule(monkeypatch):
    # p + q <= d or p + q > d + 4: no hyperplane is tried and the LP decides
    def no_orientation(self, key):
        raise AssertionError("orientation read outside the size rule")

    line = moment_curve_config(6, 1)
    monkeypatch.setattr(PointConfig, "orientation", no_orientation)
    assert simplices_cross(line, ["p1", "p2", "p3"], ["p4", "p5", "p6"]) is None
    assert simplices_cross(moment_curve_config(6, 3), ["p1"], ["p2", "p3"]) is None


def test_missed_hyperplane_in_general_position_raises(cyclic_square, monkeypatch):
    # a non-crossing pair of points in general position always has a
    # separating hyperplane; a search made to miss one leaves the LP's
    # "no crossing" uncertified, which is a theorem violation
    monkeypatch.setattr(galecross.crossing, "_separated", lambda config, left, right: False)
    with pytest.raises(TheoremViolationError, match="no separating hyperplane"):
        count_crossing_pairs(cyclic_square, 2, 2)
    # degenerate points: the LP's verdict stands without a hyperplane
    collinear = config_from(2, [("p1", (0, 0)), ("p2", (1, 0)), ("p3", (2, 0)), ("p4", (3, 0))])
    assert simplices_cross(collinear, ["p1", "p2"], ["p3", "p4"]) is None


@pytest.mark.parametrize("k", [3, 4, 5])
def test_vkf_moment_curve_solves_one_lp(k, monkeypatch):
    # every pair before the first crossing one is proved disjoint by a
    # hyperplane, so only the witness pair reaches the LP
    calls = []
    simplex_max = galecross.lp.simplex_max

    def counting(*args):
        calls.append(args)
        return simplex_max(*args)

    monkeypatch.setattr(galecross.lp, "simplex_max", counting)
    cfg = moment_curve_config(2 * k + 3, 2 * k)
    assert vkf_find(cfg).validate(cfg)
    assert len(calls) == 1


def _mapped(cfg, label_map, coord_map):
    return PointConfig(
        cfg.dimension,
        tuple(LabeledPoint(label_map(p.label), coord_map(p.coords)) for p in cfg.points),
    )


def _pair_set(count, label_map=lambda lab: lab):
    return {
        SimplexPair(frozenset(map(label_map, w.pair.left)), frozenset(map(label_map, w.pair.right)))
        for w in count.witnesses
    }


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_count_invariant_under_relabeling_affine_maps_and_scaling(data):
    d = data.draw(st.integers(2, 3), label="d")
    n = data.draw(st.integers(d + 2, 7), label="n")
    cfg = random_config(n, d, data.draw(st.integers(0, 10**6), label="seed"), 30)
    # part sizes with p + q >= d + 2: smaller pairs never cross in general
    # position
    p = data.draw(st.integers(1, n - 1), label="p")
    q = data.draw(st.integers(max(1, d + 2 - p), n - p), label="q")
    base = count_crossing_pairs(cfg, p, q, keep_witnesses=True)
    event(f"crossing pairs: {base.crossing_pairs}")

    def same_count(mapped, label_map=lambda lab: lab):
        got = count_crossing_pairs(mapped, p, q, keep_witnesses=True)
        assert (got.total_pairs_checked, got.crossing_pairs) == (
            base.total_pairs_checked,
            base.crossing_pairs,
        )
        assert _pair_set(got) == _pair_set(base, label_map)

    # relabeling: new names in a shuffled order
    names = data.draw(st.permutations([f"q{i}" for i in range(n)]), label="names")
    relabel = dict(zip(cfg.labels(), names)).__getitem__
    same_count(_mapped(cfg, relabel, lambda x: x), relabel)

    # an integer affine map with nonzero determinant: a lower unitriangular
    # matrix times an upper triangular one with a nonzero diagonal, rows in a
    # drawn order
    entries = st.integers(-3, 3)
    diagonal = st.sampled_from([-3, -2, -1, 1, 2, 3])
    low = [[data.draw(entries) if j < i else int(i == j) for j in range(d)] for i in range(d)]
    up = [
        [data.draw(diagonal) if i == j else data.draw(entries) if j > i else 0 for j in range(d)]
        for i in range(d)
    ]
    rows = [[sum(low[i][k] * up[k][j] for k in range(d)) for j in range(d)] for i in range(d)]
    m = data.draw(st.permutations(rows), label="matrix")
    shift = data.draw(st.lists(st.integers(-9, 9), min_size=d, max_size=d), label="shift")
    same_count(
        _mapped(
            cfg,
            lambda lab: lab,
            lambda x: tuple(sum(mij * xj for mij, xj in zip(row, x)) + s for row, s in zip(m, shift)),
        )
    )

    # every coordinate divided by one positive integer
    k = data.draw(st.integers(2, 12), label="divisor")
    same_count(_mapped(cfg, lambda lab: lab, lambda x: tuple(xi / k for xi in x)))
