from collections import Counter
from types import SimpleNamespace

import pytest

import galecross.crossing
import galecross.verify
from galecross import (
    gale_transform,
    moment_curve_config,
    random_config,
    schedule_blocks,
    separation_to_crossing,
    verify_bijection,
    verify_duality,
    verify_eight_points,
    verify_planar_constant,
    verify_position_duality,
    verify_schedule_pipeline,
    verify_vkf,
)
from galecross.configs import DUMMY_LABEL, SimplexPair
from galecross.crossing import crossing_pair_set, extension_pairs
from galecross.errors import InvalidInputError, SearchIncompleteError, TheoremViolationError
from galecross.separations import ScheduleTrace
from galecross.verify import (
    BoundReport,
    VerificationReport,
    _vkf_probe,
    bound_report,
    check_bijection,
    check_duality,
    check_eight_points,
    check_pipeline,
    check_planar,
    check_vkf,
    fixed_report,
)
from oracles import pascal


def test_report_json_omits_elapsed():
    rep = VerificationReport("demo", 2, 1, ((7, "boom"),), elapsed=1.25)
    assert not rep.ok()
    obj = rep.to_json_obj()
    assert "elapsed" not in obj
    assert obj["failures"] == [{"seed": 7, "detail": "boom"}]
    assert VerificationReport("demo", 2, 2, ()).ok()


def test_bijection_small_runs_pass():
    rep = verify_bijection(2, 4, trials=3, seed=0)
    assert rep.ok() and rep.passes == 3
    assert rep.check_name == "bijection d=2 n=4"


def test_bijection_fixed_configs(zigzag_square, cyclic_square):
    assert check_bijection(zigzag_square) == ""
    assert check_bijection(cyclic_square) == ""
    assert check_bijection(moment_curve_config(6, 3)) == ""


def test_bijection_and_eight_point_checks_build_no_witness(monkeypatch):
    # both checks need only the set of crossing pairs, certified on the
    # LP's ints; building a CrossingWitness would be wasted work
    def no_witness(*args, **kwargs):
        raise AssertionError("a CrossingWitness was built")

    monkeypatch.setattr(galecross.crossing, "CrossingWitness", no_witness)
    for seed in (3, 11):
        assert check_bijection(random_config(7, 3, seed, 1000)) == ""
        assert check_eight_points(random_config(8, 4, seed, 1000)) == ""


def test_bijection_preconditions():
    with pytest.raises(InvalidInputError):
        verify_bijection(4, 11, trials=1, seed=0)
    with pytest.raises(InvalidInputError, match="budget"):
        verify_bijection(8, 16, trials=1, seed=0)
    with pytest.raises(InvalidInputError, match="budget"):
        check_bijection(moment_curve_config(16, 8))


@pytest.mark.parametrize("d, n", [(1, 2), (-1, -2), (0, 2), (2, 3)])
def test_bijection_refuses_bad_sizes_before_any_trial(d, n):
    # n = 2d once let (1, 2) through to fail trial by trial, and (-1, -2)
    # reached math.comb with a negative size
    with pytest.raises(InvalidInputError, match="need d >= 1"):
        verify_bijection(d, n, trials=1, seed=0)


def test_eight_points_small_run():
    rep = verify_eight_points(trials=2, seed=5)
    assert rep.ok() and rep.passes == 2


def test_eight_points_shape_detail():
    detail = check_eight_points(moment_curve_config(6, 3))
    assert "need 8 points" in detail


def test_pipeline_small_run():
    rep = verify_schedule_pipeline(4, trials=1, seed=0)
    assert rep.ok()
    assert rep.check_name == "schedule pipeline d=4"


def test_pipeline_preconditions():
    with pytest.raises(InvalidInputError):
        verify_schedule_pipeline(3, trials=1, seed=0)
    with pytest.raises(InvalidInputError):
        verify_schedule_pipeline(7, trials=1, seed=0)
    assert "pipeline needs 2d" in check_pipeline(moment_curve_config(9, 4))


# 10 points in R^5: (4,5) schedule pairs, each extended to (5,5) by one point
PIPELINE_D5 = random_config(10, 5, seed=7, coord_range=1000)


def test_pipeline_decides_each_pair_once(monkeypatch):
    config = PIPELINE_D5
    d = config.dimension
    inside_count = []
    calls = []
    pair_set = galecross.verify.crossing_pair_set
    crossing = galecross.crossing._crossing

    def counting(*args, **kwargs):
        inside_count.append(True)
        try:
            return pair_set(*args, **kwargs)
        finally:
            inside_count.pop()

    def spy(cfg, left, right):
        if cfg is config:
            calls.append((SimplexPair(frozenset(left), frozenset(right)), bool(inside_count)))
        return crossing(cfg, left, right)

    # every verdict, by crossing_pair_set or simplices_cross, is _crossing's
    monkeypatch.setattr(galecross.verify, "crossing_pair_set", counting)
    monkeypatch.setattr(galecross.crossing, "_crossing", spy)
    assert check_pipeline(config) == ""
    full = Counter(pair for pair, _ in calls if pair.sizes() == (d, d))
    assert len(full) == pascal(2 * d, d) // 2
    assert set(full.values()) == {1}
    assert all(inside for pair, inside in calls if pair.sizes() == (d, d))
    outside = Counter(pair for pair, inside in calls if not inside)
    assert outside and set(outside.values()) == {1}
    # the schedule's (4,5) pairs and the vkf probe's (4,4) pair
    assert {tuple(sorted(pair.sizes())) for pair in outside} == {(4, 5), (4, 4)}


def test_pipeline_fails_when_direct_count_loses_a_derived_pair(monkeypatch):
    config = PIPELINE_D5
    d = config.dimension
    subset = config.subset(sorted(config.labels())[: d + 4])
    diagram = gale_transform(subset)
    pair = separation_to_crossing(diagram, schedule_blocks(diagram).separations()[0])
    lost = SimplexPair(*extension_pairs(config, pair, d)[0])
    pair_set = galecross.verify.crossing_pair_set

    def losing(*args, **kwargs):
        result = pair_set(*args, **kwargs)
        kept = result - {lost}
        assert len(kept) == len(result) - 1
        return kept

    monkeypatch.setattr(galecross.verify, "crossing_pair_set", losing)
    detail = check_pipeline(config)
    assert "not a crossing pair of the direct count" in detail
    assert str(sorted(lost.left)) in detail and str(sorted(lost.right)) in detail


def test_vkf_small_run():
    rep = verify_vkf(1, trials=5, seed=9)
    assert rep.ok() and rep.passes == 5
    with pytest.raises(InvalidInputError):
        verify_vkf(4, trials=1, seed=0)


def test_vkf_pair_budget(monkeypatch):
    # shapes vkf_find refuses keep its own errors, before any budget
    with pytest.raises(InvalidInputError, match="even dimension"):
        check_vkf(moment_curve_config(40, 21))
    with pytest.raises(InvalidInputError, match="need exactly 23 points"):
        check_vkf(moment_curve_config(40, 20))

    class Reached(Exception):
        pass

    def reached(config):
        raise Reached

    monkeypatch.setattr(galecross.verify, "vkf_find", reached)
    # k = 5: C(13,6) * C(7,6) / 2 = 6006 pairs, within the budget
    with pytest.raises(Reached):
        check_vkf(moment_curve_config(13, 10))
    # k = 6: 25740 pairs, refused before the search
    with pytest.raises(InvalidInputError, match="budget exceeded: 25740"):
        check_vkf(moment_curve_config(15, 12))


def test_planar_fixed_configs(cyclic_square, triangle_with_center):
    assert check_planar(cyclic_square) == ""
    detail = check_planar(triangle_with_center)
    assert "0 < ceil" in detail


def test_planar_bounds():
    with pytest.raises(InvalidInputError):
        verify_planar_constant(3, trials=1, seed=0)
    with pytest.raises(InvalidInputError):
        verify_planar_constant(11, trials=1, seed=0)
    with pytest.raises(InvalidInputError):
        check_planar(moment_curve_config(5, 3))


def test_planar_small_runs_pass():
    # large n: random configurations sit far above the constant
    assert verify_planar_constant(10, trials=3, seed=0).ok()
    assert verify_planar_constant(8, trials=5, seed=0).ok()


def test_duality_trials_include_degenerates():
    rep = verify_position_duality(2, 5, trials=30, seed=0)
    assert rep.ok() and rep.passes == 30
    with pytest.raises(InvalidInputError):
        verify_position_duality(3, 4, trials=1, seed=0)


def test_fixed_report_pass_and_fail(cyclic_square, triangle_with_center):
    rep = fixed_report("planar", cyclic_square, check_planar)
    assert rep.ok() and rep.check_name == "planar fixed" and rep.trials == 1
    rep = fixed_report("planar", triangle_with_center, check_planar)
    assert not rep.ok()
    seed, detail = rep.failures[0]
    assert seed == -1
    assert detail.startswith(triangle_with_center.config_id())


def test_fixed_report_propagates_invalid_input():
    with pytest.raises(InvalidInputError):
        fixed_report("planar", moment_curve_config(12, 2), check_planar)


def test_report_determinism():
    a = verify_bijection(2, 5, trials=4, seed=3)
    b = verify_bijection(2, 5, trials=4, seed=3)
    assert a.to_json_obj() == b.to_json_obj()


def test_bound_report_frozen_examples():
    rep = bound_report(8, 4, 4, "eight-point")
    assert rep.pairs_choose == 1
    assert rep.implied_crossing_lower_bound == 4
    rep = bound_report(9, 4, 4, "direct-count")
    assert rep.pairs_choose == 9
    assert rep.implied_crossing_lower_bound == 36
    assert bound_report(12, 5, 0, "block-schedule").implied_crossing_lower_bound == 0


def test_bound_report_big_integers():
    rep = bound_report(60, 5, 7, "block-schedule")
    assert rep.pairs_choose == pascal(60, 10)
    assert rep.implied_crossing_lower_bound == 7 * pascal(60, 10)


def test_bound_report_validation():
    with pytest.raises(InvalidInputError):
        bound_report(7, 4, 1, "eight-point")
    with pytest.raises(InvalidInputError):
        bound_report(8, 4, -1, "eight-point")
    with pytest.raises(InvalidInputError):
        bound_report(8, 4, 1, "made-up")


def test_bound_report_json():
    obj = bound_report(8, 4, 4, "eight-point").to_json_obj()
    assert obj == {
        "d": 4,
        "n": 8,
        "cd_lower_used": 4,
        "pairs_choose": 1,
        "implied_crossing_lower_bound": 4,
        "provenance": "eight-point",
    }


def test_duality_helper_on_squares(zigzag_square, cyclic_square):
    assert verify_duality(zigzag_square)
    assert verify_duality(cyclic_square)


# Each failure branch of the checks, reached by replacing a name that
# galecross.verify imports; a wrong engine behind one of them must show here.


@pytest.mark.parametrize("error", [InvalidInputError, TheoremViolationError, SearchIncompleteError])
def test_domain_error_fails_only_its_trial(monkeypatch, error):
    pair_set = galecross.verify.crossing_pair_set
    calls = []

    def first_raises(*args):
        calls.append(True)
        if len(calls) == 1:
            raise error("boom")
        return pair_set(*args)

    monkeypatch.setattr(galecross.verify, "crossing_pair_set", first_raises)
    rep = verify_bijection(2, 4, trials=3, seed=0)
    assert rep.failures == ((0, f"{error.__name__}: boom"),)
    assert rep.passes == 2 and len(calls) == 3


def test_bijection_check_catches_a_wrong_pair_set(monkeypatch):
    config = moment_curve_config(6, 3)
    real = crossing_pair_set(config, 3, 3)
    assert len(real) == 3
    monkeypatch.setattr(galecross.verify, "crossing_pair_set", lambda *args: set())
    assert check_bijection(config) == "separation count 3 != direct crossing count 0"
    bogus = SimplexPair(frozenset({"x"}), frozenset({"y"}))
    swapped = set(sorted(real, key=str)[1:]) | {bogus}
    monkeypatch.setattr(galecross.verify, "crossing_pair_set", lambda *args: swapped)
    assert check_bijection(config) == "mapped pair set differs from the directly counted pair set"


def test_eight_point_check_catches_each_broken_side(monkeypatch):
    config = moment_curve_config(8, 4)
    assert check_eight_points(config) == ""
    schedule = galecross.verify.schedule_eight
    with monkeypatch.context() as m:
        m.setattr(galecross.verify, "crossing_pair_set", lambda *args: set())
        assert check_eight_points(config) == "direct crossing count 0 < 4"
    with monkeypatch.context() as m:
        repeated = lambda diagram: ScheduleTrace(schedule(diagram).steps[:1] * 4)
        m.setattr(galecross.verify, "schedule_eight", repeated)
        assert check_eight_points(config) == "schedule produced 1 distinct separations < 4"
    bogus = {SimplexPair(frozenset({f"x{i}"}), frozenset({f"y{i}"})) for i in range(4)}
    monkeypatch.setattr(galecross.verify, "crossing_pair_set", lambda *args: bogus)
    first = schedule(gale_transform(config)).separations()[0]
    assert check_eight_points(config) == (
        f"schedule separation {sorted(first.side_a)} maps to a non-crossing pair"
    )


def test_vkf_probe_catches_each_broken_step(monkeypatch):
    apex = SimpleNamespace(pair=SimplexPair(frozenset({DUMMY_LABEL, "p1"}), frozenset({"p2"})))
    with monkeypatch.context() as m:
        m.setattr(galecross.verify, "vkf_find", lambda config: apex)
        assert _vkf_probe(moment_curve_config(8, 3), set()) == "lifted witness uses the apex point"
    config = moment_curve_config(8, 4)
    with monkeypatch.context() as m:
        m.setattr(galecross.verify, "simplices_cross", lambda *args: None)
        assert _vkf_probe(config, set()) == (
            "probe witness does not cross inside the full configuration"
        )
    monkeypatch.setattr(galecross.verify, "extension_pairs", lambda *args: [])
    assert _vkf_probe(config, set()) == "extension checked 0 distributions, expected 2"


def test_pipeline_check_catches_a_short_schedule(monkeypatch):
    config = moment_curve_config(8, 4)
    schedule = galecross.verify.schedule_blocks
    with monkeypatch.context() as m:
        m.setattr(galecross.verify, "schedule_blocks", lambda diagram: ScheduleTrace(()))
        assert check_pipeline(config) == (
            f"subset {tuple(sorted(config.labels()))}: 0 separations < floor-log bound 3"
        )
    short = lambda diagram: ScheduleTrace(schedule(diagram).steps[:3])
    monkeypatch.setattr(galecross.verify, "schedule_blocks", short)
    assert check_pipeline(config) == "eight-vector subset gave 3 separations < 4"


def test_pipeline_check_catches_a_non_crossing_schedule_pair(monkeypatch):
    config = PIPELINE_D5
    subset = config.subset(sorted(config.labels())[: config.dimension + 4])
    diagram = gale_transform(subset)
    pair = separation_to_crossing(diagram, schedule_blocks(diagram).separations()[0])
    assert pair.sizes() != (5, 5)
    monkeypatch.setattr(galecross.verify, "crossing_pair_set", lambda *args: set())
    monkeypatch.setattr(galecross.verify, "simplices_cross", lambda *args: None)
    assert check_pipeline(config) == (
        f"schedule pair {sorted(pair.left)}|{sorted(pair.right)} does not cross"
    )


def test_vkf_check_catches_wrong_witness_sizes(monkeypatch):
    small = SimpleNamespace(pair=SimplexPair(frozenset({"p1"}), frozenset({"p2"})))
    monkeypatch.setattr(galecross.verify, "vkf_find", lambda config: small)
    assert check_vkf(moment_curve_config(5, 2)) == "witness sizes (1, 1) != (2, 2)"


def test_duality_check_catches_a_failed_equivalence(monkeypatch, cyclic_square):
    assert check_duality(cyclic_square) == ""
    monkeypatch.setattr(galecross.verify, "verify_duality", lambda config: False)
    assert check_duality(cyclic_square) == "position/spanning equivalence failed"


def test_fixed_report_turns_theorem_errors_into_failures(monkeypatch):
    config = moment_curve_config(6, 3)

    def raising(error):
        def pair_set(*args):
            raise error("boom")

        return pair_set

    for error in (TheoremViolationError, SearchIncompleteError):
        monkeypatch.setattr(galecross.verify, "crossing_pair_set", raising(error))
        rep = fixed_report("bijection", config, check_bijection)
        assert rep.failures == ((-1, f"{config.config_id()}: {error.__name__}: boom"),)
        assert rep.passes == 0 and rep.trials == 1
    monkeypatch.setattr(galecross.verify, "crossing_pair_set", raising(InvalidInputError))
    with pytest.raises(InvalidInputError, match="boom"):
        fixed_report("bijection", config, check_bijection)
