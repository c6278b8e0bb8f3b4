"""End-to-end acceptance runs for the whole library.

Each test here is one acceptance check and prints exactly one summary line,
`[acceptance] <name>: PASS|FAIL (<detail>)`, to the real stdout so the lines
survive pytest's capture. The checks are deliberately expensive compared to
the unit tests (a few minutes total); every random draw is seeded, so reruns
are byte-for-byte repeatable.
"""

import functools
import math
import random
import sys

import pytest

from conftest import config_from, oracle_realizable
from galecross import (
    HamSandwichInstance,
    PointConfig,
    enumerate_separations,
    extend_crossing,
    gale_transform,
    ham_sandwich_cut,
    is_general_position,
    random_config,
    simplices_cross,
    verify_bijection,
    verify_duality,
    verify_eight_points,
    verify_planar_constant,
    verify_schedule_pipeline,
    verify_vkf,
    vkf_find,
)
from galecross.cli import REPRO_BUNDLE, main
from galecross.errors import SearchIncompleteError
from oracles import fm_crossing, sampled_separations


_CAPSYS = None


@pytest.fixture(autouse=True)
def _acceptance_capsys(capsys):
    """Route the summary lines past pytest's fd-level capture."""
    global _CAPSYS
    _CAPSYS = capsys
    yield
    _CAPSYS = None


def _emit(name, ok, detail):
    status = "PASS" if ok else "FAIL"
    line = f"\n[acceptance] {name}: {status} ({detail})"
    if _CAPSYS is not None:
        with _CAPSYS.disabled():
            print(line, flush=True)
    else:
        print(line, file=sys.__stdout__, flush=True)


def criterion(name):
    """Run the wrapped check, print its one-line verdict, then assert it."""

    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                ok, detail = fn(*args, **kwargs)
            except Exception as exc:
                _emit(name, False, f"crashed: {exc!r}")
                raise
            _emit(name, ok, detail)
            assert ok, f"{name}: {detail}"

        return wrapper

    return deco


@criterion("bijection counts")
def test_bijection_counts():
    grids = [(d, n) for d in (2, 3, 4) for n in (d + 2, d + 3, d + 4)]
    passed = total = 0
    for d, n in grids:
        report = verify_bijection(d, n, trials=25, seed=d * 1000 + n)
        passed += report.passes
        total += report.trials
    detail = f"separation count == crossing count in {passed}/{total} trials over {len(grids)} (d, n) grids"
    return passed == total, detail


DEGENERATE_ROWS = [
    (2, [("p1", (0, 0)), ("p2", (1, 0)), ("p3", (2, 0)), ("p4", (3, 0))]),
    (2, [("p1", (0, 0)), ("p2", (1, 0)), ("p3", (1, 1)), ("p4", (0, 1)), ("p5", (1, 1))]),
    (2, [("p1", (0, 0)), ("p2", (1, 0)), ("p3", (2, 0)), ("p4", (0, 1)), ("p5", (1, 2))]),
    (2, [("p1", (0, 0)), ("p2", (1, 0)), ("p3", (2, 0)), ("p4", (3, 0)), ("p5", (4, 0))]),
    (3, [("p1", (0, 0, 0)), ("p2", (1, 0, 0)), ("p3", (0, 1, 0)), ("p4", (1, 1, 0)), ("p5", (2, 3, 0))]),
    (3, [("p1", (0, 0, 0)), ("p2", (1, 0, 0)), ("p3", (0, 1, 0)), ("p4", (1, 1, 0)), ("p5", (0, 0, 1)), ("p6", (1, 2, 3))]),
    (3, [("p1", (0, 0, 0)), ("p2", (1, 0, 0)), ("p3", (2, 0, 0)), ("p4", (0, 1, 0)), ("p5", (0, 0, 1))]),
    (3, [("p1", (1, 1, 0)), ("p2", (2, 1, 0)), ("p3", (1, 2, 0)), ("p4", (3, 2, 0)), ("p5", (2, 3, 0)), ("p6", (1, 4, 0))]),
    (4, [(f"p{t}", (t, t * t, t**3, 0)) for t in range(1, 7)]),
    (4, [(f"p{t}", (t, t * t, t**3, 0)) for t in range(1, 6)] + [("p6", (1, 2, 3, 1)), ("p7", (2, 1, 5, 3))]),
]


@criterion("position duality")
def test_position_duality():
    agreed = checked = 0
    for idx, (d, n) in enumerate([(2, 5), (2, 6), (3, 6), (3, 7), (4, 8)]):
        for t in range(20):
            cfg = random_config(n, d, seed=7000 + 20 * idx + t, coord_range=1000)
            assert is_general_position(cfg)
            agreed += verify_duality(cfg)
            checked += 1
    for d, rows in DEGENERATE_ROWS:
        cfg = config_from(d, rows)
        assert not is_general_position(cfg)
        agreed += verify_duality(cfg)
        checked += 1
    detail = f"equivalence holds in {agreed}/{checked}: 100 general-position + 10 degenerate configs"
    return agreed == checked, detail


@criterion("vkf witnesses")
def test_vkf_witnesses():
    parts = []
    ok = True
    for k, trials in ((1, 200), (2, 100), (3, 20)):
        report = verify_vkf(k, trials=trials, seed=10 + k)
        ok = ok and report.passes == report.trials
        parts.append(f"k={k}: {report.passes}/{report.trials}")
    return ok, ", ".join(parts) + " witnesses of pinned part sizes, zero violations"


@criterion("eight point floor")
def test_eight_point_floor():
    report = verify_eight_points(trials=100, seed=44)
    detail = (
        f"{report.passes}/{report.trials} trials with crossing count >= 4 "
        "and >= 4 distinct certified separations"
    )
    return report.passes == report.trials, detail


@criterion("extension distributions")
def test_extension_distributions():
    parts = []
    findings = []
    for d in (4, 6):
        expected = math.comb(d - 2, (d - 2) // 2)
        crossed = checked = 0
        for t in range(10):
            cfg = random_config(2 * d, d, seed=50_000 + 10 * d + t, coord_range=1000)
            probe = cfg.subset(sorted(cfg.labels())[: d + 3])
            witness = vkf_find(probe)
            full = simplices_cross(cfg, witness.pair.left, witness.pair.right)
            assert full is not None, "probe witness lost in the full configuration"
            ext = extend_crossing(cfg, full, d)
            assert ext.distributions_checked == expected, (
                f"d={d}: checked {ext.distributions_checked}, expected {expected}"
            )
            crossed += len(ext.witnesses)
            checked += ext.distributions_checked
        parts.append(f"d={d}: {crossed}/{checked} distributions cross")
        if crossed < checked:
            findings.append(
                f"finding: {checked - crossed} non-crossing extensions at d={d}"
            )
    # the observed fraction is recorded, not required; only the machinery is
    return True, ", ".join(parts + findings)


@criterion("schedule pipeline")
def test_schedule_pipeline():
    parts = []
    ok = True
    for d in (4, 5, 6):
        report = verify_schedule_pipeline(d, trials=5, seed=60 + d)
        ok = ok and report.passes == report.trials
        parts.append(f"d={d}: {report.passes}/{report.trials}")
    detail = (
        ", ".join(parts)
        + " trials: every (d,d) extension of a schedule pair is in the exhaustive"
        " crossing set, and >= floor(log2(d+4)) separations per subset"
    )
    return ok, detail


@criterion("oracle agreement")
def test_oracle_agreement():
    rng = random.Random(7100)
    done = agreed = 0
    while done < 200:
        d = rng.choice([2, 3])
        n = rng.randint(d + 2, 7)
        cfg = random_config(n, d, seed=7200 + done, coord_range=30)
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
        agreed += verdict == (simplices_cross(cfg, left, right) is not None)
        done += 1

    covered = realizable = diagrams = 0
    for i, (n, d) in enumerate([(8, 4), (7, 3), (6, 2), (8, 5), (7, 4)]):
        dia = gale_transform(random_config(n, d, seed=70_001 + i, coord_range=1000))
        sizes = (n // 2, (n + 1) // 2)
        seps = enumerate_separations(dia, sizes)
        enumerated = {frozenset(s.partition()) for s in seps}
        labeled = [(lab, dia.vector(lab)) for lab in dia.labels()]
        sampled = sampled_separations(labeled, sizes, samples=10_000, seed=70_000 + i)
        covered += sampled <= enumerated
        realizable += all(oracle_realizable(dia, s) for s in seps)
        diagrams += 1
    ok = agreed == 200 and covered == diagrams and realizable == diagrams
    detail = (
        f"{agreed}/200 predicate verdicts match the elimination oracle; "
        f"{covered}/{diagrams} diagrams: sampled separations all enumerated, "
        f"{realizable}/{diagrams}: every enumerated separation passes the Gordan oracle"
    )
    return ok, detail


def _open_side_counts(diagram, separation, labels):
    on_plane = {lab for lab, _ in separation.witness_shifts}
    up = down = 0
    for lab in labels:
        if lab in on_plane:
            continue
        dot = sum(a * b for a, b in zip(separation.witness_normal, diagram.vector(lab)))
        assert dot != 0, "strictly sided label has a zero witness dot"
        up += dot > 0
        down += dot < 0
    return up, down


@criterion("ham sandwich contract")
def test_ham_sandwich_contract():
    rng = random.Random(88)
    verified = incomplete = 0
    for i in range(100):
        n = 7 + i % 6
        dia = gale_transform(random_config(n, n - 4, seed=80_000 + i, coord_range=1000))
        labels = list(dia.labels())
        rng.shuffle(labels)
        k1 = rng.randint(1, min(10, n - 1))
        k2 = rng.randint(1, min(10, n - k1))
        inst = HamSandwichInstance(3, frozenset(labels[:k1]), frozenset(labels[k1 : k1 + k2]))
        sizes = (n // 2, (n + 1) // 2)
        try:
            cut = ham_sandwich_cut(dia, inst, sizes)
        except SearchIncompleteError:
            # honest refusals must be provable: no proper-size separation may
            # satisfy the bounds when the whole enumeration is audited
            qualifying = 0
            for sep in enumerate_separations(dia, sizes):
                if all(
                    max(_open_side_counts(dia, sep, cls)) <= len(cls) // 2
                    for cls in (inst.c1, inst.c2)
                ):
                    qualifying += 1
            assert qualifying == 0, (
                f"instance {i} refused but {qualifying} separations qualify"
            )
            incomplete += 1
            continue
        for cls in (inst.c1, inst.c2):
            up, down = _open_side_counts(dia, cut, cls)
            assert max(up, down) <= len(cls) // 2, (
                f"instance {i}: open side holds {max(up, down)} of {len(cls)}"
            )
        verified += 1
    detail = (
        f"{verified} cuts re-verified against the open-side bounds, "
        f"{incomplete} instance(s) audited as genuinely unbisectable"
    )
    return verified + incomplete == 100, detail


@pytest.mark.xfail(
    strict=True,
    reason="the 3/8 floor is above the attainable crossing counts at these n; "
    "the printed analysis records the measured shortfall",
)
@criterion("planar floor")
def test_planar_floor():
    parts = []
    all_met = True
    for n in range(4, 11):
        report = verify_planar_constant(n, trials=50, seed=90 + n)
        threshold = math.ceil(0.375 * math.comb(n, 4))
        all_met = all_met and report.passes == report.trials
        first_miss = report.failures[0][1] if report.failures else "none"
        parts.append(
            f"n={n}: {report.passes}/{report.trials} reach {threshold} (first miss: {first_miss})"
        )
    return all_met, "; ".join(parts)


def _run_cli(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@criterion("interfaces and determinism")
def test_interfaces_and_determinism(tmp_path, capsys, monkeypatch, cyclic_square, zigzag_square):
    notes = []

    r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
    for path in (r1, r2):
        code, _, _ = _run_cli(
            capsys, "verify", "bijection", "--d", "2", "--n", "5",
            "--trials", "5", "--seed", "3", "-o", str(path),
        )
        assert code == 0
    assert r1.read_bytes() == r2.read_bytes()
    notes.append("seeded verify reports byte-identical")

    pts = tmp_path / "pts.json"
    code, _, _ = _run_cli(
        capsys, "gen", "--kind", "random", "--n", "6", "--d", "3",
        "--seed", "9", "-o", str(pts),
    )
    assert code == 0
    resaved = tmp_path / "resaved.json"
    PointConfig.load(str(pts)).save(str(resaved))
    assert pts.read_bytes() == resaved.read_bytes()
    notes.append("point file round-trips byte-exact")

    square = tmp_path / "square.json"
    cyclic_square.save(str(square))
    code, _, _ = _run_cli(capsys, "count", "--in", str(square), "--sizes", "2,2")
    assert code == 0
    code, _, _ = _run_cli(
        capsys, "cross", "--in", str(square), "--a", "p1,p2", "--b", "p3,p4"
    )
    assert code == 1
    broken = tmp_path / "broken.json"
    broken.write_text("{")
    code, _, _ = _run_cli(capsys, "check", "--in", str(broken))
    assert code == 2
    code, _, _ = _run_cli(capsys, "verify", "bijection", "--n", "5")
    assert code == 2

    zig_pts, zig_dia = tmp_path / "zig.json", tmp_path / "zigdia.json"
    zigzag_square.save(str(zig_pts))
    code, _, _ = _run_cli(capsys, "gale", "--in", str(zig_pts), "-o", str(zig_dia))
    assert code == 0
    monkeypatch.chdir(tmp_path)
    code, _, _ = _run_cli(
        capsys, "hamsandwich", "--in", str(zig_dia), "--c1", "p1,p4", "--c2", "p2,p3"
    )
    assert code == 3
    assert (tmp_path / REPRO_BUNDLE).exists()
    notes.append("exit codes 0/1/2/3 observed under fault injection, repro bundle written on 3")

    return True, "; ".join(notes)
