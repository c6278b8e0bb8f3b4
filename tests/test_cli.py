import json
from fractions import Fraction

import pytest

import galecross.crossing
from conftest import config_from
from galecross import simplices_cross
from galecross.cli import REPRO_BUNDLE, main
from galecross.errors import TheoremViolationError
from galecross.lp import OPTIMAL, LpResult


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_config(tmp_path, config, name="pts.json"):
    path = tmp_path / name
    config.save(str(path))
    return str(path)


def test_gen_round_trip(tmp_path, capsys):
    out = tmp_path / "pts.json"
    code, stdout, _ = run(capsys, "gen", "--kind", "moment", "--n", "6", "--d", "3", "-o", str(out))
    assert code == 0
    assert "6 points in R^3" in stdout
    first = out.read_bytes()
    code, _, _ = run(capsys, "gen", "--kind", "moment", "--n", "6", "--d", "3", "-o", str(out))
    assert code == 0
    assert out.read_bytes() == first

    code, stdout, _ = run(capsys, "check", "--in", str(out), "--json")
    assert code == 0
    assert json.loads(stdout)["general_position"] is True


def test_gen_random_seeded_identical(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        code, _, _ = run(
            capsys, "gen", "--kind", "random", "--n", "6", "--d", "3",
            "--seed", "11", "--range", "50", "-o", str(path),
        )
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_check_degenerate_exit_1(tmp_path, capsys):
    cfg = config_from(2, [("p1", (0, 0)), ("p2", (1, 1)), ("p3", (2, 2)), ("p4", (5, 0))])
    path = write_config(tmp_path, cfg)
    code, stdout, _ = run(capsys, "check", "--in", path, "--json")
    assert code == 1
    payload = json.loads(stdout)
    assert payload["general_position"] is False
    assert payload["degenerate_subset"] == ["p1", "p2", "p3"]


def test_gale_diagram_output(tmp_path, capsys):
    pts = tmp_path / "pts.json"
    dia = tmp_path / "dia.json"
    run(capsys, "gen", "--kind", "moment", "--n", "7", "--d", "3", "-o", str(pts))
    code, _, _ = run(capsys, "gale", "--in", str(pts), "-o", str(dia))
    assert code == 0
    payload = json.loads(dia.read_text())
    assert payload["m"] == 3
    assert len(payload["vectors"]) == 7


def test_cross_witness_json(tmp_path, capsys, cyclic_square):
    path = write_config(tmp_path, cyclic_square)
    code, stdout, _ = run(capsys, "cross", "--in", path, "--a", "p1,p3", "--b", "p2,p4", "--json")
    assert code == 0
    payload = json.loads(stdout)
    assert payload["crossing"] is True
    assert payload["witness"]["point"] == ["1/2", "1/2"]


def test_cross_negative_exit_1(tmp_path, capsys, cyclic_square):
    path = write_config(tmp_path, cyclic_square)
    code, stdout, _ = run(capsys, "cross", "--in", path, "--a", "p1,p2", "--b", "p3,p4", "--json")
    assert code == 1
    assert json.loads(stdout)["crossing"] is False


def test_count_moment_6_3(tmp_path, capsys):
    pts = tmp_path / "pts.json"
    run(capsys, "gen", "--kind", "moment", "--n", "6", "--d", "3", "-o", str(pts))
    code, stdout, _ = run(capsys, "count", "--in", str(pts), "--sizes", "3,3", "--json")
    assert code == 0
    payload = json.loads(stdout)
    assert payload["crossing_pairs"] == 3
    assert payload["total_pairs_checked"] == 10


def test_count_degenerate_exit_2(tmp_path, capsys):
    cfg = config_from(2, [("p1", (0, 0)), ("p2", (1, 1)), ("p3", (2, 2)), ("p4", (5, 0))])
    path = write_config(tmp_path, cfg)
    code, _, stderr = run(capsys, "count", "--in", path, "--sizes", "2,2")
    assert code == 2
    assert "p1" in stderr and "p3" in stderr


def test_count_bad_sizes_exit_2(tmp_path, capsys, cyclic_square):
    path = write_config(tmp_path, cyclic_square)
    code, _, stderr = run(capsys, "count", "--in", path, "--sizes", "2;2")
    assert code == 2
    assert "sizes" in stderr


def test_separations_default_sizes(tmp_path, capsys, zigzag_square):
    path = write_config(tmp_path, zigzag_square)
    code, stdout, _ = run(capsys, "separations", "--in", path, "--json")
    assert code == 0
    payload = json.loads(stdout)
    assert payload["count"] == 1
    assert payload["separations"][0]["side_a"] == ["p1", "p4"]


def test_separations_negative_source_dimension_exit_2(tmp_path, capsys):
    # m + source_d + 1 = 2 vectors, but no configuration has dimension -2
    path = tmp_path / "dia.json"
    path.write_text(json.dumps({
        "m": 3,
        "source_d": -2,
        "vectors": [
            {"label": "g1", "coords": ["1", "0", "0"]},
            {"label": "g2", "coords": ["2", "0", "0"]},
        ],
    }))
    code, _, stderr = run(capsys, "separations", "--in", str(path))
    assert code == 2
    assert "source_d" in stderr


def test_hamsandwich_cut(tmp_path, capsys):
    pts = tmp_path / "pts.json"
    run(capsys, "gen", "--kind", "moment", "--n", "8", "--d", "4", "-o", str(pts))
    code, stdout, _ = run(
        capsys, "hamsandwich", "--in", str(pts), "--c1", "p1,p2", "--c2", "p3,p4", "--json"
    )
    assert code == 0
    payload = json.loads(stdout)
    assert payload["fallback"] is False
    assert len(payload["separation"]["side_a"]) == 4


def test_hamsandwich_incomplete_exit_3_with_bundle(tmp_path, capsys, zigzag_square, monkeypatch):
    monkeypatch.chdir(tmp_path)
    path = write_config(tmp_path, zigzag_square)
    code, _, stderr = run(capsys, "hamsandwich", "--in", path, "--c1", "p1,p4", "--c2", "p2,p3")
    assert code == 3
    assert "SEARCH_INCOMPLETE" in stderr
    bundle = json.loads((tmp_path / REPRO_BUNDLE).read_text())
    assert bundle["argv"][0] == "hamsandwich"
    assert bundle["error_kind"] == "SearchIncompleteError"
    assert bundle["input"]["points"][0]["label"] == "p1"


def test_bogus_lp_witness_exit_3_with_bundle(tmp_path, capsys, cyclic_square, monkeypatch):
    # an "optimal" answer whose weights are not a relative-interior point must
    # surface as a typed invariant breach, never as an AssertionError
    bogus = LpResult(OPTIMAL, Fraction(1), (Fraction(1), Fraction(0), Fraction(0), Fraction(1)))
    monkeypatch.setattr(galecross.crossing, "lp_max_min", lambda a, b: bogus)
    with pytest.raises(TheoremViolationError):
        simplices_cross(cyclic_square, ["p1", "p3"], ["p2", "p4"])
    monkeypatch.chdir(tmp_path)
    path = write_config(tmp_path, cyclic_square)
    code, _, stderr = run(capsys, "cross", "--in", path, "--a", "p1,p3", "--b", "p2,p4")
    assert code == 3
    assert "THEOREM_VIOLATION" in stderr
    bundle = json.loads((tmp_path / REPRO_BUNDLE).read_text())
    assert bundle["argv"][0] == "cross"
    assert bundle["error_kind"] == "TheoremViolationError"


def test_schedule_eight_from_point_file(tmp_path, capsys):
    pts = tmp_path / "pts.json"
    run(capsys, "gen", "--kind", "moment", "--n", "8", "--d", "4", "-o", str(pts))
    code, stdout, _ = run(capsys, "schedule", "--kind", "eight", "--in", str(pts), "--json")
    assert code == 0
    payload = json.loads(stdout)
    assert payload["case_taken"] == "case_ii"
    assert len(payload["steps"]) == 4


def test_schedule_blocks_from_diagram_file(tmp_path, capsys):
    pts, dia = tmp_path / "pts.json", tmp_path / "dia.json"
    run(capsys, "gen", "--kind", "moment", "--n", "9", "--d", "5", "-o", str(pts))
    run(capsys, "gale", "--in", str(pts), "-o", str(dia))
    code, stdout, _ = run(capsys, "schedule", "--kind", "blocks", "--in", str(dia))
    assert code == 0
    assert "0 fallbacks" in stdout


def test_verify_commands(tmp_path, capsys):
    code, stdout, _ = run(capsys, "verify", "bijection", "--d", "2", "--n", "4", "--trials", "2")
    assert code == 0
    assert "2/2 trials passed" in stdout
    code, _, _ = run(capsys, "verify", "vkf", "--k", "1", "--trials", "3")
    assert code == 0
    code, _, stderr = run(capsys, "verify", "bijection", "--n", "4")
    assert code == 2
    assert "--d" in stderr


def test_verify_json_deterministic(tmp_path, capsys):
    outs = []
    for name in ("r1.json", "r2.json"):
        path = tmp_path / name
        code, _, _ = run(
            capsys, "verify", "duality", "--d", "2", "--n", "4",
            "--trials", "5", "--seed", "1", "-o", str(path),
        )
        assert code == 0
        outs.append(path.read_bytes())
    assert outs[0] == outs[1]


def test_verify_fixed_failure_exit_1(tmp_path, capsys, triangle_with_center):
    path = write_config(tmp_path, triangle_with_center)
    code, stdout, _ = run(capsys, "verify", "planar", "--fixed", path)
    assert code == 1
    assert "seed -1" in stdout


def test_verify_fixed_malformed_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, _, stderr = run(capsys, "verify", "planar", "--fixed", str(path))
    assert code == 2
    assert "error" in stderr


def test_verify_fixed_eight_moment(tmp_path, capsys):
    pts = tmp_path / "pts.json"
    run(capsys, "gen", "--kind", "moment", "--n", "8", "--d", "4", "-o", str(pts))
    code, stdout, _ = run(capsys, "verify", "eight", "--fixed", str(pts))
    assert code == 0
    assert "1/1 trials passed" in stdout


def test_bound_command(capsys):
    code, stdout, _ = run(
        capsys, "bound", "--n", "9", "--d", "4", "--cd-lower", "4",
        "--provenance", "eight-point",
    )
    assert code == 0
    assert "36 = 4 x C(9,8)" in stdout
    code, _, stderr = run(capsys, "bound", "--n", "7", "--d", "4", "--cd-lower", "1",
                          "--provenance", "eight-point")
    assert code == 2


def test_bad_provenance_rejected_by_parser(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bound", "--n", "8", "--d", "4", "--cd-lower", "1", "--provenance", "nope"])
    assert exc.value.code == 2


def test_diagram_where_points_expected(tmp_path, capsys):
    pts, dia = tmp_path / "pts.json", tmp_path / "dia.json"
    run(capsys, "gen", "--kind", "moment", "--n", "6", "--d", "3", "-o", str(pts))
    run(capsys, "gale", "--in", str(pts), "-o", str(dia))
    code, _, stderr = run(capsys, "count", "--in", str(dia), "--sizes", "3,3")
    assert code == 2
    assert "expected a point file" in stderr
