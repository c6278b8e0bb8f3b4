import copy
import io
import json
import os
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import galecross
import galecross.crossing
import galecross.separations
from conftest import config_from
from galecross import count_crossing_pairs, gale_transform, moment_curve_config, simplices_cross
from galecross.cli import REPRO_BUNDLE, build_parser, main
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


def test_gale_degenerate_small_m_exit_2(tmp_path, capsys):
    # 7 points in R^4 (m = 2 < d): p7 is the centroid of p2, p3, p4, p6 on
    # the moment curve, so the diagram does not span, and the error still
    # names the first affinely dependent 5-subset
    rows = [(f"p{t}", tuple(t**j for j in range(1, 5))) for t in range(1, 7)]
    centroid = tuple(Fraction(sum(t**j for t in (2, 3, 4, 6)), 4) for j in range(1, 5))
    path = write_config(tmp_path, config_from(4, rows + [("p7", centroid)]))
    code, stdout, stderr = run(capsys, "gale", "--in", path)
    assert code == 2
    assert stdout == ""
    assert stderr.splitlines() == [
        "error: configuration is not in general position: "
        "affinely dependent subset ['p2', 'p3', 'p4', 'p6', 'p7']"
    ]


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


@pytest.mark.parametrize(
    "argv",
    [
        ("cross", "--a", "p1,p1", "--b", "p2"),
        ("hamsandwich", "--c1", "p1,p1,p2", "--c2", "p3"),
    ],
    ids=["cross", "hamsandwich"],
)
def test_repeated_label_exit_2(tmp_path, capsys, argv):
    # a repeated label would collapse silently: cross would test {p1}
    # against {p2} and echo both copies, hamsandwich would bisect a 2-label class
    path = write_config(tmp_path, moment_curve_config(8, 4))
    code, stdout, stderr = run(capsys, argv[0], "--in", path, *argv[1:], "--json")
    assert code == 2
    assert stdout == ""
    assert "error: label 'p1' repeated" in stderr


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


@pytest.mark.parametrize(
    "argv,message",
    [
        (("cross", "--a", ",", "--b", "p2"), "empty label list"),
        (("count", "--sizes", "a,b"), "bad sizes"),
    ],
    ids=["cross-empty-labels", "count-non-integer-sizes"],
)
def test_bad_label_list_or_sizes_exit_2(tmp_path, capsys, cyclic_square, argv, message):
    path = write_config(tmp_path, cyclic_square)
    code, stdout, stderr = run(capsys, argv[0], "--in", path, *argv[1:])
    assert code == 2
    assert stdout == ""
    assert message in stderr


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


@pytest.mark.parametrize("joined", [False, True], ids=["in-separate", "in-joined"])
def test_bogus_lp_witness_exit_3_with_bundle(tmp_path, capsys, cyclic_square, monkeypatch, joined):
    # an "optimal" answer whose weights are not a relative-interior point must
    # surface as a typed invariant breach, never as an AssertionError
    bogus = LpResult(OPTIMAL, Fraction(1), (Fraction(1), Fraction(0), Fraction(0), Fraction(1)))
    monkeypatch.setattr(galecross.crossing, "lp_max_min", lambda a, b: bogus)
    with pytest.raises(TheoremViolationError):
        simplices_cross(cyclic_square, ["p1", "p3"], ["p2", "p4"])
    monkeypatch.chdir(tmp_path)
    path = write_config(tmp_path, cyclic_square)
    infile = [f"--in={path}"] if joined else ["--in", path]
    code, _, stderr = run(capsys, "cross", *infile, "--a", "p1,p3", "--b", "p2,p4")
    assert code == 3
    assert "THEOREM_VIOLATION" in stderr
    bundle = json.loads((tmp_path / REPRO_BUNDLE).read_text())
    assert bundle["argv"][0] == "cross"
    assert bundle["error_kind"] == "TheoremViolationError"
    assert bundle["input_path"] == path
    assert bundle["input"] == cyclic_square.to_json_obj()


@pytest.mark.parametrize(
    "bogus",
    [
        LpResult(OPTIMAL, Fraction(1), (Fraction(1), Fraction(0), Fraction(0), Fraction(1))),
        # positive weights summing to one on each side whose combinations
        # differ: 1/4 p1 + 3/4 p3 = (3/4, 3/4) but 1/2 p2 + 1/2 p4 = (1/2, 1/2)
        LpResult(OPTIMAL, Fraction(1, 4), [1, 3, 2, 2], 4),
    ],
    ids=["zero-weight", "unequal-combinations"],
)
def test_bogus_lp_verdict_exit_3_with_bundle(tmp_path, capsys, cyclic_square, monkeypatch, bogus):
    # a count without witnesses checks each LP answer on its int numerators;
    # one that is not a crossing certificate is an invariant breach there too
    monkeypatch.setattr(galecross.crossing, "lp_max_min", lambda a, b: bogus)
    for decide in (
        lambda: count_crossing_pairs(cyclic_square, 2, 2),
        lambda: simplices_cross(cyclic_square, ["p1", "p3"], ["p2", "p4"]),
    ):
        with pytest.raises(TheoremViolationError, match="failed exact re-validation"):
            decide()
    monkeypatch.chdir(tmp_path)
    path = write_config(tmp_path, cyclic_square)
    code, stdout, stderr = run(capsys, "count", "--in", path, "--sizes", "2,2")
    assert code == 3
    assert stdout == ""
    assert "THEOREM_VIOLATION" in stderr
    bundle = json.loads((tmp_path / REPRO_BUNDLE).read_text())
    assert bundle["argv"][0] == "count"
    assert bundle["error_kind"] == "TheoremViolationError"
    assert bundle["input_path"] == path
    assert bundle["input"] == cyclic_square.to_json_obj()


def test_count_missed_hyperplane_exit_3_with_bundle(tmp_path, capsys, cyclic_square, monkeypatch):
    # a non-crossing pair in general position with no separating hyperplane
    # contradicts the search's completeness; the LP's verdict is not taken
    monkeypatch.setattr(galecross.crossing, "_separated", lambda config, left, right: False)
    monkeypatch.chdir(tmp_path)
    path = write_config(tmp_path, cyclic_square)
    code, stdout, stderr = run(capsys, "count", "--in", path, "--sizes", "2,2")
    assert code == 3
    assert stdout == ""
    assert "THEOREM_VIOLATION" in stderr
    bundle = json.loads((tmp_path / REPRO_BUNDLE).read_text())
    assert bundle["argv"][0] == "count"
    assert bundle["error_kind"] == "TheoremViolationError"
    assert bundle["input"] == cyclic_square.to_json_obj()


def test_schedule_miss_exit_3_with_bundle(tmp_path, capsys, monkeypatch):
    # a schedule step without a cut contradicts the splitting lemma; forcing
    # one must surface as a typed invariant breach with a repro bundle
    monkeypatch.setattr(galecross.separations, "_splits", lambda group: lambda sep: False)
    monkeypatch.chdir(tmp_path)
    pts = tmp_path / "pts.json"
    run(capsys, "gen", "--kind", "moment", "--n", "9", "--d", "5", "-o", str(pts))
    code, stdout, stderr = run(capsys, "schedule", "--kind", "blocks", "--in", str(pts))
    assert code == 3
    assert stdout == ""
    assert "THEOREM_VIOLATION" in stderr
    bundle = json.loads((tmp_path / REPRO_BUNDLE).read_text())
    assert bundle["argv"][:2] == ["schedule", "--kind"]
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


def test_bound_nonpositive_d_exit_2(capsys):
    code, stdout, stderr = run(capsys, "bound", "--n", "9", "--d", "-1", "--cd-lower", "4",
                               "--provenance", "eight-point")
    assert code == 2
    assert stdout == ""
    assert "d >= 1" in stderr


@pytest.mark.parametrize("trials", ["-3", "0"])
def test_verify_nonpositive_trials_exit_2(capsys, trials):
    code, stdout, stderr = run(capsys, "verify", "planar", "--n", "6", "--trials", trials, "--json")
    assert code == 2
    assert stdout == ""
    assert "trials" in stderr


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


POINT_FILE = {
    "dimension": 2,
    "points": [
        {"label": "p1", "coords": ["0", "0"]},
        {"label": "p2", "coords": ["4", "0"]},
        {"label": "p3", "coords": ["0", "4"]},
    ],
}
DIAGRAM_FILE = {
    "m": 1,
    "source_d": 1,
    "vectors": [
        {"label": "g1", "coords": ["1"]},
        {"label": "g2", "coords": ["-2"]},
        {"label": "g3", "coords": ["1"]},
    ],
}


def _with(base, **fields):
    return json.dumps({**base, **fields}).encode()


def _relabeled(base, key, label):
    items = copy.deepcopy(base[key])
    items[0]["label"] = label
    return _with(base, **{key: items})


@pytest.mark.parametrize(
    "command,body",
    [
        ("check", _with(POINT_FILE, dimension="abc")),
        ("check", _with(POINT_FILE, dimension=2.9)),
        ("check", _with(POINT_FILE, dimension=True)),
        ("check", _with(POINT_FILE, points=[{"label": "p1", "coords": "12"}])),
        ("separations", _with(DIAGRAM_FILE, m="x")),
        ("separations", _with(DIAGRAM_FILE, source_d=1.0)),
        ("separations", _with(DIAGRAM_FILE, m=False)),
        ("check", b"\xff\xfe"),
        ("check", _relabeled(POINT_FILE, "points", None)),
        ("check", _relabeled(POINT_FILE, "points", 7)),
        ("check", _relabeled(POINT_FILE, "points", {"a": 1})),
        ("separations", _relabeled(DIAGRAM_FILE, "vectors", None)),
        ("separations", _relabeled(DIAGRAM_FILE, "vectors", 7)),
        ("separations", _relabeled(DIAGRAM_FILE, "vectors", {"a": 1})),
    ],
    ids=[
        "dimension-string",
        "dimension-float",
        "dimension-bool",
        "coords-string",
        "m-string",
        "source_d-float",
        "m-bool",
        "not-utf8",
        "label-null",
        "label-int",
        "label-object",
        "vector-label-null",
        "vector-label-int",
        "vector-label-object",
    ],
)
def test_malformed_header_exit_2(tmp_path, capsys, command, body):
    path = tmp_path / "bad.json"
    path.write_bytes(body)
    code, _, stderr = run(capsys, command, "--in", str(path))
    assert code == 2
    assert stderr.startswith("error:")


@pytest.mark.parametrize(
    "body,message",
    [
        (_with(DIAGRAM_FILE, m=0), "m must be >= 1"),
        (_relabeled(DIAGRAM_FILE, "vectors", "g2"), "duplicate diagram labels"),
        (
            _with(DIAGRAM_FILE, vectors=[{**DIAGRAM_FILE["vectors"][0], "coords": ["1", "2"]}]
                  + DIAGRAM_FILE["vectors"][1:]),
            "g1",
        ),
        (_with({}, rows=[]), "neither a point file nor a diagram file"),
    ],
    ids=["m-zero", "duplicate-label", "wrong-width", "neither"],
)
def test_diagram_file_row_checks_exit_2(tmp_path, capsys, body, message):
    path = tmp_path / "dia.json"
    path.write_bytes(body)
    code, stdout, stderr = run(capsys, "separations", "--in", str(path))
    assert code == 2
    assert stdout == ""
    assert message in stderr


def _replace_field(where, value):
    obj = copy.deepcopy(POINT_FILE)
    if where in ("label", "coords"):
        obj["points"][0][where] = value
    else:
        obj[where] = value
    return obj


JSON_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=6)
)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=10,
)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(["dimension", "points", "label", "coords"]), JSON_VALUES)
def test_check_never_raises_on_any_field_value(where, value):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "pts.json"
        path.write_text(json.dumps(_replace_field(where, value)))
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            code = main(["check", "--in", str(path)])
    assert code in (0, 1, 2)


DIAGRAM_8X4 = gale_transform(moment_curve_config(8, 4)).to_json_obj()
DIAGRAM_COMMANDS = (
    ("separations",),
    ("schedule", "--kind", "blocks"),
    # the classes split every label in halves, so on any spanning diagram a
    # bisecting candidate leaves at most 4 labels strictly on each side and a
    # cut with the proper sizes 4,4 exists: the search has no reason to exit 3
    ("hamsandwich", "--c1", "p1,p2,p3,p4", "--c2", "p5,p6,p7,p8"),
)


def _replace_diagram_field(where, index, value):
    obj = copy.deepcopy(DIAGRAM_8X4)
    if where in ("m", "source_d", "vectors"):
        obj[where] = value
    elif where == "coord":
        obj["vectors"][index]["coords"][index % 3] = value
    else:
        obj["vectors"][index][where] = value
    return obj


RATIONAL_TEXT = st.fractions(-5, 5, max_denominator=4).map(str)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    st.sampled_from(["m", "source_d", "vectors", "label", "coords", "coord"]),
    st.integers(0, 7),
    JSON_VALUES | RATIONAL_TEXT | st.lists(RATIONAL_TEXT, min_size=3, max_size=3),
)
def test_diagram_commands_never_raise_on_any_field_value(where, index, value):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "dia.json"
        path.write_text(json.dumps(_replace_diagram_field(where, index, value)))
        for command, *options in DIAGRAM_COMMANDS:
            with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                code = main([command, "--in", str(path), *options])
            assert code in (0, 1, 2), command


POINT_8X4 = moment_curve_config(8, 4).to_json_obj()
NESTED_DAMAGE = [
    *((POINT_8X4, where) for where in ("dimension", "points", "label", "coords", "coord")),
    *((DIAGRAM_8X4, where) for where in ("m", "source_d", "vectors", "label", "coords", "coord")),
]
NESTED_COMMANDS = (("check",), ("gale",), ("separations",), ("schedule", "--kind", "blocks"))


def _nested_text(obj, where, index, depth):
    """The JSON text of a valid file whose value at `where` is wrapped in
    `depth` lists; written by hand, since json.dumps itself refuses deep
    nesting."""
    obj = copy.deepcopy(obj)
    items = obj.get("points") or obj["vectors"]
    if where in obj:
        holder, key = obj, where
    elif where == "coord":
        holder, key = items[index]["coords"], 0
    else:
        holder, key = items[index], where
    value = holder[key]
    holder[key] = "@nested@"
    return json.dumps(obj).replace(
        json.dumps("@nested@"), "[" * depth + json.dumps(value) + "]" * depth
    )


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(
    st.sampled_from(NESTED_DAMAGE),
    st.integers(0, 7),
    st.integers(1, 40) | st.integers(500, 3000) | st.sampled_from([5000, 100_000]),
)
def test_nested_damage_exit_2(damage, index, depth):
    obj, where = damage
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "damaged.json"
        path.write_text(_nested_text(obj, where, index, depth))
        for command, *options in NESTED_COMMANDS:
            stderr = io.StringIO()
            with redirect_stdout(io.StringIO()), redirect_stderr(stderr):
                code = main([command, "--in", str(path), *options])
            assert code == 2, command
            assert stderr.getvalue().startswith("error:"), command


def _timed(capsys, *argv):
    start = time.perf_counter()
    code, _, stderr = run(capsys, *argv)
    return code, stderr, time.perf_counter() - start


def _diagram_file(tmp_path, n, m):
    vectors = [
        {"label": f"g{i}", "coords": [str(i**k) for k in range(m)]} for i in range(1, n + 1)
    ]
    path = tmp_path / "dia.json"
    path.write_text(json.dumps({"m": m, "source_d": n - m - 1, "vectors": vectors}))
    return str(path)


def test_count_over_budget_exit_2(tmp_path, capsys):
    pts = tmp_path / "pts.json"
    run(capsys, "gen", "--kind", "moment", "--n", "30", "--d", "2", "-o", str(pts))
    # C(30,15) * C(15,15) / 2 = 77558760 LPs
    code, stderr, elapsed = _timed(capsys, "count", "--in", str(pts), "--sizes", "15,15")
    assert code == 2
    assert "budget exceeded" in stderr and "77558760" in stderr
    assert elapsed < 1


def test_separations_over_budget_exit_2(tmp_path, capsys):
    # 20 vectors in R^8: C(20,7) * 2^7 = 9922560 candidate assignments
    path = _diagram_file(tmp_path, 20, 8)
    code, stderr, elapsed = _timed(capsys, "separations", "--in", path)
    assert code == 2
    assert "budget exceeded" in stderr and "9922560" in stderr
    assert elapsed < 1


def test_schedule_over_budget_exit_2(tmp_path, capsys):
    # 72 vectors in R^3: C(72,2) * 2^2 = 10224 candidate assignments
    path = _diagram_file(tmp_path, 72, 3)
    code, stderr, elapsed = _timed(capsys, "schedule", "--kind", "blocks", "--in", path)
    assert code == 2
    assert "budget exceeded" in stderr and "10224" in stderr
    assert elapsed < 1


@pytest.mark.parametrize("argv", [("check",), ("gale",), ("count", "--sizes", "1,1")])
def test_general_position_scan_over_budget_exit_2(tmp_path, capsys, argv):
    pts = tmp_path / "pts.json"
    run(capsys, "gen", "--kind", "moment", "--n", "30", "--d", "15", "-o", str(pts))
    # C(30,16) = 145422675 determinants
    code, stderr, elapsed = _timed(capsys, argv[0], "--in", str(pts), *argv[1:])
    assert code == 2
    assert "budget exceeded" in stderr and "145422675" in stderr
    assert elapsed < 1


@pytest.mark.parametrize(
    "argv",
    [
        ("separations",),
        ("hamsandwich", "--c1", "p1,p2", "--c2", "p3,p4"),
        ("schedule", "--kind", "blocks"),
    ],
)
def test_point_file_scan_over_budget_exit_2(tmp_path, capsys, argv):
    # 45 points in R^41: m = 3, so C(45,2) * 2^2 = 3960 candidate assignments
    # pass, but the point file needs C(45,42) = 14190 determinants first
    pts = tmp_path / "pts.json"
    run(capsys, "gen", "--kind", "moment", "--n", "45", "--d", "41", "-o", str(pts))
    code, stderr, elapsed = _timed(capsys, argv[0], "--in", str(pts), *argv[1:])
    assert code == 2
    assert "budget exceeded" in stderr and "14190" in stderr
    assert elapsed < 1


@pytest.mark.parametrize("what", ["bijection", "duality", "eight", "pipeline", "vkf", "planar"])
def test_verify_fixed_scan_over_budget_exit_2(tmp_path, capsys, what):
    pts = tmp_path / "pts.json"
    run(capsys, "gen", "--kind", "moment", "--n", "30", "--d", "15", "-o", str(pts))
    # C(30,16) = 145422675 determinants, refused before the check runs
    code, stderr, elapsed = _timed(capsys, "verify", what, "--fixed", str(pts))
    assert code == 2
    assert "budget exceeded" in stderr and "145422675" in stderr
    assert elapsed < 1


def test_verify_vkf_fixed_pairs_over_budget_exit_2(tmp_path, capsys):
    pts = tmp_path / "pts.json"
    run(capsys, "gen", "--kind", "moment", "--n", "15", "--d", "12", "-o", str(pts))
    # C(15,13) = 105 determinants pass, but vkf_find may try
    # C(15,7) * C(8,7) / 2 = 25740 pairs (was 38 s and exit 0)
    code, stderr, elapsed = _timed(capsys, "verify", "vkf", "--fixed", str(pts))
    assert code == 2
    assert "budget exceeded" in stderr and "25740" in stderr
    assert elapsed < 1


@pytest.mark.parametrize(
    "argv",
    [
        ("gen", "--kind", "random", "--n", "30", "--d", "15"),
        ("verify", "duality", "--d", "15", "--n", "30", "--trials", "1"),
    ],
)
def test_random_draw_scan_over_budget_exit_2(capsys, argv):
    # C(30,16) = 145422675 determinants per draw, refused before any draw
    code, stderr, elapsed = _timed(capsys, *argv)
    assert code == 2
    assert "budget exceeded" in stderr and "145422675" in stderr
    assert elapsed < 1


@pytest.mark.parametrize(
    "argv",
    [
        ("gen", "--kind", "random", "--n", "-3", "--d", "2"),
        ("gen", "--kind", "random", "--n", "3", "--d", "-5"),
        ("verify", "duality", "--d", "2", "--n", "-3", "--trials", "1"),
        # refused before any trial, not failed trial by trial (was exit 1)
        ("verify", "duality", "--d", "-5", "--n", "3", "--trials", "1"),
    ],
)
def test_random_draw_negative_sizes_exit_2(capsys, argv):
    # the budget check must leave negative sizes to the input checks
    code, stdout, stderr = run(capsys, *argv)
    assert code == 2
    assert stdout == "" and stderr.startswith("error:")


@pytest.mark.parametrize(
    "sizes",
    [
        # n = 2d below d + 2: was exit 1, every trial failing in gale_transform
        ("--d", "1", "--n", "2"),
        # negative sizes: was an uncaught ValueError from math.comb
        ("--d", "-1", "--n", "-2"),
    ],
)
def test_verify_bijection_bad_sizes_exit_2(capsys, sizes):
    code, stdout, stderr = run(capsys, "verify", "bijection", *sizes, "--trials", "1")
    assert code == 2
    assert stdout == "" and stderr.startswith("error: need d >= 1")


@pytest.mark.parametrize(
    "argv",
    [
        ("bijection", "--d", "2", "--n", "4"),
        ("duality", "--d", "2", "--n", "4"),
        ("eight",),
        ("pipeline", "--d", "4"),
        ("vkf", "--k", "1"),
        ("planar", "--n", "10"),
    ],
    ids=lambda argv: argv[0],
)
def test_verify_trials_over_budget_exit_2(capsys, argv):
    code, stderr, elapsed = _timed(capsys, "verify", *argv, "--trials", "100000000")
    assert code == 2
    assert "budget exceeded" in stderr and "100000000 trials" in stderr
    assert elapsed < 1


@pytest.mark.parametrize("n, d", [("1000000", "1000"), ("1000000000", "1000000")])
def test_bound_over_budget_exit_2(capsys, n, d):
    # C(n, 2d) would have over 4300 decimal digits, refused before math.comb
    argv = ("bound", "--n", n, "--d", d, "--cd-lower", "1", "--provenance", "eight-point")
    code, stderr, elapsed = _timed(capsys, *argv)
    assert code == 2
    assert "budget exceeded" in stderr
    assert elapsed < 1


def test_parser_is_built_once():
    assert build_parser() is build_parser()


def test_parse_error_leaves_shared_parser_intact(capsys):
    # the failing call sets the subcommand's defaults before --range fails
    with pytest.raises(SystemExit) as exc:
        main(["gen", "--kind", "random", "--n", "7", "--d", "2", "--range", "x"])
    assert exc.value.code == 2
    capsys.readouterr()
    argv = ["gen", "--kind", "random", "--n", "7", "--d", "2", "--json"]
    code, stdout, _ = run(capsys, *argv)
    fresh = subprocess.run(
        [sys.executable, "-m", "galecross", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(Path(galecross.__file__).parents[1])},
        check=False,
    )
    assert (code, stdout) == (fresh.returncode, fresh.stdout)
    assert json.loads(stdout)["points"]
