"""Byte-for-byte golden corpus of the command line's canonical JSON.

Each case runs one `galecross` command in-process with both `--json` and
`-o FILE` and compares its exit code, its stdout and the written file against
`tests/golden/<case>.json`. Every input but one comes from `gen --kind random`
at a pinned seed, so the corpus pins the whole path from point generation to
the emitted bytes; the exception is a hand-written degenerate point file,
which no generator emits.

After a deliberate change of output, re-record the corpus with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import os
import tempfile
from pathlib import Path

import pytest

from galecross.cli import main

GOLDEN = Path(__file__).parent / "golden"

# six points in the plane whose first affinely dependent triple in label order
# is p2, p4, p5 (all on the line y = 2x), not the first triple scanned
DEGENERATE = (
    '{"dimension":2,"points":['
    '{"coords":["5","1"],"label":"p1"},{"coords":["0","0"],"label":"p2"},'
    '{"coords":["-3","2"],"label":"p3"},{"coords":["1","2"],"label":"p4"},'
    '{"coords":["2","4"],"label":"p5"},{"coords":["4","-3"],"label":"p6"}]}'
)


def _gen(n, d, seed):
    return ["gen", "--kind", "random", "--n", str(n), "--d", str(d), "--seed", str(seed)]


# commands whose outputs later cases read back, in dependency order; each one
# writes <case>.json into the shared working directory
SOURCES = [
    ("gen-10x6", _gen(10, 6, 3)),
    ("gen-9x5", _gen(9, 5, 4)),
    ("gen-8x4", _gen(8, 4, 5)),
    ("gen-7x2", _gen(7, 2, 6)),
    ("gale-10x6", ["gale", "--in", "gen-10x6.json"]),
    ("gale-9x5", ["gale", "--in", "gen-9x5.json"]),
    ("gale-8x4", ["gale", "--in", "gen-8x4.json"]),
]

CASES = SOURCES + [
    ("check-10x6", ["check", "--in", "gen-10x6.json"]),
    ("check-6x2-degenerate", ["check", "--in", "degenerate-6x2.json"]),
    ("separations-10x6", ["separations", "--in", "gale-10x6.json"]),
    ("separations-9x5-points", ["separations", "--in", "gen-9x5.json"]),
    ("schedule-blocks-10x6", ["schedule", "--kind", "blocks", "--in", "gale-10x6.json"]),
    ("schedule-blocks-9x5", ["schedule", "--kind", "blocks", "--in", "gale-9x5.json"]),
    ("schedule-eight-8x4", ["schedule", "--kind", "eight", "--in", "gale-8x4.json"]),
    (
        "hamsandwich-10x6-halves",
        ["hamsandwich", "--in", "gale-10x6.json", "--c1", "p1,p2,p3,p4", "--c2", "p5,p6,p7,p8"],
    ),
    (
        "hamsandwich-10x6-odd-even",
        ["hamsandwich", "--in", "gale-10x6.json", "--c1", "p1,p3,p5,p7,p9", "--c2", "p2,p4"],
    ),
    ("count-7x2-witnesses", ["count", "--in", "gen-7x2.json", "--sizes", "2,2", "--witnesses"]),
    (
        "verify-bijection",
        ["verify", "bijection", "--d", "3", "--n", "7", "--trials", "2", "--seed", "1"],
    ),
    ("verify-eight", ["verify", "eight", "--trials", "1", "--seed", "2"]),
    ("verify-vkf", ["verify", "vkf", "--k", "1", "--trials", "3", "--seed", "3"]),
    # seed 18 draws 5 points with a single crossing, below the planar floor of 2
    ("verify-planar", ["verify", "planar", "--n", "5", "--trials", "3", "--seed", "16"]),
    (
        "verify-duality",
        ["verify", "duality", "--d", "2", "--n", "5", "--trials", "20", "--seed", "5"],
    ),
]

# every other case exits 0
EXIT_CODES = {"check-6x2-degenerate": 1, "verify-planar": 1}


def _run(workdir, argv, outfile):
    """(exit code, stdout, text of the -o file) of one in-process CLI call."""
    stdout = io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(stdout):
            code = main(argv + ["--json", "-o", outfile])
        written = Path(outfile).read_text()
    finally:
        os.chdir(cwd)
    return code, stdout.getvalue(), written


def _prepare(workdir):
    (Path(workdir) / "degenerate-6x2.json").write_text(DEGENERATE)
    for name, argv in SOURCES:
        _run(workdir, argv, f"{name}.json")


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("golden")
    _prepare(path)
    return path


@pytest.mark.parametrize("name,argv", CASES, ids=[name for name, _ in CASES])
def test_golden(workdir, name, argv):
    code, stdout, written = _run(workdir, argv, f"out-{name}.json")
    expected = (GOLDEN / f"{name}.json").read_text()
    assert code == EXIT_CODES.get(name, 0)
    assert stdout == expected
    assert written == expected


def _record():
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        _prepare(tmp)
        for name, argv in CASES:
            code, stdout, written = _run(tmp, argv, f"out-{name}.json")
            assert stdout == written, name
            (GOLDEN / f"{name}.json").write_text(stdout)
            print(f"{name}: exit {code}, {len(stdout)} bytes")


if __name__ == "__main__":
    _record()
