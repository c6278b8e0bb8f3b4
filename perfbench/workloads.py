"""The benchmark's workloads.

Each workload turns an operation's seed into inputs (``prepare``, untimed),
runs one operation on them (``run``, timed) and checks the result
(``check``, untimed; returns an empty string on success). Operation i of a
run uses the run's seed + i, so no two operations of a run share a
configuration. ``lib`` is the
namespace of freshly imported galecross modules (see run.py); workloads never
hold on to library objects across fresh imports.

``run`` returns a JSON-able record of everything the operation emitted; the
benchmark hashes it into the run's output digest.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from fractions import Fraction
from itertools import combinations

COORD_RANGE = 1000


class Bijection:
    """One trial of verify_bijection(d=3, n=7): the paper's central check over
    the whole stack. Its report already compares two independent algorithms."""

    name = "bijection"

    def prepare(self, lib, seed):
        return seed

    def run(self, lib, seed):
        report = lib.verify.verify_bijection(3, 7, 1, seed)
        return report.to_json_obj()

    def check(self, lib, seed, out):
        if out["check_name"] != "bijection d=3 n=7" or out["trials"] != 1:
            return f"unexpected report header {out['check_name']!r}/{out['trials']}"
        if out["passes"] != 1 or out["failures"]:
            return f"trial failed: {out['failures']}"
        return ""


def _orient(a, b, c):
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


def segment_crossings(points) -> int:
    """Crossing pairs of vertex-disjoint segments among integer points in
    general position, by the orientation predicate (independent of the LP)."""
    segments = list(combinations(range(len(points)), 2))
    count = 0
    for (a, b), (c, d) in combinations(segments, 2):
        if len({a, b, c, d}) < 4:
            continue
        pa, pb, pc, pd = (points[k] for k in (a, b, c, d))
        if _orient(pa, pb, pc) * _orient(pa, pb, pd) < 0 and (
            _orient(pc, pd, pa) * _orient(pc, pd, pb) < 0
        ):
            count += 1
    return count


class PlanarCount:
    """count_crossing_pairs(cfg, 2, 2) on 8 points in the plane: 210 tiny LPs,
    no diagram and no separations. Checked against the benchmark's own
    orientation-predicate count."""

    name = "planar-count"

    def prepare(self, lib, seed):
        return lib.configs.random_config(8, 2, seed, COORD_RANGE)

    def run(self, lib, config):
        return lib.crossing.count_crossing_pairs(config, 2, 2).to_json_obj()

    def check(self, lib, config, out):
        points = []
        for p in sorted(config.points, key=lambda p: p.label):
            if any(x.denominator != 1 for x in p.coords):
                return f"non-integer point {p.label}"
            points.append(tuple(int(x) for x in p.coords))
        expected = segment_crossings(points)
        if out["total_pairs_checked"] != 210:
            return f"checked {out['total_pairs_checked']} pairs, expected 210"
        if out["crossing_pairs"] != expected:
            return f"crossing count {out['crossing_pairs']} != orientation count {expected}"
        return ""


HAM_C1 = ("p1", "p2", "p3", "p4")
HAM_C2 = ("p5", "p6", "p7", "p8")
CLI_OUTPUTS = ("dia.json", "seps.json", "sched.json", "hs.json")


def _dot(u, v):
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


class DiagramCli:
    """An in-process CLI session on a point file of 10 points in R^6 (m = 3):
    gale, then separations, the block schedule and a ham sandwich cut, each
    reading the diagram file back. Makes no LP solve."""

    name = "diagram-cli"

    def prepare(self, lib, seed):
        path = f"pts-{seed}.json"
        lib.configs.random_config(10, 6, seed, COORD_RANGE).save(path)
        return path

    def run(self, lib, path):
        sessions = (
            ["gale", "--in", path, "-o", "dia.json"],
            ["separations", "--in", "dia.json", "-o", "seps.json"],
            ["schedule", "--kind", "blocks", "--in", "dia.json", "-o", "sched.json"],
            [
                "hamsandwich", "--in", "dia.json",
                "--c1", ",".join(HAM_C1), "--c2", ",".join(HAM_C2),
                "-o", "hs.json",
            ],
        )
        out, err = io.StringIO(), io.StringIO()
        codes = []
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            for argv in sessions:
                codes.append(lib.cli.main(argv))
        files = {}
        for name in CLI_OUTPUTS:
            with open(name) as handle:
                files[name] = handle.read()
        return {"codes": codes, "stdout": out.getvalue(), "stderr": err.getvalue(), "files": files}

    def check(self, lib, path, out):
        os.remove(path)
        if out["codes"] != [0, 0, 0, 0]:
            return f"exit codes {out['codes']}: {out['stderr'].strip()}"
        gale = lib.gale
        dia = gale.GaleDiagram.from_json_obj(json.loads(out["files"]["dia.json"]))
        if dia.m != 3 or dia.source_n != 10:
            return f"diagram has m={dia.m}, n={dia.source_n}"

        def separation(obj):
            return gale.LinearSeparation(
                frozenset(obj["side_a"]),
                frozenset(obj["side_b"]),
                tuple(Fraction(x) for x in obj["normal"]),
                tuple((lab, s) for lab, s in obj["shifts"]),
            )

        seps_obj = json.loads(out["files"]["seps.json"])
        seps = [separation(s) for s in seps_obj["separations"]]
        sched = [
            separation(step["separation"])
            for step in json.loads(out["files"]["sched.json"])["steps"]
        ]
        cut = separation(json.loads(out["files"]["hs.json"])["separation"])
        if seps_obj["count"] != len(seps) or not seps:
            return f"separation count {seps_obj['count']} vs {len(seps)} listed"
        for sep in seps + sched + [cut]:
            if sorted(sep.sizes()) != [5, 5]:
                return f"separation sizes {sep.sizes()}"
            if not gale.separation_classifies(dia, sep):
                return f"separation {sorted(sep.side_a)} fails separation_classifies"
        if len(set(sched)) != len(sched) or not sched:
            return "schedule separations are not distinct"
        for cls in (HAM_C1, HAM_C2):
            dots = [_dot(cut.witness_normal, dia.vector(lab)) for lab in cls]
            up = sum(1 for d in dots if d > 0)
            down = sum(1 for d in dots if d < 0)
            if up > len(cls) // 2 or down > len(cls) // 2:
                return f"cut leaves {up}/{down} of {cls} on open sides"
        return ""


WORKLOADS = {w.name: w for w in (Bijection(), PlanarCount(), DiagramCli())}
