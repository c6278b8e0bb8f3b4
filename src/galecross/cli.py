"""Command-line front end.

Every command is pure input to output: read files, compute, emit. Human
summaries go to stdout; `--json` swaps the summary for canonical JSON and `-o`
writes the same JSON to a file atomically. Exit codes: 0 success, 1 a
verification or predicate failed (reports still emitted), 2 invalid input
(malformed file, degeneracy, budget), 3 an internal invariant broke, in which
case a reproduction bundle lands in the working directory.
"""

from __future__ import annotations

import argparse
import sys

from .configs import (
    PointConfig,
    find_degenerate_subset,
    moment_curve_config,
    random_config,
)
from .crossing import count_crossing_pairs, simplices_cross
from .errors import (
    GalecrossError,
    InvalidInputError,
    SearchIncompleteError,
    TheoremViolationError,
)
from .gale import GaleDiagram, gale_transform, proper_sizes
from .jsonio import atomic_write_text, canonical_dumps, load_json
from .separations import (
    HamSandwichInstance,
    enumerate_separations,
    ham_sandwich_cut,
    schedule_blocks,
    schedule_eight,
)
from . import verify as verify_ops

REPRO_BUNDLE = "galecross-repro.json"

TRIAL_DEFAULTS = {
    "bijection": 25,
    "duality": 100,
    "eight": 100,
    "pipeline": 5,
    "vkf": 50,
    "planar": 50,
}


def _labels(text: str) -> list[str]:
    out = [part.strip() for part in text.split(",") if part.strip()]
    if not out:
        raise InvalidInputError(f"empty label list: {text!r}")
    return out


def _sizes(text: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise InvalidInputError(f"sizes must be two comma-separated integers: {text!r}")
    try:
        return int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise InvalidInputError(f"bad sizes {text!r}") from exc


def _load_any(path: str):
    """Point or diagram file, told apart by their top-level key."""
    obj = load_json(path)
    if isinstance(obj, dict) and "points" in obj:
        return PointConfig.from_json_obj(obj)
    if isinstance(obj, dict) and "vectors" in obj:
        return GaleDiagram.from_json_obj(obj)
    raise InvalidInputError(f"{path}: neither a point file nor a diagram file")


def _load_config(path: str) -> PointConfig:
    loaded = _load_any(path)
    if not isinstance(loaded, PointConfig):
        raise InvalidInputError(f"{path}: expected a point file, found a diagram")
    return loaded


def _load_diagram(path: str) -> GaleDiagram:
    loaded = _load_any(path)
    if isinstance(loaded, PointConfig):
        return gale_transform(loaded)
    return loaded


def _cmd_gen(args) -> tuple[dict, str, int]:
    if args.kind == "moment":
        config = moment_curve_config(args.n, args.d)
    else:
        config = random_config(args.n, args.d, args.seed, args.coord_range)
    summary = (
        f"{args.kind} configuration {config.config_id()}: "
        f"{config.n} points in R^{config.dimension}"
    )
    return config.to_json_obj(), summary, 0


def _cmd_check(args) -> tuple[dict, str, int]:
    config = _load_config(args.infile)
    found = find_degenerate_subset(config)
    bad = None if found is None else sorted(found)
    gp = bad is None
    payload = {
        "config_id": config.config_id(),
        "n": config.n,
        "dimension": config.dimension,
        "general_position": gp,
        "degenerate_subset": bad,
    }
    if gp:
        return payload, f"{config.config_id()}: general position", 0
    return payload, f"{config.config_id()}: DEGENERATE, dependent subset {bad}", 1


def _cmd_gale(args) -> tuple[dict, str, int]:
    config = _load_config(args.infile)
    diagram = gale_transform(config)
    summary = f"diagram: {diagram.source_n} vectors in R^{diagram.m}"
    return diagram.to_json_obj(), summary, 0


def _cmd_cross(args) -> tuple[dict, str, int]:
    config = _load_config(args.infile)
    witness = simplices_cross(config, _labels(args.a), _labels(args.b))
    if witness is None:
        payload = {"crossing": False, "left": sorted(_labels(args.a)), "right": sorted(_labels(args.b))}
        return payload, "no crossing (relative interiors are disjoint)", 1
    payload = {"crossing": True, "witness": witness.to_json_obj()}
    return payload, f"crossing at {payload['witness']['point']}", 0


def _cmd_count(args) -> tuple[dict, str, int]:
    config = _load_config(args.infile)
    p, q = _sizes(args.sizes)
    result = count_crossing_pairs(config, p, q, keep_witnesses=args.witnesses)
    summary = (
        f"{result.crossing_pairs} crossing ({p},{q})-pairs "
        f"out of {result.total_pairs_checked} checked"
    )
    return result.to_json_obj(), summary, 0


def _cmd_separations(args) -> tuple[dict, str, int]:
    diagram = _load_diagram(args.infile)
    sizes = _sizes(args.sizes) if args.sizes else proper_sizes(diagram.source_n)
    seps = enumerate_separations(diagram, sizes)
    payload = {
        "sizes": list(sizes),
        "count": len(seps),
        "separations": [s.to_json_obj() for s in seps],
    }
    return payload, f"{len(seps)} separations with sizes {sizes}", 0


def _cmd_hamsandwich(args) -> tuple[dict, str, int]:
    diagram = _load_diagram(args.infile)
    inst = HamSandwichInstance(
        diagram.m, frozenset(_labels(args.c1)), frozenset(_labels(args.c2))
    )
    sizes = _sizes(args.sizes) if args.sizes else proper_sizes(diagram.source_n)
    sep = ham_sandwich_cut(diagram, inst, sizes)
    # the candidate family holds every bisecting separation, so no cut ever
    # comes from a fallback; the field stays for the output schema
    payload = {"separation": sep.to_json_obj(), "fallback": False}
    return payload, f"cut {sorted(sep.side_a)} | {sorted(sep.side_b)} via candidate family", 0


def _cmd_schedule(args) -> tuple[dict, str, int]:
    diagram = _load_diagram(args.infile)
    trace = schedule_eight(diagram) if args.kind == "eight" else schedule_blocks(diagram)
    payload = trace.to_json_obj()
    summary = (
        f"{len(trace.steps)} steps, {len(set(trace.separations()))} distinct "
        f"separations, {trace.fallback_count()} fallbacks"
        + (f", {trace.case_taken}" if trace.case_taken else "")
    )
    return payload, summary, 0


def _require(args, names):
    for name in names:
        if getattr(args, name) is None:
            raise InvalidInputError(f"verify {args.what} needs --{name}")


def _cmd_verify(args) -> tuple[dict, str, int]:
    trials = args.trials if args.trials is not None else TRIAL_DEFAULTS[args.what]
    seed = args.seed
    if args.fixed:
        config = _load_config(args.fixed)
        checks = {
            "bijection": verify_ops.check_bijection,
            "duality": verify_ops.check_duality,
            "eight": verify_ops.check_eight_points,
            "pipeline": verify_ops.check_pipeline,
            "vkf": verify_ops.check_vkf,
            "planar": verify_ops.check_planar,
        }
        report = verify_ops.fixed_report(args.what, config, checks[args.what])
    elif args.what == "bijection":
        _require(args, ("d", "n"))
        report = verify_ops.verify_bijection(args.d, args.n, trials, seed)
    elif args.what == "duality":
        _require(args, ("d", "n"))
        report = verify_ops.verify_position_duality(args.d, args.n, trials, seed)
    elif args.what == "eight":
        report = verify_ops.verify_eight_points(trials, seed)
    elif args.what == "pipeline":
        _require(args, ("d",))
        report = verify_ops.verify_schedule_pipeline(args.d, trials, seed)
    elif args.what == "vkf":
        _require(args, ("k",))
        report = verify_ops.verify_vkf(args.k, trials, seed)
    else:
        _require(args, ("n",))
        report = verify_ops.verify_planar_constant(args.n, trials, seed)
    summary = f"{report.check_name}: {report.passes}/{report.trials} trials passed"
    for seed_used, detail in report.failures[:5]:
        summary += f"\n  seed {seed_used}: {detail}"
    return report.to_json_obj(), summary, 0 if report.ok() else 1


def _cmd_bound(args) -> tuple[dict, str, int]:
    report = verify_ops.bound_report(args.n, args.d, args.cd_lower, args.provenance)
    summary = (
        f"crossing lower bound {report.implied_crossing_lower_bound} "
        f"= {report.cd_lower_used} x C({report.n},{2 * report.d}) "
        f"[{report.provenance}]"
    )
    return report.to_json_obj(), summary, 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="galecross",
        description=(
            "Exact rational toolkit for Gale diagrams, simplex crossings, and "
            "origin-hyperplane separations."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(p, infile=True):
        if infile:
            p.add_argument("--in", dest="infile", required=True, help="input JSON file")
        p.add_argument("-o", dest="outfile", help="write canonical JSON to this path")
        p.add_argument("--json", action="store_true", help="print JSON instead of a summary")

    p = sub.add_parser("gen", help="generate a point configuration")
    p.add_argument("--kind", choices=("moment", "random"), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--range", dest="coord_range", type=int, default=1000)
    add_io(p, infile=False)
    p.set_defaults(fn=_cmd_gen)

    p = sub.add_parser("check", help="validate a point file and test general position")
    add_io(p)
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("gale", help="compute the Gale diagram of a point file")
    add_io(p)
    p.set_defaults(fn=_cmd_gale)

    p = sub.add_parser("cross", help="test whether two disjoint simplices cross")
    p.add_argument("--a", required=True, help="comma-separated labels of one side")
    p.add_argument("--b", required=True, help="comma-separated labels of the other side")
    add_io(p)
    p.set_defaults(fn=_cmd_cross)

    p = sub.add_parser("count", help="exhaustively count crossing pairs")
    p.add_argument("--sizes", required=True, help="part sizes, e.g. 4,4")
    p.add_argument("--witnesses", action="store_true", help="keep witness details")
    add_io(p)
    p.set_defaults(fn=_cmd_count)

    p = sub.add_parser("separations", help="enumerate proper linear separations")
    p.add_argument("--sizes", help="part sizes (default: floor/ceil of n/2)")
    add_io(p)
    p.set_defaults(fn=_cmd_separations)

    p = sub.add_parser("hamsandwich", help="find a bisecting separation for two color classes")
    p.add_argument("--c1", required=True, help="comma-separated labels of color 1")
    p.add_argument("--c2", required=True, help="comma-separated labels of color 2")
    p.add_argument("--sizes", help="part sizes (default: floor/ceil of n/2)")
    add_io(p)
    p.set_defaults(fn=_cmd_hamsandwich)

    p = sub.add_parser("schedule", help="run a coloring schedule on a diagram")
    p.add_argument("--kind", choices=("eight", "blocks"), required=True)
    add_io(p)
    p.set_defaults(fn=_cmd_schedule)

    p = sub.add_parser("verify", help="run an end-to-end verification")
    p.add_argument(
        "what",
        choices=("bijection", "duality", "eight", "pipeline", "vkf", "planar"),
    )
    p.add_argument("--d", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--trials", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--fixed", help="point file replacing the random trials")
    add_io(p, infile=False)
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("bound", help="exact crossing-number bound arithmetic")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--cd-lower", dest="cd_lower", type=int, required=True)
    p.add_argument("--provenance", choices=verify_ops.PROVENANCES, required=True)
    add_io(p, infile=False)
    p.set_defaults(fn=_cmd_bound)

    return parser


def _write_repro(argv, exc) -> str:
    bundle = {
        "argv": list(argv),
        "error_kind": type(exc).__name__,
        "error": str(exc),
    }
    infile = None
    for flag in ("--in", "--fixed"):
        if flag in argv:
            infile = argv[argv.index(flag) + 1]
    if infile:
        bundle["input_path"] = infile
        try:
            bundle["input"] = load_json(infile)
        except GalecrossError:
            bundle["input"] = None
    atomic_write_text(REPRO_BUNDLE, canonical_dumps(bundle))
    return REPRO_BUNDLE


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        payload, summary, code = args.fn(args)
    except InvalidInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (TheoremViolationError, SearchIncompleteError) as exc:
        path = _write_repro(argv, exc)
        print(f"invariant breach: {exc}", file=sys.stderr)
        print(f"reproduction bundle written to {path}", file=sys.stderr)
        return 3
    text = canonical_dumps(payload)
    if args.outfile:
        atomic_write_text(args.outfile, text)
    if args.json:
        sys.stdout.write(text)
    else:
        print(summary)
    return code
