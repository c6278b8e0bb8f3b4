"""End-to-end verification harness plus exact bound arithmetic.

Every check runs seeded, enumerable trials (trial i uses seed + i) so each
failure ships with the integer that reproduces it. Reports carry elapsed wall
time as an attribute but keep it out of the JSON form, which must be
byte-identical across reruns of the same parameters.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass
from itertools import combinations

from .configs import PointConfig, draw_config, lift_odd, random_config
from .crossing import count_crossing_pairs, extend_crossing, simplices_cross, vkf_find
from .errors import InvalidInputError, SearchIncompleteError, TheoremViolationError
from .gale import gale_transform, proper_sizes, separation_to_crossing, verify_duality
from .separations import schedule_blocks, schedule_eight, enumerate_separations

DEFAULT_RANGE = 1000
EXHAUSTIVE_BUDGET = 10_000
SUBSET_CAP_D6 = 40

PROVENANCES = ("eight-point", "block-schedule", "direct-count")


@dataclass(frozen=True)
class VerificationReport:
    check_name: str
    trials: int
    passes: int
    failures: tuple  # of (seed, detail) pairs
    elapsed: float = 0.0

    def ok(self) -> bool:
        return not self.failures

    def to_json_obj(self) -> dict:
        return {
            "check_name": self.check_name,
            "trials": self.trials,
            "passes": self.passes,
            "failures": [
                {"seed": seed, "detail": detail} for seed, detail in self.failures
            ],
        }


@dataclass(frozen=True)
class BoundReport:
    d: int
    n: int
    cd_lower_used: int
    pairs_choose: int
    implied_crossing_lower_bound: int
    provenance: str

    def to_json_obj(self) -> dict:
        return {
            "d": self.d,
            "n": self.n,
            "cd_lower_used": self.cd_lower_used,
            "pairs_choose": self.pairs_choose,
            "implied_crossing_lower_bound": self.implied_crossing_lower_bound,
            "provenance": self.provenance,
        }


def _run_trials(check_name: str, trials: int, seed: int, single_trial) -> VerificationReport:
    """single_trial(trial_seed) returns a failure detail string, empty on pass;
    domain errors raised inside a trial count as failures of that trial."""
    start = time.monotonic()
    failures = []
    for i in range(trials):
        trial_seed = seed + i
        try:
            detail = single_trial(trial_seed)
        except (InvalidInputError, TheoremViolationError, SearchIncompleteError) as exc:
            detail = f"{type(exc).__name__}: {exc}"
        if detail:
            failures.append((trial_seed, detail))
    elapsed = time.monotonic() - start
    return VerificationReport(
        check_name, trials, trials - len(failures), tuple(failures), elapsed
    )


def check_bijection(config: PointConfig) -> str:
    """One configuration's crossing/separation correspondence, as a failure
    detail string (empty when everything matches).

    Checks exact count equality, that every enumerated separation maps to a
    source pair through its stored witness, and that the mapped pair set
    equals the directly counted pair set. Each pair of the direct count was
    found by the crossing LP and re-checked by CrossingWitness.validate, so
    the set equality certifies every mapped pair without solving it again."""
    n = config.n
    if math.comb(n, n // 2) > EXHAUSTIVE_BUDGET:
        raise InvalidInputError(
            f"budget exceeded: C({n},{n // 2}) > {EXHAUSTIVE_BUDGET} exhaustive checks"
        )
    p, q = proper_sizes(n)
    diagram = gale_transform(config)
    separations = enumerate_separations(diagram, (p, q))
    direct = count_crossing_pairs(config, p, q, keep_witnesses=True)
    if len(separations) != direct.crossing_pairs:
        return (
            f"separation count {len(separations)} != "
            f"direct crossing count {direct.crossing_pairs}"
        )
    direct_pairs = {w.pair for w in direct.witnesses}
    mapped = {separation_to_crossing(diagram, sep) for sep in separations}
    if mapped != direct_pairs:
        return "mapped pair set differs from the directly counted pair set"
    return ""


def verify_bijection(d: int, n: int, trials: int, seed: int) -> VerificationReport:
    """Random-trial check that separations and crossing pairs coincide exactly.

    Sizes are capped so the exhaustive side stays at desk scale: the direct
    count enumerates C(n, floor(n/2)) partitions per trial."""
    if not (d + 2 <= n <= d + 6 or n == 2 * d):
        raise InvalidInputError("need d+2 <= n <= d+6, or n = 2d")
    if math.comb(n, n // 2) > EXHAUSTIVE_BUDGET:
        raise InvalidInputError(
            f"budget exceeded: C({n},{n // 2}) > {EXHAUSTIVE_BUDGET} exhaustive checks"
        )

    def trial(trial_seed: int) -> str:
        return check_bijection(random_config(n, d, trial_seed, DEFAULT_RANGE))

    return _run_trials(f"bijection d={d} n={n}", trials, seed, trial)


def check_eight_points(config: PointConfig) -> str:
    """One 8-point configuration in R^4: at least four crossing (4,4)-pairs by
    direct count, at least four distinct separations from the four-cut
    schedule, and every schedule separation mapping to a pair of the direct
    count, which the crossing LP already certified.

    The direct count touches only the crossing machinery and the schedule only
    the separation machinery, so a failure names the broken side."""
    if config.n != 8 or config.dimension != 4:
        return f"need 8 points in R^4, got {config.n} in R^{config.dimension}"
    direct = count_crossing_pairs(config, 4, 4, keep_witnesses=True)
    if direct.crossing_pairs < 4:
        return f"direct crossing count {direct.crossing_pairs} < 4"
    diagram = gale_transform(config)
    trace = schedule_eight(diagram)
    separations = trace.separations()
    if len(set(separations)) < 4:
        return f"schedule produced {len(set(separations))} distinct separations < 4"
    crossing = {w.pair for w in direct.witnesses}
    for sep in separations:
        if separation_to_crossing(diagram, sep) not in crossing:
            return (
                f"schedule separation {sorted(sep.side_a)} maps to a "
                "non-crossing pair"
            )
    return ""


def verify_eight_points(trials: int, seed: int) -> VerificationReport:
    def trial(trial_seed: int) -> str:
        return check_eight_points(random_config(8, 4, trial_seed, DEFAULT_RANGE))

    return _run_trials("eight-point schedule", trials, seed, trial)


def _vkf_probe(config: PointConfig) -> str:
    """Witness-existence sub-check on the lexicographically first (d+3)-subset;
    odd dimensions go through the zero-coordinate lift first.

    Also extends the found pair to (d,d) and pins the number of candidate
    distributions to the exact binomial the extension arithmetic predicts."""
    d = config.dimension
    labels = sorted(config.labels())
    probe = config.subset(labels[: d + 3])
    if d % 2 == 0:
        witness = vkf_find(probe)
        pair = witness.pair
        expected = math.comb(d - 2, (d - 2) // 2)
    else:
        lifted_witness = vkf_find(lift_odd(probe))
        pair = lifted_witness.pair
        if "dummy" in pair.left | pair.right:
            return "lifted witness uses the apex point"
        expected = math.comb(d - 3, (d - 3) // 2)
    full_witness = simplices_cross(config, pair.left, pair.right)
    if full_witness is None:
        return "probe witness does not cross inside the full configuration"
    extension = extend_crossing(config, full_witness, d)
    if extension.distributions_checked != expected:
        return (
            f"extension checked {extension.distributions_checked} "
            f"distributions, expected {expected}"
        )
    if not extension.witnesses:
        return (
            f"no extension of {sorted(pair.left)}|{sorted(pair.right)} crosses "
            f"(0 of {extension.distributions_checked} distributions)"
        )
    return ""


def check_pipeline(config: PointConfig) -> str:
    """One 2d-point configuration through the whole counting pipeline.

    Runs the block schedule on (d+4)-subsets, maps each separation to a
    mid-size crossing pair, extends to full (d,d) pairs, dedupes globally, and
    checks the direct exhaustive count dominates the deduped schedule-derived
    count while the raw separation total meets floor(log2(d+4)) per subset."""
    d = config.dimension
    if d not in (4, 5, 6):
        raise InvalidInputError("budget exceeded: pipeline supports d in {4, 5, 6}")
    if config.n != 2 * d:
        return f"pipeline needs 2d = {2 * d} points, got {config.n}"
    labels = sorted(config.labels())
    log_bound = (d + 4).bit_length() - 1
    subsets = list(combinations(labels, d + 4))
    if d == 6:
        subsets = subsets[:SUBSET_CAP_D6]
    raw = 0
    derived = set()
    for subset_labels in subsets:
        sub = config.subset(subset_labels)
        diagram = gale_transform(sub)
        trace = schedule_blocks(diagram)
        separations = trace.separations()
        if len(separations) < log_bound:
            return (
                f"subset {subset_labels}: {len(separations)} separations "
                f"< floor-log bound {log_bound}"
            )
        if d == 4 and len(separations) < 4:
            return f"eight-vector subset gave {len(separations)} separations < 4"
        raw += len(separations)
        for sep in separations:
            pair = separation_to_crossing(diagram, sep)
            witness = simplices_cross(config, pair.left, pair.right)
            if witness is None:
                return (
                    f"schedule pair {sorted(pair.left)}|{sorted(pair.right)} "
                    "does not cross"
                )
            extension = extend_crossing(config, witness, d)
            derived.update(w.pair for w in extension.witnesses)
    vkf_detail = _vkf_probe(config)
    if vkf_detail:
        return vkf_detail
    direct = count_crossing_pairs(config, d, d).crossing_pairs
    if direct < len(derived):
        return f"direct count {direct} < deduped schedule-derived count {len(derived)}"
    if raw < log_bound * len(subsets):
        return (
            f"raw separation total {raw} < {log_bound} x {len(subsets)} subsets"
        )
    return ""


def verify_schedule_pipeline(d: int, trials: int, seed: int) -> VerificationReport:
    if d not in (4, 5, 6):
        raise InvalidInputError("budget exceeded: pipeline supports d in {4, 5, 6}")

    def trial(trial_seed: int) -> str:
        return check_pipeline(random_config(2 * d, d, trial_seed, DEFAULT_RANGE))

    return _run_trials(f"schedule pipeline d={d}", trials, seed, trial)


def check_vkf(config: PointConfig) -> str:
    witness = vkf_find(config)
    k = config.dimension // 2
    sizes = tuple(sorted((len(witness.pair.left), len(witness.pair.right))))
    if sizes != (k + 1, k + 1):
        return f"witness sizes {sizes} != ({k + 1}, {k + 1})"
    return ""


def verify_vkf(k: int, trials: int, seed: int) -> VerificationReport:
    if k not in (1, 2, 3):
        raise InvalidInputError("k must be 1, 2, or 3")
    n, d = 2 * k + 3, 2 * k

    def trial(trial_seed: int) -> str:
        return check_vkf(random_config(n, d, trial_seed, DEFAULT_RANGE))

    return _run_trials(f"vkf k={k}", trials, seed, trial)


def check_planar(config: PointConfig) -> str:
    """Direct planar segment-crossing count against ceil(0.375 C(n,4)), the
    cited planar lower-bound constant; exact integer ceiling, no floats."""
    if config.dimension != 2:
        raise InvalidInputError("planar check needs points in R^2")
    n = config.n
    if not 4 <= n <= 10:
        raise InvalidInputError("n must be between 4 and 10")
    threshold = (3 * math.comb(n, 4) + 7) // 8
    count = count_crossing_pairs(config, 2, 2).crossing_pairs
    if count < threshold:
        return f"crossing count {count} < ceil(0.375 C({n},4)) = {threshold}"
    return ""


def verify_planar_constant(n: int, trials: int, seed: int) -> VerificationReport:
    if not 4 <= n <= 10:
        raise InvalidInputError("n must be between 4 and 10")

    def trial(trial_seed: int) -> str:
        return check_planar(random_config(n, 2, trial_seed, DEFAULT_RANGE))

    return _run_trials(f"planar constant n={n}", trials, seed, trial)


def check_duality(config: PointConfig) -> str:
    if not verify_duality(config):
        return "position/spanning equivalence failed"
    return ""


def verify_position_duality(d: int, n: int, trials: int, seed: int) -> VerificationReport:
    """Trials of the general-position/spanning equivalence over raw unrejected
    samples with a tiny coordinate range, so both degenerate and generic
    configurations occur."""
    if n < d + 2:
        raise InvalidInputError("need n >= d + 2")

    def trial(trial_seed: int) -> str:
        # no general-position rejection: degenerate samples are the point here
        return check_duality(draw_config(random.Random(trial_seed), n, d, 3))

    return _run_trials(f"position duality d={d} n={n}", trials, seed, trial)


def fixed_report(check_name: str, config: PointConfig, check) -> VerificationReport:
    """Single-configuration report; the failure seed is the sentinel -1 since
    no generator seed exists. Malformed inputs raise instead of failing."""
    start = time.monotonic()
    try:
        detail = check(config)
    except (TheoremViolationError, SearchIncompleteError) as exc:
        detail = f"{type(exc).__name__}: {exc}"
    if detail:
        detail = f"{config.config_id()}: {detail}"
        failures = ((-1, detail),)
    else:
        failures = ()
    elapsed = time.monotonic() - start
    return VerificationReport(
        f"{check_name} fixed", 1, 1 - len(failures), failures, elapsed
    )


def bound_report(n: int, d: int, cd_lower: int, provenance: str) -> BoundReport:
    """Exact big-integer bound arithmetic: cd_lower x C(n, 2d)."""
    if n < 2 * d:
        raise InvalidInputError("need n >= 2d")
    if cd_lower < 0:
        raise InvalidInputError("cd_lower must be nonnegative")
    if provenance not in PROVENANCES:
        raise InvalidInputError(f"provenance must be one of {PROVENANCES}")
    pairs = math.comb(n, 2 * d)
    return BoundReport(d, n, cd_lower, pairs, cd_lower * pairs, provenance)
