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
from dataclasses import asdict, dataclass
from itertools import combinations

from .configs import PointConfig, SimplexPair, draw_config, lift_odd, random_config
from .crossing import (
    count_crossing_pairs, crossing_pair_set, disjoint_pair_count, extension_pairs,
    simplices_cross, vkf_find,
)
from .errors import InvalidInputError, SearchIncompleteError, TheoremViolationError
from .gale import gale_transform, proper_sizes, separation_to_crossing, verify_duality
from .separations import schedule_blocks, schedule_eight, enumerate_separations

DEFAULT_RANGE = 1000
EXHAUSTIVE_BUDGET = 10_000
BOUND_BIT_BUDGET = 10_000  # about 3000 decimal digits
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
        return asdict(self)


def require_budget(work: int, what: str) -> None:
    """Refuse `work` units of `what` above EXHAUSTIVE_BUDGET before any of
    them runs. Every exhaustive command and check states its budget here."""
    if work > EXHAUSTIVE_BUDGET:
        raise InvalidInputError(
            f"budget exceeded: {work} {what} > {EXHAUSTIVE_BUDGET}"
        )


def require_gp_budget(n: int, d: int) -> None:
    """Refuse n points in R^d whose general-position scan, one determinant
    per (d+1)-subset, would exceed the work budget."""
    if min(n, d) >= 0:  # negative sizes are refused where they are used
        require_budget(math.comb(n, d + 1), f"general-position determinants C({n},{d + 1})")


def _run_trials(check_name: str, trials: int, seed: int, single_trial) -> VerificationReport:
    """single_trial(trial_seed) returns a failure detail string, empty on pass;
    domain errors raised inside a trial count as failures of that trial. More
    than EXHAUSTIVE_BUDGET trials are refused before the first one runs."""
    if trials < 1:
        raise InvalidInputError(f"trials must be >= 1, got {trials}")
    require_budget(trials, "trials")
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


def _require_bijection_budget(n: int) -> None:
    """The direct count of n points enumerates C(n, floor(n/2)) partitions."""
    require_budget(math.comb(n, n // 2), f"exhaustive checks C({n},{n // 2})")


def check_bijection(config: PointConfig) -> str:
    """One configuration's crossing/separation correspondence, as a failure
    detail string (empty when everything matches).

    Checks exact count equality, that every enumerated separation maps to a
    source pair through its stored witness, and that the mapped pair set
    equals the directly counted pair set. Each pair of the direct set was
    found by the crossing LP and its certificate checked on the LP's own int
    numerators (crossing_pair_set; no CrossingWitness is built), so the set
    equality certifies every mapped pair without solving it again."""
    _require_bijection_budget(config.n)
    p, q = proper_sizes(config.n)
    diagram = gale_transform(config)
    separations = enumerate_separations(diagram, (p, q))
    direct_pairs = crossing_pair_set(config, p, q)
    if len(separations) != len(direct_pairs):
        return (
            f"separation count {len(separations)} != "
            f"direct crossing count {len(direct_pairs)}"
        )
    mapped = {separation_to_crossing(diagram, sep) for sep in separations}
    if mapped != direct_pairs:
        return "mapped pair set differs from the directly counted pair set"
    return ""


def verify_bijection(d: int, n: int, trials: int, seed: int) -> VerificationReport:
    """Random-trial check that separations and crossing pairs coincide exactly.

    Sizes are capped so the exhaustive side stays at desk scale, and both
    are refused before the first trial when out of range."""
    if d < 1 or n < d + 2 or not (n <= d + 6 or n == 2 * d):
        raise InvalidInputError("need d >= 1, n >= d+2, and n <= d+6 or n = 2d")
    _require_bijection_budget(n)

    def trial(trial_seed: int) -> str:
        return check_bijection(random_config(n, d, trial_seed, DEFAULT_RANGE))

    return _run_trials(f"bijection d={d} n={n}", trials, seed, trial)


def check_eight_points(config: PointConfig) -> str:
    """One 8-point configuration in R^4: at least four crossing (4,4)-pairs by
    direct count, at least four distinct separations from the four-cut
    schedule, and every schedule separation mapping to a pair of the direct
    count, which the crossing LP already certified (crossing_pair_set).

    The direct count touches only the crossing machinery and the schedule only
    the separation machinery, so a failure names the broken side."""
    if config.n != 8 or config.dimension != 4:
        return f"need 8 points in R^4, got {config.n} in R^{config.dimension}"
    crossing = crossing_pair_set(config, 4, 4)
    if len(crossing) < 4:
        return f"direct crossing count {len(crossing)} < 4"
    diagram = gale_transform(config)
    trace = schedule_eight(diagram)
    separations = trace.separations()
    if len(set(separations)) < 4:
        return f"schedule produced {len(set(separations))} distinct separations < 4"
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


def _missing_extension(extensions, crossing: set) -> str:
    """Failure detail naming the first (d,d) extension that is not a crossing
    pair of the direct count, empty when every one is."""
    for left, right in extensions:
        if SimplexPair(left, right) not in crossing:
            return (
                f"extension {sorted(left)}|{sorted(right)} is not a crossing "
                "pair of the direct count"
            )
    return ""


def _vkf_probe(config: PointConfig, crossing: set) -> str:
    """Witness-existence sub-check on the lexicographically first (d+3)-subset;
    odd dimensions go through the zero-coordinate lift first.

    Also extends the found pair to (d,d), pins the number of distributions to
    the exact binomial the extension arithmetic predicts, and requires every
    extension to be in `crossing`, the direct count's crossing (d,d) pairs."""
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
    if simplices_cross(config, pair.left, pair.right) is None:
        return "probe witness does not cross inside the full configuration"
    extensions = extension_pairs(config, pair, d)
    if len(extensions) != expected:
        return f"extension checked {len(extensions)} distributions, expected {expected}"
    return _missing_extension(extensions, crossing)


def _require_pipeline_dimension(d: int) -> None:
    if d not in (4, 5, 6):
        raise InvalidInputError("budget exceeded: pipeline supports d in {4, 5, 6}")


def check_pipeline(config: PointConfig) -> str:
    """One 2d-point configuration through the whole counting pipeline.

    The direct exhaustive count gives the set of crossing (d,d) pairs once
    (crossing_pair_set), and every (d,d) verdict below is read from it. The
    block schedule runs on (d+4)-subsets, must give at least floor(log2(d+4))
    separations on each, and each separation maps to a mid-size pair. These
    pairs are distinct by construction: each is a partition of its own
    subset, and one subset's separations are distinct. Each pair smaller than
    (d,d) is checked to cross by simplices_cross, and each of its extensions
    to (d,d) must be in the set: a crossing pair that spans R^d stays
    crossing when a point joins one side."""
    d = config.dimension
    _require_pipeline_dimension(d)
    if config.n != 2 * d:
        return f"pipeline needs 2d = {2 * d} points, got {config.n}"
    crossing = crossing_pair_set(config, d, d)
    labels = sorted(config.labels())
    log_bound = (d + 4).bit_length() - 1
    subsets = list(combinations(labels, d + 4))
    if d == 6:
        subsets = subsets[:SUBSET_CAP_D6]
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
        for sep in separations:
            pair = separation_to_crossing(diagram, sep)
            if pair.sizes() != (d, d) and simplices_cross(config, pair.left, pair.right) is None:
                return (
                    f"schedule pair {sorted(pair.left)}|{sorted(pair.right)} "
                    "does not cross"
                )
            detail = _missing_extension(extension_pairs(config, pair, d), crossing)
            if detail:
                return detail
    return _vkf_probe(config, crossing)


def verify_schedule_pipeline(d: int, trials: int, seed: int) -> VerificationReport:
    _require_pipeline_dimension(d)

    def trial(trial_seed: int) -> str:
        return check_pipeline(random_config(2 * d, d, trial_seed, DEFAULT_RANGE))

    return _run_trials(f"schedule pipeline d={d}", trials, seed, trial)


def check_vkf(config: PointConfig) -> str:
    """vkf_find's witness has k+1 labels a side. More than EXHAUSTIVE_BUDGET
    pairs are refused before the first LP, other shapes by vkf_find."""
    n, d = config.n, config.dimension
    size = d // 2 + 1
    if d % 2 == 0 and n == d + 3:
        pairs = disjoint_pair_count(n, size, size)
        require_budget(pairs, f"({size},{size})-pairs")
    witness = vkf_find(config)
    sizes = tuple(sorted((len(witness.pair.left), len(witness.pair.right))))
    if sizes != (size, size):
        return f"witness sizes {sizes} != ({size}, {size})"
    return ""


def verify_vkf(k: int, trials: int, seed: int) -> VerificationReport:
    if k not in (1, 2, 3):
        raise InvalidInputError("k must be 1, 2, or 3")
    n, d = 2 * k + 3, 2 * k

    def trial(trial_seed: int) -> str:
        return check_vkf(random_config(n, d, trial_seed, DEFAULT_RANGE))

    return _run_trials(f"vkf k={k}", trials, seed, trial)


def _require_planar_size(n: int) -> None:
    if not 4 <= n <= 10:
        raise InvalidInputError("n must be between 4 and 10")


def check_planar(config: PointConfig) -> str:
    """Direct planar segment-crossing count against ceil(0.375 C(n,4)), the
    cited planar lower-bound constant; exact integer ceiling, no floats."""
    if config.dimension != 2:
        raise InvalidInputError("planar check needs points in R^2")
    n = config.n
    _require_planar_size(n)
    threshold = (3 * math.comb(n, 4) + 7) // 8
    count = count_crossing_pairs(config, 2, 2).crossing_pairs
    if count < threshold:
        return f"crossing count {count} < ceil(0.375 C({n},4)) = {threshold}"
    return ""


def verify_planar_constant(n: int, trials: int, seed: int) -> VerificationReport:
    _require_planar_size(n)

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
    configurations occur. Each trial's spanning side checks C(n, d + 1)
    subsets, so that is refused over the budget before the first trial."""
    if d < 1:
        raise InvalidInputError("need d >= 1")
    if n < d + 2:
        raise InvalidInputError("need n >= d + 2")
    require_gp_budget(n, d)

    def trial(trial_seed: int) -> str:
        # no general-position rejection: degenerate samples are the point here
        return check_duality(draw_config(random.Random(trial_seed), n, d, 3))

    return _run_trials(f"position duality d={d} n={n}", trials, seed, trial)


# Each verify check: its random-trial runner, called with the values of its
# CLI parameters and then trials and seed; those parameters; its default
# trial count; and its one-configuration check.
CHECKS = {
    "bijection": (verify_bijection, ("d", "n"), 25, check_bijection),
    "duality": (verify_position_duality, ("d", "n"), 100, check_duality),
    "eight": (verify_eight_points, (), 100, check_eight_points),
    "pipeline": (verify_schedule_pipeline, ("d",), 5, check_pipeline),
    "vkf": (verify_vkf, ("k",), 50, check_vkf),
    "planar": (verify_planar_constant, ("n",), 50, check_planar),
}


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
    if d < 1:
        raise InvalidInputError("need d >= 1")
    if n < 2 * d:
        raise InvalidInputError("need n >= 2d")
    if cd_lower < 0:
        raise InvalidInputError("cd_lower must be nonnegative")
    if provenance not in PROVENANCES:
        raise InvalidInputError(f"provenance must be one of {PROVENANCES}")
    # C(n, k) <= n**k, so the bound has at most this many bits
    bits = min(2 * d, n - 2 * d) * n.bit_length() + cd_lower.bit_length()
    if bits > BOUND_BIT_BUDGET:
        raise InvalidInputError(
            f"budget exceeded: the bound may need {bits} bits > {BOUND_BIT_BUDGET}"
        )
    pairs = math.comb(n, 2 * d)
    return BoundReport(d, n, cd_lower, pairs, cd_lower * pairs, provenance)
