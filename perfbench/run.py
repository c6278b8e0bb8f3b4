"""The galecross benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-check

Run from the root of a source checkout; the library is imported from
``src/`` of that checkout and nowhere else. One run is one process, one
thread, one closed-loop client: the next operation starts when the previous
one returns. Operation i uses seed + i.

A run first sets up (a fresh import of the library plus preparing the inputs
of the first operations, repeated SETUP_ROUNDS times; ``setup_s`` is the
median round), then runs operations until S seconds of operation time have
passed and at least MIN_OPS operations are done. Only the operation itself is
timed; preparing its inputs (generating a configuration, writing its file) and
checking its outputs happen between the timed windows.

Times are reported in nominal seconds. The speed of a shared machine swings
by about 20% between 10-second windows (measured on a 2-vCPU x86_64 VM, for
wall and CPU time alike), which would swamp the effect of most changes. So
every timed window is bracketed by two slices of a fixed reference
computation, and its measured seconds are scaled by REF_S / (the median time
of the last REF_WINDOW slices). The reference is exact Fraction arithmetic
written here: no change to the library can alter it, and it slows down with
the machine the way the library's own pure-Python arithmetic does. The raw
seconds and the reference times are printed on the detail line.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs the loop
untraced for S/2 seconds, then the same operations again under the
outside-in tracer of tracing.py after a fresh import, and prints per-layer
numbers per operation; ``trace.overhead_s`` is traced minus untraced nominal
time per operation.

The last line of stdout is the result object; the line before it gives
provenance, sample counts and the sha256 digest of the first MIN_OPS
operations' outputs (byte-identical across runs at the same seed).
``--self-check`` runs a few operations of every workload in both modes and
checks that every metric named in BENCHMARK.json is emitted.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import traceback
from collections import deque
from fractions import Fraction
from pathlib import Path
from time import perf_counter, process_time
from types import SimpleNamespace

from tracing import LAYERS, PACKAGE, Tracer
from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

# p75 of MIN_OPS operations has at least ten samples beyond it; the digest
# covers exactly the operations every run performs
MIN_OPS = 40
SETUP_ROUNDS = 9
SETUP_BATCH = 2
SELF_CHECK_OPS = 3
# nominal seconds of one reference slice: its typical time on the machine above
REF_S = 0.0015
REF_WINDOW = 8
REF_MATRIX = tuple(
    tuple(Fraction((i * 7 + j * 13) % 17 - 8, 1 + (i + j) % 5) for j in range(7))
    for i in range(7)
)


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _eliminate(matrix):
    a = [list(row) for row in matrix]
    n = len(a)
    for k in range(n):
        p = next(i for i in range(k, n) if a[i][k] != 0)
        a[k], a[p] = a[p], a[k]
        for i in range(k + 1, n):
            f = a[i][k] / a[k][k]
            a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    return a


def reference_slice():
    """Wall and CPU seconds of the fixed reference computation."""
    c0, t0 = process_time(), perf_counter()
    _eliminate(REF_MATRIX)
    _eliminate(REF_MATRIX)
    return perf_counter() - t0, process_time() - c0


class Nominal:
    """Times calls in nominal seconds against the median of the last
    REF_WINDOW reference slices, so one disturbed slice does not skew a call."""

    def __init__(self):
        self.walls = deque(maxlen=REF_WINDOW)
        self.cpus = deque(maxlen=REF_WINDOW)

    def _sample(self):
        wall, cpu = reference_slice()
        self.walls.append(wall)
        self.cpus.append(cpu)

    def timed(self, fn, *args):
        """fn(*args) between two reference slices: its result, and its raw
        and nominal wall and CPU seconds."""
        self._sample()
        c0, t0 = process_time(), perf_counter()
        result = fn(*args)
        wall, cpu = perf_counter() - t0, process_time() - c0
        self._sample()
        ref_wall, ref_cpu = statistics.median(self.walls), statistics.median(self.cpus)
        timing = SimpleNamespace(
            wall=wall,
            cpu=cpu,
            ref=ref_wall,
            nwall=wall * REF_S / ref_wall,
            ncpu=cpu * REF_S / ref_cpu,
        )
        return result, timing


def attempt(fn, *args):
    """(fn(*args), "") or (None, the traceback): a failed operation is
    counted, and the loop goes on."""
    try:
        return fn(*args), ""
    except Exception:
        return None, traceback.format_exc()


def fresh_import() -> SimpleNamespace:
    """Import the library anew, so module globals (the general-position cache)
    start empty; returns its layer modules by name."""
    for key in [k for k in sys.modules if k == PACKAGE or k.startswith(PACKAGE + ".")]:
        del sys.modules[key]
    package = importlib.import_module(PACKAGE)
    if Path(package.__file__).resolve().parent != SRC / PACKAGE:
        raise ImportError(f"{PACKAGE} was imported from {package.__file__}, not {SRC}")
    return SimpleNamespace(**{layer: importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS})


def _setup_round(workload, seed):
    lib = fresh_import()
    return lib, {i: workload.prepare(lib, seed + i) for i in range(SETUP_BATCH)}


def setup(workload, seed, clock):
    """SETUP_ROUNDS fresh set-ups; returns the last one and all their timings."""
    timings = []
    for _ in range(SETUP_ROUNDS):
        (lib, inputs), timing = clock.timed(_setup_round, workload, seed)
        timings.append(timing)
    return lib, inputs, timings


def run_loop(workload, lib, inputs, seed, clock, seconds, min_ops, max_ops=None, tracer=None):
    """Closed loop of operations: until `seconds` of operation time and
    min_ops operations, or exactly max_ops operations. Returns the number
    attempted, their timings, the failure details and the output digest of the
    first min_ops operations. A run whose every operation fails stops after
    min_ops of them."""
    timings, failures = [], []
    digest = hashlib.sha256()
    i = 0
    while len(failures) < min_ops and (
        i < max_ops if max_ops is not None else i < min_ops or sum(t.wall for t in timings) < seconds
    ):
        x, error = attempt(lambda: inputs.pop(i) if i in inputs else workload.prepare(lib, seed + i))
        out = None
        if not error:
            if tracer is not None:
                tracer.enabled = True
            (out, error), timing = clock.timed(attempt, workload.run, lib, x)
            if tracer is not None:
                tracer.enabled = False
            timings.append(timing)
        if not error:
            message, error = attempt(workload.check, lib, x, out)
            error = error or message
        if error:
            failures.append(f"op {i} (seed {seed + i}): {error}")
        if i < min_ops:
            digest.update((canonical({"op": i, "out": out, "error": bool(error)}) + "\n").encode())
        i += 1
    return SimpleNamespace(attempted=i, timings=timings, failures=failures, digest=digest.hexdigest())


def _git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_sha256():
    h = hashlib.sha256()
    for path in sorted((SRC / PACKAGE).rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def provenance(seed):
    return {
        "seed": seed,
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "platform": f"{platform.system()} {platform.release()} {platform.machine()}",
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "git_commit": _git_commit(),
        "source_sha256": _source_sha256(),
    }


def _p75(values):
    return statistics.quantiles(values, n=4, method="inclusive")[2]


def measure(workload, seed, seconds, trace, min_ops):
    """One benchmark run in a private working directory; returns the result
    object and the detail object."""
    workdir = tempfile.mkdtemp(prefix=".work-", dir=BENCH_DIR)
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        clock = Nominal()
        lib, inputs, setups = setup(workload, seed, clock)
        if not trace:
            loop = run_loop(workload, lib, inputs, seed, clock, seconds, min_ops)
            loops = [loop]
        else:
            plain = run_loop(workload, lib, inputs, seed, clock, seconds / 2, min_ops)
            lib = fresh_import()
            tracer = Tracer()
            tracer.install()
            try:
                loop = run_loop(
                    workload, lib, {}, seed, clock, 0, min_ops, max_ops=plain.attempted, tracer=tracer
                )
            finally:
                tracer.uninstall()
            loops = [plain, loop]
            if loop.digest != plain.digest:
                loop.failures.append("traced outputs differ from untraced outputs")
    finally:
        os.chdir(cwd)
        shutil.rmtree(workdir, ignore_errors=True)

    ops = loop.timings
    n = len(ops)
    nwall = [t.nwall for t in ops]
    raw = [t.wall for t in ops]
    if not trace:
        metrics = {
            "ops_per_s": (n / sum(nwall), "1/s"),
            "op_s_p50": (statistics.median(nwall), "s"),
            "op_s_p75": (_p75(nwall), "s"),
            "cpu_s_per_op": (sum(t.ncpu for t in ops) / n, "s"),
            "setup_s": (statistics.median(t.nwall for t in setups), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    else:
        # layer times are scaled by the traced phase's median nominal/raw ratio
        scale = statistics.median(t.nwall / t.wall for t in ops)
        metrics = tracer.per_op_metrics(n, sum(raw), scale)
        overhead = sum(nwall) - sum(t.nwall for t in plain.timings)
        metrics["trace.overhead_s"] = (overhead / n, "s/op")
    failures = [f for part in loops for f in part.failures]
    for failure in failures[:3]:
        print(failure, file=sys.stderr)
    attempted = sum(part.attempted for part in loops)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    detail = {
        "workload": workload.name,
        "mode": "trace" if trace else "end_to_end",
        "provenance": provenance(seed),
        "loop": "closed loop, one client, one thread, one process",
        "ops": n,
        "op_fail_ratio": len(failures) / attempted,
        "output_digest": loop.digest,
        "digest_ops": min_ops,
        "raw": {
            "timed_s": sum(raw),
            "ops_per_s": n / sum(raw),
            "op_s_p50": statistics.median(raw),
            "op_s_p75": _p75(raw),
            "cpu_s_per_op": sum(t.cpu for t in ops) / n,
            "setup_s": statistics.median(t.wall for t in setups),
            "reference_slice_s_p50": statistics.median(t.ref for t in ops),
            "reference_slice_nominal_s": REF_S,
        },
    }
    if trace:
        detail["waiting"] = "not applicable: single-threaded, no queues; spans are busy time"
    return result, detail


def self_check():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"] for m in spec["end_to_end"]},
        1: {m["name"] for m in spec["per_layer"]},
    }
    problems = []
    for name, workload in WORKLOADS.items():
        for trace in (0, 1):
            result, detail = measure(workload, 1, 0.0, trace, SELF_CHECK_OPS)
            got = set(result["metrics"])
            if got != expected[trace]:
                problems.append(
                    f"{name} trace={trace}: missing {sorted(expected[trace] - got)}, "
                    f"unexpected {sorted(got - expected[trace])}"
                )
            if not result["correct"]:
                problems.append(f"{name} trace={trace}: {result['failed']} failed operations")
            print(f"{name} trace={trace}: {result['attempted']} ops, digest {detail['output_digest'][:16]}")
    for problem in problems:
        print(f"self-check: {problem}", file=sys.stderr)
    print("self-check " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="galecross benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args(argv)
    if not args.self_check and None in (args.workload, args.seed, args.seconds):
        parser.error("--workload, --seed and --seconds are required")
    if not (SRC / PACKAGE / "__init__.py").is_file():
        print(f"error: no {PACKAGE} sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.self_check:
        return self_check()
    result, detail = measure(WORKLOADS[args.workload], args.seed, args.seconds, args.trace, MIN_OPS)
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
