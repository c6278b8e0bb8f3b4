"""Outside-in tracing of the galecross layers.

The library modules bind each other's functions with ``from .x import f``, so
a function has one binding in its own module and one more in every module that
imports it. ``Tracer.install`` wraps the public module-level functions of each
layer and replaces *every* binding of them across the loaded galecross
modules, so calls made from any layer are seen. ``Tracer.uninstall`` puts the
originals back.

Each wrapped call is a span. A span's self time is its duration minus the time
covered by its direct child spans, and a layer's self time is the sum over the
layer's functions. Generator functions are not wrapped (their work runs when
the consumer iterates, so it lands in the consumer's span). ``lp._pivot`` is
the one private function hooked, and it is only counted, never timed: a
``bijection`` operation makes hundreds of pivots.

Everything is single-threaded with no queues, so spans record busy time only;
no work ever waits for a layer.
"""

from __future__ import annotations

import inspect
import sys
from collections import Counter, defaultdict
from functools import wraps
from time import perf_counter

LAYERS = (
    "rationals",
    "jsonio",
    "linalg",
    "lp",
    "configs",
    "gale",
    "crossing",
    "separations",
    "verify",
    "cli",
)
PACKAGE = "galecross"
SCHEDULES = ("separations.schedule_blocks", "separations.schedule_eight")


def _public_functions(module):
    for name, obj in vars(module).items():
        if (
            not name.startswith("_")
            and inspect.isfunction(obj)
            and obj.__module__ == module.__name__
            and not inspect.isgeneratorfunction(obj)
        ):
            yield name, obj


class Tracer:
    """Span and counter collector for one traced phase."""

    def __init__(self):
        self.calls = Counter()  # "layer.function" -> calls
        self.self_s = defaultdict(float)  # "layer.function" -> self seconds
        self.pivots = 0
        self.gp_cache_misses = 0
        self.crossings = 0
        self.separations_found = 0
        self.schedule_steps = 0
        self.schedule_fallbacks = 0
        self.bytes_written = 0
        self.enabled = False  # on only inside the timed operation windows
        self._stack = []
        self._restore = []

    # -- observers: counts read off a call's arguments or result -------------

    def _observe(self, name, parent, args, result):
        if name == "crossing.simplices_cross":
            self.crossings += result is not None
        elif name == "configs.is_general_position" and parent == "crossing.is_gp_cached":
            self.gp_cache_misses += 1
        elif name == "separations.enumerate_separations":
            self.separations_found += len(result)
        elif name in SCHEDULES and parent not in SCHEDULES:
            # schedule_blocks delegates to schedule_eight on 8 vectors; count
            # the outermost trace only
            self.schedule_steps += len(result.steps)
            self.schedule_fallbacks += result.fallback_count()
        elif name == "jsonio.atomic_write_text":
            self.bytes_written += len(args[1].encode())

    def _span(self, name, fn):
        tracer = self

        @wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stack = tracer._stack
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                stack.pop()
                tracer.self_s[name] += duration - frame[1]
                tracer.calls[name] += 1
                if stack:
                    stack[-1][1] += duration
            tracer._observe(name, parent, args, result)
            return result

        return wrapper

    def _counter(self, fn):
        tracer = self

        @wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.pivots += tracer.enabled
            return fn(*args, **kwargs)

        return wrapper

    # -- installation -------------------------------------------------------

    def install(self):
        """Wrap every binding of every traced function in the loaded package."""
        modules = [
            m
            for key, m in sys.modules.items()
            if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))
        ]
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"{PACKAGE}.{layer}"]
            for name, fn in _public_functions(module):
                wrappers[id(fn)] = (fn, self._span(f"{layer}.{name}", fn))
        pivot = sys.modules[f"{PACKAGE}.lp"]._pivot
        wrappers[id(pivot)] = (pivot, self._counter(pivot))
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def uninstall(self):
        for module, attr, value in reversed(self._restore):
            setattr(module, attr, value)
        self._restore.clear()

    # -- reporting ----------------------------------------------------------

    def layer_self_s(self, layer: str) -> float:
        prefix = layer + "."
        return sum(v for k, v in self.self_s.items() if k.startswith(prefix))

    def per_op_metrics(self, ops: int, op_wall_s: float, scale: float) -> dict:
        """Per-layer numbers per operation, as (value, unit) pairs. Seconds
        (span times and the raw op wall time) are multiplied by `scale` to give
        nominal seconds."""
        c = self.calls
        solves = c["lp.simplex_max"]
        gp_lookups = c["crossing.is_gp_cached"]
        cross_tests = c["crossing.simplices_cross"]
        steps = self.schedule_steps

        def per_op(x):
            return x / ops

        def per_op_s(x):
            return x * scale / ops

        def ratio(num, den):
            return num / den if den else 0.0

        attributed = sum(self.self_s.values())
        m = {
            "linalg.det.calls": (per_op(c["linalg.det"]), "count/op"),
            "linalg.det.self_s": (per_op_s(self.self_s["linalg.det"]), "s/op"),
            "linalg.rref.calls": (per_op(c["linalg.rref"]), "count/op"),
            "linalg.rref.self_s": (per_op_s(self.self_s["linalg.rref"]), "s/op"),
            "linalg.kernel_basis.calls": (per_op(c["linalg.kernel_basis"]), "count/op"),
            "lp.solves": (per_op(solves), "count/op"),
            "lp.max_min_dot.calls": (per_op(c["lp.max_min_dot"]), "count/op"),
            "lp.pivots": (per_op(self.pivots), "count/op"),
            "lp.pivots_per_solve": (ratio(self.pivots, solves), "count/solve"),
            "configs.gp_checks": (per_op(c["configs.find_degenerate_subset"]), "count/op"),
            "configs.gp_cache_lookups": (per_op(gp_lookups), "count/op"),
            "configs.gp_cache_hit_ratio": (ratio(gp_lookups - self.gp_cache_misses, gp_lookups), "ratio"),
            "gale.transforms": (per_op(c["gale.gale_transform"]), "count/op"),
            "gale.spanning_checks": (per_op(c["gale.verify_spanning"]), "count/op"),
            "gale.realizable_lps": (per_op(c["gale.is_realizable"]), "count/op"),
            "crossing.cross_tests": (per_op(cross_tests), "count/op"),
            "crossing.cross_yield": (ratio(self.crossings, cross_tests), "ratio"),
            "separations.enumerations": (
                per_op(c["separations.enumerate_separations"]), "count/op"
            ),
            "separations.found": (per_op(self.separations_found), "count/op"),
            "separations.schedule_steps": (per_op(steps), "count/op"),
            "separations.fallback_ratio": (ratio(self.schedule_fallbacks, steps), "ratio"),
            "jsonio.bytes_written": (per_op(self.bytes_written), "B/op"),
        }
        for layer in LAYERS:
            m[f"{layer}.self_s"] = (per_op_s(self.layer_self_s(layer)), "s/op")
        m["unattributed.self_s"] = (per_op_s(op_wall_s - attributed), "s/op")
        return m
