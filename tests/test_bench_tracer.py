"""The benchmark's tracer (perfbench/tracing.py) hooks library functions by
name; this fails fast when a library change would break it."""

import importlib.util
from pathlib import Path

import galecross.cli  # the tracer wraps every layer, the CLI included
import galecross.lp

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("galecross_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_counts_solves():
    tracer = _load_tracing().Tracer()
    tracer.install()
    try:
        tracer.enabled = True
        galecross.lp.simplex_max([1, 1, 0, 0], [[1, 0, 1, 0], [0, 1, 0, 1]], [1, 2])
        tracer.enabled = False
    finally:
        tracer.uninstall()
    assert tracer.calls["lp.simplex_max"] == 1
    assert tracer.pivots > 0
    assert hasattr(galecross.lp, "simplex_max")
