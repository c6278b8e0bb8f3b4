"""The benchmark's tracer (perfbench/tracing.py) hooks library functions by
name; this fails fast when a library change would break it."""

import importlib.util
from pathlib import Path

import galecross.cli  # the tracer wraps every layer, the CLI included
import galecross.gale
import galecross.lp
import galecross.separations
from galecross.configs import PointConfig, random_config

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


def test_tracer_counts_linalg_layers():
    # the benchmark's per-layer linalg metrics read these names; a rename or
    # a signature change that bypasses them would make the metrics read 0
    # a fresh instance of the points: random_config's general-position scan
    # is stored on the instance it returns, and gale_transform must scan
    drawn = random_config(6, 2, 1, 100)
    config = PointConfig(drawn.dimension, drawn.points)
    tracer = _load_tracing().Tracer()
    tracer.install()
    try:
        tracer.enabled = True
        galecross.gale.gale_transform(config)
        tracer.enabled = False
    finally:
        tracer.uninstall()
    for name in (
        "linalg.det",
        "linalg.rref",
        "linalg.kernel_basis",
        "configs.find_degenerate_subset",
        "gale.gale_transform",
    ):
        assert tracer.calls[name] >= 1, name


def test_tracer_counts_spanning_check_of_small_m_transform():
    # with m = n-d-1 < d the diagram's spanning check decides general
    # position, and the benchmark's gale.spanning_checks metric reads it
    drawn = random_config(10, 6, 3, 1000)
    config = PointConfig(drawn.dimension, drawn.points)
    tracer = _load_tracing().Tracer()
    tracer.install()
    try:
        tracer.enabled = True
        galecross.gale.gale_transform(config)
        tracer.enabled = False
    finally:
        tracer.uninstall()
    assert tracer.calls["gale.verify_spanning"] == 1


def test_tracer_counts_schedule_steps_and_fallbacks():
    # the benchmark reads fallback_count() off every traced schedule; no
    # schedule step is a fallback, so the ratio it reports stays 0
    diagram = galecross.gale.gale_transform(random_config(10, 6, 3, 1000))
    tracer = _load_tracing().Tracer()
    tracer.install()
    try:
        tracer.enabled = True
        galecross.separations.schedule_blocks(diagram)
        tracer.enabled = False
    finally:
        tracer.uninstall()
    assert tracer.schedule_steps > 0
    assert tracer.schedule_fallbacks == 0
