import signal
import sys
from fractions import Fraction
from pathlib import Path
from unittest.mock import patch

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from galecross import LabeledPoint, PointConfig
from oracles import separable_sides


TEST_TIME_LIMIT_S = 120  # the slowest test takes about 5 s


class TimeLimitExceeded(BaseException):
    """Raised inside a test that runs past TEST_TIME_LIMIT_S. It is not an
    Exception, so a test's own `except Exception` cannot swallow it."""


@pytest.fixture(autouse=True)
def time_limit():
    """Fail a test that hangs instead of stalling the whole run: arm
    SIGALRM for the test, then disarm it and restore the previous handler."""

    def expire(signum, frame):
        raise TimeLimitExceeded(f"test ran past {TEST_TIME_LIMIT_S} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(TEST_TIME_LIMIT_S)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def config_from(dimension, rows):
    points = tuple(
        LabeledPoint(label, tuple(Fraction(c) for c in coords)) for label, coords in rows
    )
    return PointConfig(dimension, points)


def oracle_realizable(diagram, separation):
    """Whether some origin hyperplane strictly separates the separation's two
    sides of the diagram, decided by oracles.separable_sides."""
    vectors = {v.label: v.coords for v in diagram.vectors}
    return separable_sides(vectors, separation.side_a, separation.side_b)


def with_pivots(module, name, solve):
    """solve()'s result and the (row, column) of every pivot it made through
    module.name."""
    pivots = []
    pivot = getattr(module, name)

    def spy(*args):
        pivots.append(args[-2:])
        return pivot(*args)

    with patch.object(module, name, spy):
        return solve(), pivots


@pytest.fixture
def cyclic_square():
    """Unit square labeled around the boundary; diagonals are p1p3 and p2p4."""
    return config_from(2, [("p1", (0, 0)), ("p2", (1, 0)), ("p3", (1, 1)), ("p4", (0, 1))])


@pytest.fixture
def zigzag_square():
    """Unit square labeled column-major; diagonals are p1p4 and p2p3."""
    return config_from(2, [("p1", (0, 0)), ("p2", (1, 0)), ("p3", (0, 1)), ("p4", (1, 1))])


@pytest.fixture
def triangle_with_center():
    return config_from(2, [("p1", (0, 0)), ("p2", (4, 0)), ("p3", (0, 4)), ("p4", (1, 1))])
