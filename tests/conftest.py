import sys
from fractions import Fraction
from pathlib import Path
from unittest.mock import patch

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from galecross import LabeledPoint, PointConfig
from oracles import separable_sides


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
