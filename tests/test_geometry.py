"""Sight lines and positions."""

import numpy as np
import pytest

from scatterfit import (
    DegenerateGeometryError,
    Position3,
    SightLine,
    sightline_from_angles,
)


def test_sightline_normalizes(rng):
    for _ in range(50):
        v = rng.normal(size=3) * 10.0 ** rng.uniform(-3, 3)
        if np.linalg.norm(v) < 1e-6:
            continue
        line = SightLine(v)
        assert abs(np.linalg.norm(line.vec) - 1.0) < 1e-12
        # same direction as the input
        assert np.allclose(line.vec, v / np.linalg.norm(v))


def test_sightline_rejects_near_zero():
    with pytest.raises(DegenerateGeometryError):
        SightLine(np.array([1e-10, 0.0, 0.0]))
    with pytest.raises(DegenerateGeometryError):
        SightLine(np.zeros(3))


def test_sightline_validation():
    with pytest.raises(ValueError):
        SightLine(np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        SightLine(np.array([np.nan, 0.0, 1.0]))


def test_sightline_readonly():
    line = SightLine(np.array([3.0, 4.0, 0.0]))
    with pytest.raises(ValueError):
        line.vec[0] = 0.0
    assert line.vec[0] == pytest.approx(0.6)
    assert line.vec[1] == pytest.approx(0.8)
    assert line.vec[2] == 0.0


def test_sightline_from_angles():
    line = sightline_from_angles(0.0, 0.0)
    assert np.allclose(line.vec, [1.0, 0.0, 0.0])
    line = sightline_from_angles(np.pi / 2.0, 0.0)
    assert np.allclose(line.vec, [0.0, 1.0, 0.0], atol=1e-15)
    line = sightline_from_angles(0.3, np.pi / 2.0)
    assert np.allclose(line.vec, [0.0, 0.0, 1.0], atol=1e-15)
    for az, el in [(0.7, 0.2), (-2.1, -1.0), (5.5, 1.3)]:
        line = sightline_from_angles(az, el)
        assert abs(np.linalg.norm(line.vec) - 1.0) < 1e-12
        assert line.vec[2] == pytest.approx(np.sin(el))


def test_position_validation():
    with pytest.raises(ValueError):
        Position3(np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        Position3(np.array([1.0, np.inf, 3.0]))
    p = Position3(np.array([1.0, 2.0, 3.0]))
    with pytest.raises(ValueError):
        p.p[0] = 9.0
