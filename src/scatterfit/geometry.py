"""Sight lines and target-frame positions.

A sight line is the unit vector pointing from the radar toward the target
frame origin, expressed in target-frame coordinates.  A scatterer at
position p appears in a range profile at the projected range r = -p.l,
so scatterers displaced toward the radar show up at positive range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class DegenerateGeometryError(ValueError):
    """Raised when a direction is too short to normalize or a view is singular."""


_MIN_NORM = 1e-9


@dataclass(frozen=True, eq=False)
class SightLine:
    """Unit vector from radar to target-frame origin (target coordinates)."""

    vec: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.vec, dtype=float)
        if v.shape != (3,):
            raise ValueError(f"sight line needs 3 components, got shape {v.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError("sight line components must be finite")
        n = float(np.linalg.norm(v))
        if n < _MIN_NORM:
            raise DegenerateGeometryError(f"cannot normalize direction with norm {n:.3e}")
        v = v / n
        v.setflags(write=False)
        object.__setattr__(self, "vec", v)


@dataclass(frozen=True, eq=False)
class Position3:
    """A point in the target frame [m]."""

    p: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.p, dtype=float)
        if p.shape != (3,):
            raise ValueError(f"position needs 3 components, got shape {p.shape}")
        if not np.all(np.isfinite(p)):
            raise ValueError("position components must be finite")
        p.setflags(write=False)
        object.__setattr__(self, "p", p)


def sightline_from_angles(azimuth: float, elevation: float) -> SightLine:
    """Sight line from azimuth (about +z, from +x) and elevation (toward +z), radians."""
    ce = math.cos(elevation)
    return SightLine(np.array([ce * math.cos(azimuth), ce * math.sin(azimuth), math.sin(elevation)]))
