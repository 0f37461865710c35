"""Scatterer primitives: a complex amplitude plus an aspect-dependent position.

A scatterer owns a flat slot vector: its amplitude slots (s_re, s_im) first,
then its position slots.  The forward pass forms the amplitude s_re + j*s_im
and its Jacobian [1, j] itself; every position primitive knows its own
Jacobian with respect to its slots, which is what makes profile synthesis
differentiable end to end.

A position primitive's geometry is written once, as static methods over the
slot rows (n, n_slots) of all n scatterers of its type and a stack of K
sight lines, shape (K, 3); so a model's forward pass makes one call per
position type, and ``Scatterer.position`` is the same call with one row.
A new position model is one class like these plus one entry in the CLI's
type table.  Radius-like slots are only sign-checked by ``validate()`` (i.e.
when building a model from user input); an optimizer is free to drive them
through zero.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .geometry import DegenerateGeometryError, Position3, SightLine

_MIN_XY = 1e-12


class _SlotModel(ABC):
    """A primitive whose slots are its dataclass fields, in ``slot_names`` order.

    Concrete models are frozen dataclasses; everything that reads or rebuilds
    the slot vector works from ``slot_names`` alone.
    """

    slot_names: tuple[str, ...] = ()

    @property
    def n_slots(self) -> int:
        return len(self.slot_names)

    @property
    def params(self) -> tuple[float, ...]:
        return tuple(getattr(self, name) for name in self.slot_names)

    def with_params(self, values) -> "_SlotModel":
        """Same model type with new slot values, stored as Python floats."""
        return type(self)(*np.asarray(values, dtype=float).tolist())

    def validate(self) -> None:
        if not all(np.isfinite(self.params)):
            raise ValueError(f"non-finite {type(self).__name__} parameters {self.params}")


def _check_radius(value: float, what: str) -> None:
    if value < 0.0:
        raise ValueError(f"{what} radius must be >= 0, got {value}")


class PositionModel(_SlotModel):
    """Aspect-dependent scatterer position and its slot Jacobian.

    Both are evaluated for the slot rows (n, n_slots) of the n scatterers of
    one type at once, and may return any array that broadcasts to the stated
    shape.
    """

    @staticmethod
    @abstractmethod
    def positions(slots: np.ndarray, lines: np.ndarray) -> np.ndarray:
        """Positions for slot rows (n, n_slots) and sight-line stack (K, 3) -> (n, K, 3)."""

    @staticmethod
    @abstractmethod
    def jacobians(slots: np.ndarray, lines: np.ndarray) -> np.ndarray:
        """d(position)/d(slots) -> (n, K, 3, n_slots)."""


@dataclass(frozen=True)
class FixedAmplitude(_SlotModel):
    """Aspect-independent complex amplitude S = s_re + j*s_im; the forward pass forms it from these slots."""

    s_re: float
    s_im: float = 0.0

    slot_names = ("s_re", "s_im")


@dataclass(frozen=True)
class FixedCylindrical(PositionModel):
    """Body-fixed point, cylindrical slots (r_s, phi_s, z_s)."""

    r_s: float
    phi_s: float
    z_s: float

    slot_names = ("r_s", "phi_s", "z_s")

    @staticmethod
    def positions(slots: np.ndarray, lines: np.ndarray) -> np.ndarray:
        r, phi, z = slots.T
        p = np.empty((slots.shape[0], 1, 3))
        p[:, 0, 0] = r * np.cos(phi)
        p[:, 0, 1] = r * np.sin(phi)
        p[:, 0, 2] = z
        return p

    @staticmethod
    def jacobians(slots: np.ndarray, lines: np.ndarray) -> np.ndarray:
        r, phi, _ = slots.T
        c, s = np.cos(phi), np.sin(phi)
        jac = np.zeros((slots.shape[0], 1, 3, 3))
        jac[:, 0, 0, 0] = c
        jac[:, 0, 0, 1] = -r * s
        jac[:, 0, 1, 0] = s
        jac[:, 0, 1, 1] = r * c
        jac[:, 0, 2, 2] = 1.0
        return jac

    def validate(self) -> None:
        super().validate()
        _check_radius(self.r_s, "ring")


def _ring_direction(lines: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unit xy direction (cos, sin) of each sight line's azimuth, (K,) each, read-only."""
    return _ring_direction_of(np.ascontiguousarray(lines, dtype=float).tobytes())


# Keyed by the stack's float64 bytes: a fit evaluates one stack many times,
# and a stack rewritten in place gets a new key.  Errors are not cached.
@lru_cache(maxsize=8)
def _ring_direction_of(key: bytes) -> tuple[np.ndarray, np.ndarray]:
    lines = np.frombuffer(key).reshape(-1, 3)
    lx, ly = lines[:, 0], lines[:, 1]
    h = np.hypot(lx, ly)
    bad = np.flatnonzero(h < _MIN_XY)
    if bad.size:
        raise DegenerateGeometryError(
            f"aspect {bad[0]}: slipping ring azimuth is undefined for a sight line along the ring axis"
        )
    direction = lx / h, ly / h
    for part in direction:
        part.setflags(write=False)
    return direction


@dataclass(frozen=True)
class SlippingRing(PositionModel):
    """Point that slides around a z-axis ring, tracking the view azimuth.

    The ring azimuth locks to the sight line, phi = atan2(ly, lx), so only
    (r_s, z_s) are slots.  Undefined when the sight line is parallel to the
    ring axis.
    """

    r_s: float
    z_s: float

    slot_names = ("r_s", "z_s")

    @staticmethod
    def positions(slots: np.ndarray, lines: np.ndarray) -> np.ndarray:
        c, s = _ring_direction(lines)
        r, z = slots[:, 0, None], slots[:, 1, None]
        out = np.empty((slots.shape[0], lines.shape[0], 3))
        out[:, :, 0] = r * c
        out[:, :, 1] = r * s
        out[:, :, 2] = z
        return out

    @staticmethod
    def jacobians(slots: np.ndarray, lines: np.ndarray) -> np.ndarray:
        c, s = _ring_direction(lines)
        jac = np.zeros((1, lines.shape[0], 3, 2))
        jac[0, :, 0, 0] = c
        jac[0, :, 1, 0] = s
        jac[0, :, 2, 1] = 1.0
        return jac

    def validate(self) -> None:
        super().validate()
        _check_radius(self.r_s, "ring")


@dataclass(frozen=True)
class Spherical(PositionModel):
    """Spherical surface about the origin; the echo comes from the near point.

    Position is -rho_s * l, so the projected range is rho_s from every
    aspect.
    """

    rho_s: float

    slot_names = ("rho_s",)

    @staticmethod
    def positions(slots: np.ndarray, lines: np.ndarray) -> np.ndarray:
        return -slots[:, :, None] * lines

    @staticmethod
    def jacobians(slots: np.ndarray, lines: np.ndarray) -> np.ndarray:
        return -lines[None, :, :, None]

    def validate(self) -> None:
        super().validate()
        _check_radius(self.rho_s, "sphere")


@dataclass(frozen=True)
class Scatterer:
    """One scattering center: amplitude model plus position model.

    Slot order is amplitude slots, then position slots.
    """

    amplitude_model: FixedAmplitude
    position_model: PositionModel

    @property
    def n_slots(self) -> int:
        return self.amplitude_model.n_slots + self.position_model.n_slots

    @property
    def slot_names(self) -> tuple[str, ...]:
        return self.amplitude_model.slot_names + self.position_model.slot_names

    @property
    def params(self) -> np.ndarray:
        return np.array(self.amplitude_model.params + self.position_model.params)

    def with_params(self, values) -> "Scatterer":
        values = np.asarray(values, dtype=float)
        if values.shape != (self.n_slots,):
            raise ValueError(f"expected {self.n_slots} slot values, got shape {values.shape}")
        na = self.amplitude_model.n_slots
        return Scatterer(
            self.amplitude_model.with_params(values[:na]),
            self.position_model.with_params(values[na:]),
        )

    def position(self, line: SightLine) -> Position3:
        """The point seen along one sight line, from the position model's batch code."""
        pm = self.position_model
        return Position3(pm.positions(np.array([pm.params]), line.vec[None, :])[0, 0])
