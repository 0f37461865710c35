"""Scatterer primitives: complex amplitudes plus aspect-dependent positions.

A scatterer owns a flat slot vector: amplitude slots first, then position
slots.  Every primitive knows its own Jacobian with respect to its slots,
which is what makes profile synthesis differentiable end to end.

Position models are evaluated on stacks of sight lines, shape (K, 3), so a
multi-aspect synthesis is a single vectorized call.  Radius-like slots are
only sign-checked by ``validate()`` (i.e. when building a model from user
input); an optimizer is free to drive them through zero.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

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


class AmplitudeModel(_SlotModel):
    """Complex scattering amplitude and its gradient w.r.t. its own slots."""

    @abstractmethod
    def value(self, lines=None) -> complex:
        """Amplitude; `lines` is accepted for aspect-dependent extensions."""

    @abstractmethod
    def gradient(self, lines=None) -> np.ndarray:
        """d(amplitude)/d(slots), complex, shape (n_slots,)."""


class PositionModel(_SlotModel):
    """Aspect-dependent scatterer position and its slot Jacobian."""

    @abstractmethod
    def positions(self, lines: np.ndarray) -> np.ndarray:
        """Positions for sight-line stack (K, 3) -> (K, 3)."""

    @abstractmethod
    def jacobians(self, lines: np.ndarray) -> np.ndarray:
        """d(position)/d(slots) for stack (K, 3) -> (K, 3, n_slots)."""


@dataclass(frozen=True)
class FixedAmplitude(AmplitudeModel):
    """Aspect-independent complex amplitude S = s_re + j*s_im."""

    s_re: float
    s_im: float = 0.0

    slot_names = ("s_re", "s_im")

    def value(self, lines=None) -> complex:
        return complex(self.s_re, self.s_im)

    def gradient(self, lines=None) -> np.ndarray:
        return np.array([1.0 + 0.0j, 0.0 + 1.0j])


@dataclass(frozen=True)
class FixedCylindrical(PositionModel):
    """Body-fixed point, cylindrical slots (r_s, phi_s, z_s)."""

    r_s: float
    phi_s: float
    z_s: float

    slot_names = ("r_s", "phi_s", "z_s")

    def positions(self, lines: np.ndarray) -> np.ndarray:
        p = np.array([self.r_s * np.cos(self.phi_s), self.r_s * np.sin(self.phi_s), self.z_s])
        return np.broadcast_to(p, (lines.shape[0], 3))

    def jacobians(self, lines: np.ndarray) -> np.ndarray:
        c, s = np.cos(self.phi_s), np.sin(self.phi_s)
        jac = np.array([
            [c, -self.r_s * s, 0.0],
            [s, self.r_s * c, 0.0],
            [0.0, 0.0, 1.0],
        ])
        return np.broadcast_to(jac, (lines.shape[0], 3, 3))

    def validate(self) -> None:
        super().validate()
        _check_radius(self.r_s, "ring")


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

    def _ring_direction(self, lines: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        lx, ly = lines[:, 0], lines[:, 1]
        h = np.hypot(lx, ly)
        bad = np.flatnonzero(h < _MIN_XY)
        if bad.size:
            raise DegenerateGeometryError(
                f"aspect {bad[0]}: slipping ring azimuth is undefined for a sight line along the ring axis"
            )
        return lx / h, ly / h

    def positions(self, lines: np.ndarray) -> np.ndarray:
        c, s = self._ring_direction(lines)
        out = np.empty((lines.shape[0], 3))
        out[:, 0] = self.r_s * c
        out[:, 1] = self.r_s * s
        out[:, 2] = self.z_s
        return out

    def jacobians(self, lines: np.ndarray) -> np.ndarray:
        c, s = self._ring_direction(lines)
        jac = np.zeros((lines.shape[0], 3, 2))
        jac[:, 0, 0] = c
        jac[:, 1, 0] = s
        jac[:, 2, 1] = 1.0
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

    def positions(self, lines: np.ndarray) -> np.ndarray:
        return -self.rho_s * lines

    def jacobians(self, lines: np.ndarray) -> np.ndarray:
        return -lines[:, :, None]

    def validate(self) -> None:
        super().validate()
        _check_radius(self.rho_s, "sphere")


@dataclass(frozen=True)
class Scatterer:
    """One scattering center: amplitude model plus position model.

    Slot order is amplitude slots, then position slots.
    """

    amplitude_model: AmplitudeModel
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

    # single-aspect convenience; batch paths call the models directly

    def position(self, line: SightLine) -> Position3:
        return Position3(self.position_model.positions(line.vec[None, :])[0])
