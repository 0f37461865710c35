"""Range-profile synthesis for point-scattering models, with exact Jacobians.

The sampled profile for a sight line l is

    g(b_k) = sum_n gamma_n(l) * a_n * R(2*(b_k + p_n.l)/c)

where R is the pulse autocorrelation, a_n the complex amplitude, p_n the
scatterer position, and gamma_n = exp(j*4*pi*fc*(p_n.l)/c) the two-way
carrier phase.  Every factor is differentiable in the scatterer slots, so
the profile Jacobian is assembled per scatterer from

    d g / d theta_n = gamma*R * da/dtheta
                    + a*gamma * (j*4*pi*fc/c * R + 2/c * dR/dtau) * d(p.l)/dtheta

with d(p.l)/dtheta = P^T l from the position model Jacobian P.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from numbers import Integral

import numpy as np

from .constants import C_LIGHT
from .geometry import DegenerateGeometryError, SightLine
from .scatterer import Scatterer
from .waveform import WaveformKernel


@dataclass(frozen=True)
class RangeGrid:
    """Uniform range sampling: bin k is b0 + k*delta, k = 0..m-1."""

    b0: float
    delta: float
    m: int

    def __post_init__(self):
        if not (np.isfinite(self.b0) and np.isfinite(self.delta)):
            raise ValueError(f"grid origin and spacing must be finite, got b0={self.b0}, delta={self.delta}")
        if self.delta <= 0.0:
            raise ValueError(f"grid spacing must be > 0, got {self.delta}")
        if isinstance(self.m, bool) or not isinstance(self.m, Integral):
            raise ValueError(f"bin count must be an integer, got {self.m!r}")
        if self.m < 1:
            raise ValueError(f"grid needs at least one bin, got {self.m}")

    @cached_property
    def bins(self) -> np.ndarray:
        """Bin ranges (m,), computed once per grid and read-only."""
        bins = self.b0 + self.delta * np.arange(self.m)
        bins.setflags(write=False)
        return bins


@dataclass(frozen=True)
class PointScatteringModel:
    """An ordered collection of scatterers with one flat parameter vector."""

    scatterers: tuple[Scatterer, ...]

    def __post_init__(self):
        object.__setattr__(self, "scatterers", tuple(self.scatterers))

    @property
    def n_params(self) -> int:
        return sum(s.n_slots for s in self.scatterers)

    def slot_slices(self) -> list[slice]:
        """Per-scatterer slices into the packed parameter vector."""
        out, start = [], 0
        for s in self.scatterers:
            out.append(slice(start, start + s.n_slots))
            start += s.n_slots
        return out

    def slot_labels(self) -> list[str]:
        return [f"s{i}.{name}" for i, s in enumerate(self.scatterers) for name in s.slot_names]

    def pack(self) -> np.ndarray:
        if not self.scatterers:
            return np.empty(0)
        return np.concatenate([s.params for s in self.scatterers])

    def unpack(self, theta) -> "PointScatteringModel":
        theta = np.asarray(theta, dtype=float)
        if theta.shape != (self.n_params,):
            raise ValueError(f"expected {self.n_params} parameters, got shape {theta.shape}")
        return PointScatteringModel(
            tuple(s.with_params(theta[sl]) for s, sl in zip(self.scatterers, self.slot_slices()))
        )


def _as_line_stack(lines) -> np.ndarray:
    """Sight lines as a (K, 3) array: one SightLine, a list or tuple of them, or vectors."""
    if isinstance(lines, SightLine):
        return lines.vec[None, :]
    if isinstance(lines, (list, tuple)):
        lines = [l.vec if isinstance(l, SightLine) else l for l in lines]
    arr = np.asarray(lines, dtype=float)
    if arr.ndim == 1:
        arr = arr[None, :]
    if arr.ndim != 2 or arr.shape[1] != 3:
        raise ValueError(f"expected sight lines with shape (K, 3), got {arr.shape}")
    return arr


def _scatterer_geometry(scatterer: Scatterer, index: int, lines: np.ndarray):
    """Positions projected on the sight lines, with the scatterer named on error."""
    try:
        pos = scatterer.position_model.positions(lines)
    except DegenerateGeometryError as err:
        raise DegenerateGeometryError(f"scatterer {index}: {err}") from None
    return np.einsum("kj,kj->k", pos, lines)


def _forward(model: PointScatteringModel, wf: WaveformKernel, bins: np.ndarray, lines, jacobian: bool):
    """Profiles (K, m) and, when asked, Jacobians (K, m, P) from one pass over the scatterers.

    bins holds the bin ranges, (m,) for a grid shared by every sight line or
    (K, m) for one grid per sight line.
    """
    lmat = _as_line_stack(lines)
    m = bins.shape[-1]
    out = np.zeros((lmat.shape[0], m), dtype=complex)
    jac = np.zeros((lmat.shape[0], m, model.n_params), dtype=complex) if jacobian else None
    slots = model.slot_slices() if jacobian else None
    k4 = 4.0 * np.pi * wf.fc / C_LIGHT
    for idx, s in enumerate(model.scatterers):
        pl = _scatterer_geometry(s, idx, lmat)
        a = s.amplitude_model.value(lmat)
        gamma = np.exp(1j * k4 * pl)
        tau = 2.0 * (bins + pl[:, None]) / C_LIGHT
        r = wf.autocorr(tau)
        out += (a * gamma)[:, None] * r
        if not jacobian:
            continue
        na = s.amplitude_model.n_slots
        block = jac[:, :, slots[idx]]
        if na:
            a_grad = s.amplitude_model.gradient(lmat)
            block[:, :, :na] = gamma[:, None, None] * r[:, :, None] * a_grad[None, None, :]
        if s.position_model.n_slots:
            u = np.einsum("kij,ki->kj", s.position_model.jacobians(lmat), lmat)
            radial = a * gamma[:, None] * (1j * k4 * r + (2.0 / C_LIGHT) * wf.autocorr_deriv(tau))
            block[:, :, na:] = radial[:, :, None] * u[:, None, :]
    return out, jac


def _grid_bins(grid: RangeGrid | Sequence[RangeGrid]) -> np.ndarray:
    """(m,) bins of one RangeGrid, or (K, m) bins of a sequence of K grids of m bins each."""
    if isinstance(grid, RangeGrid):
        return grid.bins
    return np.array([g.bins for g in grid])


def synthesize_profiles(
    model: PointScatteringModel, wf: WaveformKernel, grid: RangeGrid | Sequence[RangeGrid], lines
) -> np.ndarray:
    """Profiles for a stack of sight lines: complex (K, m) array.

    grid is one RangeGrid for every sight line, or a sequence of K grids, one
    per sight line, all with m bins.
    """
    return _forward(model, wf, _grid_bins(grid), lines, jacobian=False)[0]


def profile_jacobians(
    model: PointScatteringModel, wf: WaveformKernel, grid: RangeGrid | Sequence[RangeGrid], lines
) -> tuple[np.ndarray, np.ndarray]:
    """Profiles (K, m) and d(profile)/d(slots) (K, m, P) for a stack of sight lines.

    grid is as for ``synthesize_profiles``, and the profiles are bit-identical
    to it.
    """
    return _forward(model, wf, _grid_bins(grid), lines, jacobian=True)
