"""Range-profile synthesis for point-scattering models, with exact Jacobians.

The sampled profile for a sight line l is

    g(b_k) = sum_n gamma_n(l) * a_n * R(2*(b_k + p_n.l)/c)

where R is the pulse autocorrelation, a_n the complex amplitude, p_n the
scatterer position, and gamma_n = exp(j*4*pi*fc*(p_n.l)/c) the two-way
carrier phase.  Every factor is differentiable in the scatterer slots, so
the profile Jacobian follows from

    d g / d theta_n = gamma*R * da/dtheta
                    + a*gamma * (j*4*pi*fc/c * R + 2/c * dR/dtau) * d(p.l)/dtheta

with d(p.l)/dtheta = P^T l from the position model Jacobian P.

A model is compiled once into a layout that groups its scatterers by
primitive type.  The forward pass then has no loop over scatterers: each
type's primitive evaluates the slot rows of all its scatterers in one call,
projected ranges and amplitudes are (N, K) arrays, the kernel runs once on
the (N, K, m) lags, the profiles are a sum over N, and the Jacobian is
written one type group at a time.
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


class _Layout:
    """A model's structure, compiled once: per-scatterer slot slices and per-type groups.

    amplitudes and positions hold one (kind, rows, cols) triple per primitive
    type, in order of first appearance: the primitive class, the (n,)
    indices of its scatterers, and the (n, n_slots) theta columns of their
    slots.  prototypes are the scatterers the layout was compiled from;
    every model sharing it rebuilds its own scatterers from them and its
    theta.
    """

    def __init__(self, scatterers: tuple[Scatterer, ...]):
        self.prototypes = scatterers
        self.slices, start = [], 0
        for s in scatterers:
            self.slices.append(slice(start, start + s.n_slots))
            start += s.n_slots
        self.n_params = start
        self.amplitudes = self._groups([(s.amplitude_model, sl.start) for s, sl in zip(scatterers, self.slices)])
        self.positions = self._groups(
            [(s.position_model, sl.start + s.amplitude_model.n_slots) for s, sl in zip(scatterers, self.slices)]
        )

    @staticmethod
    def _groups(parts) -> tuple[tuple[type, np.ndarray, np.ndarray], ...]:
        """Group (primitive, theta column of its first slot) pairs, one per scatterer, by type."""
        members: dict[type, list[tuple[int, int]]] = {}
        for index, (prim, first) in enumerate(parts):
            members.setdefault(type(prim), []).append((index, first))
        groups = []
        for kind, rows in members.items():
            index, first = np.array(rows, dtype=np.intp).T
            groups.append((kind, index, first[:, None] + np.arange(len(kind.slot_names))))
        return tuple(groups)


class PointScatteringModel:
    """An ordered collection of scatterers with one flat parameter vector.

    The scatterers are compiled once into a layout that groups them by
    primitive type; the model itself is that layout plus theta, so
    ``unpack`` swaps theta in O(1) and the forward pass evaluates each type's
    scatterers together.  ``scatterers`` is rebuilt from theta on first use.
    """

    def __init__(self, scatterers):
        scatterers = tuple(scatterers)
        self._layout = _Layout(scatterers)
        theta = np.array([v for s in scatterers for v in s.params], dtype=float)
        theta.setflags(write=False)
        self._theta = theta
        self.__dict__["scatterers"] = scatterers

    def __repr__(self) -> str:
        return f"PointScatteringModel({self.scatterers!r})"

    def __eq__(self, other) -> bool:
        if not isinstance(other, PointScatteringModel):
            return NotImplemented
        return self.scatterers == other.scatterers

    def __hash__(self) -> int:
        return hash(self.scatterers)

    @cached_property
    def scatterers(self) -> tuple[Scatterer, ...]:
        return tuple(s.with_params(self._theta[sl]) for s, sl in zip(self._layout.prototypes, self._layout.slices))

    @property
    def n_params(self) -> int:
        return self._layout.n_params

    def slot_slices(self) -> list[slice]:
        """Per-scatterer slices into the packed parameter vector."""
        return list(self._layout.slices)

    def slot_labels(self) -> list[str]:
        return [f"s{i}.{name}" for i, s in enumerate(self._layout.prototypes) for name in s.slot_names]

    def pack(self) -> np.ndarray:
        return self._theta.copy()

    def unpack(self, theta) -> "PointScatteringModel":
        """The same scatterers with new slot values; shares this model's layout."""
        theta = np.array(theta, dtype=float)
        if theta.shape != (self.n_params,):
            raise ValueError(f"expected {self.n_params} parameters, got shape {theta.shape}")
        theta.setflags(write=False)
        model = object.__new__(PointScatteringModel)
        model._layout = self._layout
        model._theta = theta
        return model


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


def _projected_ranges(layout: _Layout, theta: np.ndarray, lines: np.ndarray) -> np.ndarray:
    """p.l for every scatterer and sight line, (N, K), with the scatterer named on error."""
    pl = np.empty((len(layout.prototypes), lines.shape[0]))
    for kind, rows, cols in layout.positions:
        try:
            pos = kind.positions(theta[cols], lines)
        except DegenerateGeometryError as err:
            raise DegenerateGeometryError(f"scatterer {rows[0]}: {err}") from None
        pl[rows] = np.einsum("nkj,kj->nk", pos, lines)
    return pl


def _forward(model: PointScatteringModel, wf: WaveformKernel, bins: np.ndarray, lines, jacobian: bool):
    """Profiles (K, m) and, when asked, Jacobians (K, m, P) for all scatterers at once.

    bins holds the bin ranges, (m,) for a grid shared by every sight line or
    (K, m) for one grid per sight line.  The kernel runs once on the
    (N, K, m) lags; the profile is the sum over the N scatterers, and the
    Jacobian is written one primitive type at a time through a slot-major
    view of the (K, m, P) result.
    """
    layout, theta = model._layout, model._theta
    lmat = _as_line_stack(lines)
    n, k = len(layout.prototypes), lmat.shape[0]
    pl = _projected_ranges(layout, theta, lmat)
    a = np.empty((n, k), dtype=complex)
    for kind, rows, cols in layout.amplitudes:
        a[rows] = kind.values(theta[cols], lmat)
    k4 = 4.0 * np.pi * wf.fc / C_LIGHT
    gamma = np.exp(1j * k4 * pl)
    ag = a * gamma
    tau = 2.0 * (bins + pl[:, :, None]) / C_LIGHT
    if not jacobian:
        return (ag[:, :, None] * wf.autocorr(tau)).sum(axis=0), None
    r, dr = wf.autocorr(tau, deriv=True)
    out = (ag[:, :, None] * r).sum(axis=0)
    jac = np.empty((k, bins.shape[-1], layout.n_params), dtype=complex)
    by_slot = jac.transpose(2, 0, 1)  # (P, K, m) view: one slot's block per row
    # d g / d(amplitude slots) = gamma * R * da/dtheta
    gr = gamma[:, :, None] * r
    for kind, rows, cols in layout.amplitudes:
        grad = kind.gradients(theta[cols], lmat)
        by_slot[cols] = gr[rows][:, None] * grad.transpose(0, 2, 1)[..., None]
    # d g / d(position slots) = a * gamma * (j*k4*R + 2/c * dR/dtau) * d(p.l)/dtheta
    radial = ag[:, :, None] * (1j * k4 * r + (2.0 / C_LIGHT) * dr)
    for kind, rows, cols in layout.positions:
        u = np.einsum("nkij,ki->nkj", kind.jacobians(theta[cols], lmat), lmat)
        by_slot[cols] = radial[rows][:, None] * u.transpose(0, 2, 1)[..., None]
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
