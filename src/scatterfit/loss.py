"""Weighted squared-error losses between observed and modeled profiles.

Two flavors:

* coherent: residual on the complex samples, (z-g)^H W (z-g); sensitive to
  carrier phase, so its landscape ripples at half the carrier wavelength.
* noncoherent: residual on the sample moduli, (|z|-|g|)^T W (|z|-|g|);
  phase-blind, much smoother, used to get within the coherent capture zone.

Gradients are exact, built from the profile Jacobian G.  Both are
2 Re{G^T v} for one vector v over the bins, computed as one matrix-vector
product over the flattened (K*m, P) Jacobian: v = conj(W (g - z)) for the
coherent loss, and v = conj(g/|g|) W (|g| - |z|) for the noncoherent one.
The noncoherent modulus is not differentiable at |g| = 0; bins below a small
clamp get a zero subgradient there.

One evaluation is at most an aspect stack (K, m); any axes before the
last two are batch axes.  So profiles (B, K, m) and Jacobians (B, K, m, P)
from a stack of B slot vectors, against one observed (K, m) or (m,), give
(B,) losses and (B, P) gradients, and each loss is bit-identical to the
call on its row.

batch_loss and batch_gradient take a list of observations that share one
range grid, or a fit's evaluation plan, the stack a fit builds from them
once: the samples z and their moduli |z|, the read-only (K, 3) sight-line
stack and the grid.  A call on the plan rebuilds none of these, and a position primitive's
sight-line-only terms are kept for the plan's line stack; the geometry,
lags, kernel and loss that depend on theta run per call, and give the same
bits as a call on the listed observations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import SightLine
from .model import PointScatteringModel, RangeGrid, profile_jacobians, synthesize_profiles
from .waveform import LfmWaveform


class WeightMatrix:
    """Real symmetric weights with scalar / diagonal representations.

    The scalar form covers the identity and 1/sigma^2 scalings without ever
    materializing a matrix.
    """

    def __init__(self, kind: str, scale: float = 1.0, diag=None):
        self.kind = kind
        self.scale = float(scale)
        self.diag = diag
        if kind == "scalar":
            if not np.isfinite(self.scale) or self.scale < 0.0:
                raise ValueError(f"weight scale must be finite and >= 0, got {scale}")
        elif kind == "diagonal":
            self.diag = np.asarray(diag, dtype=float)
            if self.diag.ndim != 1 or not np.all(np.isfinite(self.diag)):
                raise ValueError("diagonal weights must be a finite 1-D vector")
        else:
            raise ValueError(f"unknown weight kind {kind!r}")

    @classmethod
    def identity(cls) -> "WeightMatrix":
        return cls("scalar", 1.0)

    @classmethod
    def from_sigma2(cls, sigma2: float) -> "WeightMatrix":
        """Inverse-noise-power weighting, the default when sigma^2 is known."""
        if sigma2 <= 0.0:
            raise ValueError(f"noise power must be > 0, got {sigma2}")
        return cls("scalar", 1.0 / sigma2)

    @classmethod
    def diagonal(cls, diag) -> "WeightMatrix":
        return cls("diagonal", diag=diag)

    def check_bins(self, m: int) -> None:
        if self.kind == "diagonal" and self.diag.shape[0] != m:
            raise ValueError(f"diagonal weights sized {self.diag.shape[0]}, profiles have {m} bins")

    def apply(self, x: np.ndarray) -> np.ndarray:
        """W x along the last axis; x may be real or complex, (m,) or (K, m)."""
        if self.kind == "scalar":
            return self.scale * x
        return self.diag * x


def _quad(w: WeightMatrix, r: np.ndarray) -> float | np.ndarray:
    """r^H W r summed over the bins, then over the aspects of a (K, m) stack;
    r's batch axes, those before the last two, are kept."""
    total = np.add.reduce((np.conj(r) * w.apply(r)).real, axis=-1)
    if r.ndim >= 2:
        total = np.add.reduce(total, axis=-1)
    return float(total) if total.ndim == 0 else total


def _gradient(jac: np.ndarray, v: np.ndarray) -> np.ndarray:
    """2 Re{J^T v}: jac (m, P) or (K, m, P) against v (m,) or (K, m) gives (P,),
    as one matrix-vector product over the flattened (K*m, P) Jacobian; v's
    batch axes, those before the last two, get one product per batch row."""
    if v.ndim <= 2:
        return 2.0 * (jac.reshape(v.size, jac.shape[-1]).T @ v.reshape(-1)).real
    v = v.reshape(*v.shape[:-2], -1, 1)
    return 2.0 * (jac.reshape(*v.shape[:-1], jac.shape[-1]).swapaxes(-1, -2) @ v)[..., 0].real


@dataclass(frozen=True)
class Observation:
    """One noisy profile: complex samples plus the geometry that produced it."""

    z: np.ndarray
    line: SightLine
    grid: RangeGrid

    def __post_init__(self):
        z = np.array(self.z, dtype=complex)  # a copy: freezing it leaves the caller's array writeable
        if z.shape != (self.grid.m,):
            raise ValueError(f"expected {self.grid.m} samples, got shape {z.shape}")
        if not np.all(np.isfinite(z)):
            raise ValueError("observed samples must be finite")
        z.setflags(write=False)
        object.__setattr__(self, "z", z)


# Every loss and gradient below takes one profile, z and g of shape (m,) with
# jac (m, P), or a stack of aspects, (K, m) with (K, m, P), summed over the
# aspects.  g and jac may carry batch axes before an aspect stack's, (B, K, m)
# and (B, K, m, P); the losses are then (B,) arrays and the gradients (B, P).

def coherent_loss(z: np.ndarray, g: np.ndarray, w: WeightMatrix) -> float | np.ndarray:
    """(z - g)^H W (z - g)."""
    return _quad(w, np.asarray(z) - np.asarray(g))


def coherent_loss_gradient(z: np.ndarray, g: np.ndarray, jac: np.ndarray, w: WeightMatrix) -> np.ndarray:
    """2 Re{G^H W (g - z)} = 2 Re{G^T conj(W (g - z))}, the exact loss gradient in the model slots."""
    return _gradient(jac, np.conj(w.apply(np.asarray(g) - np.asarray(z))))


def noncoherent_loss(z: np.ndarray, g: np.ndarray, w: WeightMatrix) -> float | np.ndarray:
    """(|z| - |g|)^T W (|z| - |g|)."""
    return _quad(w, np.abs(z) - np.abs(g))


def noncoherent_loss_gradient(
    z: np.ndarray, g: np.ndarray, jac: np.ndarray, w: WeightMatrix, clamp: float = 0.0
) -> np.ndarray:
    """2 (U_r G_r + U_i G_i)^T W (|g| - |z|) with U = g/|g| the modulus direction.

    That is 2 Re{G^T v} with v = conj(U) W (|g| - |z|); bins with |g| below
    the clamp get a zero subgradient.
    """
    return _noncoherent_gradient(np.abs(z), np.asarray(g), jac, w, clamp)


def _noncoherent_gradient(abs_z: np.ndarray, g: np.ndarray, jac: np.ndarray, w: WeightMatrix, clamp: float) -> np.ndarray:
    """noncoherent_loss_gradient given the observed moduli |z|."""
    mag = np.abs(g)
    live = mag >= (clamp if clamp > 0.0 else np.finfo(float).tiny)
    per_mag = np.divide(w.apply(mag - abs_z), mag, out=np.zeros(mag.shape), where=live)
    return _gradient(jac, np.conj(g) * per_mag)


def noncoherent_clamp(wf: LfmWaveform) -> float:
    """Modulus floor below which the noncoherent subgradient is zeroed."""
    return 1e-12 * wf.peak


@dataclass(frozen=True)
class _Batch:
    """A fit's evaluation plan: its observations stacked and checked once.

    It holds the samples z (K, m) and their moduli |z|, the read-only
    sight-line stack (K, 3), and the one grid the observations share.  Every
    loss and gradient call of the fit reads these instead of rebuilding
    them, and a primitive's sight-line-only terms (a slipping ring's azimuth
    direction) are kept for the fit's line stack after the first call that
    needs them.  What depends on theta, the geometry, the lags and the
    kernel, is evaluated per call.
    """

    z: np.ndarray
    abs_z: np.ndarray
    lines: np.ndarray
    grid: RangeGrid


def _as_batch(observations: list[Observation] | _Batch) -> _Batch:
    """Stack a list of observations, after checking it, or pass a stack through."""
    if isinstance(observations, _Batch):
        return observations
    if not observations:
        raise ValueError("need at least one observation")
    grid = observations[0].grid
    if any(o.grid != grid for o in observations):
        raise ValueError("all observations must share one range grid")
    # np.array, not np.stack: the same (K, m) copy at a fraction of the call cost
    z = np.array([o.z for o in observations])
    lines = np.array([o.line.vec for o in observations])
    abs_z = np.abs(z)
    for a in (z, abs_z, lines):
        a.setflags(write=False)
    return _Batch(z, abs_z, lines, grid)


def _checked(observations: list[Observation] | _Batch, w: WeightMatrix, kind: str) -> _Batch:
    """The stacked batch, once the weights and the loss kind fit it."""
    batch = _as_batch(observations)
    w.check_bins(batch.z.shape[1])
    if kind not in ("coherent", "noncoherent"):
        raise ValueError(f"unknown loss kind {kind!r}")
    return batch


def batch_loss(
    observations: list[Observation] | _Batch,
    model: PointScatteringModel,
    wf: LfmWaveform,
    w: WeightMatrix,
    kind: str = "coherent",
) -> float:
    """Unweighted sum of per-observation losses.

    observations is a list of Observations on one range grid, or the stack
    a fit builds from them once.
    """
    batch = _checked(observations, w, kind)
    g = synthesize_profiles(model, wf, batch.grid, batch.lines)
    if kind == "coherent":
        return _quad(w, batch.z - g)
    return _quad(w, batch.abs_z - np.abs(g))


def batch_gradient(
    observations: list[Observation] | _Batch,
    model: PointScatteringModel,
    wf: LfmWaveform,
    w: WeightMatrix,
    kind: str = "coherent",
) -> np.ndarray:
    """Gradient of batch_loss in the packed model parameters."""
    batch = _checked(observations, w, kind)
    g, jac = profile_jacobians(model, wf, batch.grid, batch.lines)
    if kind == "coherent":
        return coherent_loss_gradient(batch.z, g, jac, w)
    return _noncoherent_gradient(batch.abs_z, g, jac, w, noncoherent_clamp(wf))
