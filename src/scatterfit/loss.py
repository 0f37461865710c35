"""Weighted squared-error losses between observed and modeled profiles.

Two flavors:

* coherent: residual on the complex samples, (z-g)^H W (z-g); sensitive to
  carrier phase, so its landscape ripples at half the carrier wavelength.
* noncoherent: residual on the sample moduli, (|z|-|g|)^T W (|z|-|g|);
  phase-blind, much smoother, used to get within the coherent capture zone.

Gradients are exact, built from the profile Jacobian.  The noncoherent
modulus is not differentiable at |g| = 0; bins below a small clamp get a
zero subgradient there.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import SightLine
from .model import PointScatteringModel, RangeGrid, profile_jacobians, synthesize_profiles
from .waveform import WaveformKernel


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


def _quad(w: WeightMatrix, r: np.ndarray) -> float:
    """r^H W r summed over the bins, then over the aspects of a (K, m) stack."""
    return float(np.sum((np.conj(r) * w.apply(r)).real, axis=-1).sum())


def _contract(jac: np.ndarray, d: np.ndarray) -> np.ndarray:
    """sum_k J_k^T d_k: jac (m, P) or (K, m, P) against d (m,) or (K, m), giving (P,)."""
    m, p = jac.shape[-2:]
    return np.einsum("kmp,km->p", jac.reshape(-1, m, p), d.reshape(-1, m))


@dataclass(frozen=True)
class Observation:
    """One noisy profile: complex samples plus the geometry that produced it."""

    z: np.ndarray
    line: SightLine
    grid: RangeGrid

    def __post_init__(self):
        z = np.asarray(self.z, dtype=complex)
        if z.shape != (self.grid.m,):
            raise ValueError(f"expected {self.grid.m} samples, got shape {z.shape}")
        if not np.all(np.isfinite(z)):
            raise ValueError("observed samples must be finite")
        z.setflags(write=False)
        object.__setattr__(self, "z", z)


# Every loss and gradient below takes one profile, z and g of shape (m,) with
# jac (m, P), or a stack of aspects, (K, m) with (K, m, P), summed over the
# aspects.

def coherent_loss(z: np.ndarray, g: np.ndarray, w: WeightMatrix) -> float:
    """(z - g)^H W (z - g)."""
    return _quad(w, np.asarray(z) - np.asarray(g))


def coherent_loss_gradient(z: np.ndarray, g: np.ndarray, jac: np.ndarray, w: WeightMatrix) -> np.ndarray:
    """2 Re{G^H W (g - z)}, the exact loss gradient in the model slots."""
    res = w.apply(np.asarray(g) - np.asarray(z))
    return 2.0 * _contract(np.conj(jac), res).real


def noncoherent_loss(z: np.ndarray, g: np.ndarray, w: WeightMatrix) -> float:
    """(|z| - |g|)^T W (|z| - |g|)."""
    return _quad(w, np.abs(z) - np.abs(g))


def _modulus_direction(g: np.ndarray, clamp: float) -> tuple[np.ndarray, np.ndarray]:
    """Re{g}/|g| and Im{g}/|g| with a zero subgradient below the clamp."""
    mag = np.abs(g)
    floor = clamp if clamp > 0.0 else np.finfo(float).tiny
    live = mag >= floor
    safe = np.where(live, mag, 1.0)
    return np.where(live, g.real / safe, 0.0), np.where(live, g.imag / safe, 0.0)


def noncoherent_loss_gradient(
    z: np.ndarray, g: np.ndarray, jac: np.ndarray, w: WeightMatrix, clamp: float = 0.0
) -> np.ndarray:
    """2 (U_r G_r + U_i G_i)^T W (|g| - |z|) with U the modulus direction."""
    g = np.asarray(g)
    ur, ui = _modulus_direction(g, clamp)
    slope = ur[..., None] * jac.real + ui[..., None] * jac.imag
    return 2.0 * _contract(slope, w.apply(np.abs(g) - np.abs(z)))


def noncoherent_clamp(wf: WaveformKernel) -> float:
    """Modulus floor below which the noncoherent subgradient is zeroed."""
    return 1e-12 * wf.peak


def _stacked(
    observations: list[Observation], model: PointScatteringModel, wf: WaveformKernel, jacobian: bool = False
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Observed and modeled profiles (K, m) in observation order, plus the
    Jacobians (K, m, P) when asked, from one model call over the whole batch.
    """
    # np.array, not np.stack: the same (K, m) copy at a fraction of the call cost
    zmat = np.array([o.z for o in observations])
    lmat = np.array([o.line.vec for o in observations])
    grids = [o.grid for o in observations]
    if jacobian:
        return (zmat, *profile_jacobians(model, wf, grids, lmat))
    return zmat, synthesize_profiles(model, wf, grids, lmat), None


def _check_batch(observations: list[Observation], w: WeightMatrix, kind: str) -> None:
    if not observations:
        raise ValueError("need at least one observation")
    m = observations[0].grid.m
    if any(o.grid.m != m for o in observations):
        raise ValueError("all observations must share the same number of bins")
    w.check_bins(m)
    if kind not in ("coherent", "noncoherent"):
        raise ValueError(f"unknown loss kind {kind!r}")


def batch_loss(
    observations: list[Observation],
    model: PointScatteringModel,
    wf: WaveformKernel,
    w: WeightMatrix,
    kind: str = "coherent",
) -> float:
    """Unweighted sum of per-observation losses."""
    _check_batch(observations, w, kind)
    zmat, gmat, _ = _stacked(observations, model, wf)
    return (coherent_loss if kind == "coherent" else noncoherent_loss)(zmat, gmat, w)


def batch_gradient(
    observations: list[Observation],
    model: PointScatteringModel,
    wf: WaveformKernel,
    w: WeightMatrix,
    kind: str = "coherent",
) -> np.ndarray:
    """Gradient of batch_loss in the packed model parameters."""
    _check_batch(observations, w, kind)
    zmat, gmat, jmat = _stacked(observations, model, wf, jacobian=True)
    if kind == "coherent":
        return coherent_loss_gradient(zmat, gmat, jmat, w)
    return noncoherent_loss_gradient(zmat, gmat, jmat, w, noncoherent_clamp(wf))
