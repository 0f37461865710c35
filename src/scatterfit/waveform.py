"""Pulse autocorrelation kernels used by the matched-filter range profile.

A range profile sample is a sum of scaled, delayed copies of the transmit
pulse autocorrelation, so synthesis and differentiation only ever need the
kernel R(tau) and its lag derivative dR/dtau; ``autocorr(tau, deriv=True)``
returns both from one pass over the lags.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

# Below this |pi*T*alpha*tau| the sin ratio and its derivative switch to
# truncated series; keeps both finite and continuous through tau = 0.
_SMALL_ARG = 1e-4


class WaveformKernel(ABC):
    """Complex pulse autocorrelation R(tau), its lag derivative, and the carrier."""

    fc: float

    @abstractmethod
    def autocorr(self, tau, deriv: bool = False):
        """R(tau) for scalar or array lag [s]; with deriv, (R, dR/dtau) from one pass."""

    @property
    @abstractmethod
    def peak(self) -> float:
        """|R(0)|, the matched-filter peak."""


@dataclass(frozen=True)
class LfmWaveform(WaveformKernel):
    """Linear FM chirp x(t) = A exp(j(pi*alpha*t^2 + 2*pi*f0*t)), t in [0, T).

    Attributes:
        amplitude: pulse amplitude A [V].
        duration: pulse length T [s].
        f0: start frequency offset from the carrier [Hz].
        chirp_rate: sweep rate alpha [Hz/s].
        fc: carrier frequency [Hz], used for the range phase term.
    """

    amplitude: float
    duration: float
    f0: float
    chirp_rate: float
    fc: float

    def __post_init__(self):
        fields = (self.amplitude, self.duration, self.f0, self.chirp_rate, self.fc)
        if not all(np.isfinite(fields)):
            raise ValueError(f"waveform fields must be finite, got {fields}")
        if self.duration <= 0.0:
            raise ValueError(f"pulse duration must be > 0, got {self.duration}")
        if self.amplitude <= 0.0:
            raise ValueError(f"pulse amplitude must be > 0, got {self.amplitude}")
        if self.chirp_rate == 0.0:
            raise ValueError("chirp rate must be nonzero")
        if self.fc <= 0.0:
            raise ValueError(f"carrier frequency must be > 0, got {self.fc}")

    @property
    def peak(self) -> float:
        """R(0) = A^2 T."""
        return self.amplitude**2 * self.duration

    def autocorr(self, tau, deriv: bool = False):
        """R(tau) = A^2 * T * [sin(x)/x] * exp(j*nu), x = pi*T*alpha*tau.

        nu(tau) = pi*(2*f0 + T*alpha)*tau - pi*alpha*tau^2.  Closed form of
        the chirp self-product integrated over one pulse length.  With deriv,
        returns (R, dR/dtau): the product rule on the sin-ratio and phase
        factors, sharing x, nu, sin, cos and exp(j*nu) with R.
        """
        shape = np.shape(tau)
        t = np.asarray(tau, dtype=float).reshape(-1)  # 1-D, so the series can fill in by mask
        a2 = self.amplitude**2
        big_t = self.duration
        alpha = self.chirp_rate
        x = np.pi * big_t * alpha * t
        nu = np.pi * (2.0 * self.f0 + big_t * alpha) * t - np.pi * alpha * t * t
        # sin(x)/x, with the series 1 - x^2/6 + x^4/120 on the lags below the switch point
        small = np.abs(x) < _SMALL_ARG
        sin_x = np.sin(x)
        ratio = sin_x / np.where(small, 1.0, x)
        xs = x[small]
        xs2 = xs * xs
        ratio[small] = 1.0 - xs2 / 6.0 + xs2 * xs2 / 120.0
        phase = np.exp(1j * nu)
        r = (a2 * big_t * ratio * phase).reshape(shape)
        if not deriv:
            return complex(r) if np.isscalar(tau) else r

        # d/dtau of sin(x)/(pi*alpha*tau): exact T*cos(x)/tau - sin(x)/(pi*alpha*tau^2),
        # series T*pi*T*alpha*(-x/3 + x^3/30) near zero (both scale as x -> 0)
        safe_t = np.where(small, 1.0, t)
        d_ratio = big_t * np.cos(x) / safe_t - sin_x / (np.pi * alpha * safe_t * safe_t)
        d_ratio[small] = big_t * np.pi * big_t * alpha * (-xs / 3.0 + xs**3 / 30.0)
        dnu = np.pi * (2.0 * self.f0 + big_t * alpha) - 2.0 * np.pi * alpha * t
        rate = dnu * a2 * big_t * ratio  # real factors first: fewer complex products, same values
        dr = (a2 * d_ratio * phase + 1j * rate * phase).reshape(shape)
        if np.isscalar(tau):
            return complex(r), complex(dr)
        return r, dr


def lfm_from_band(bandwidth: float, fc: float, duration: float = 1e-6, amplitude: float = 1.0) -> LfmWaveform:
    """Baseband-centered chirp covering the given bandwidth: alpha = B/T, f0 = -B/2."""
    if bandwidth <= 0.0:
        raise ValueError(f"bandwidth must be > 0, got {bandwidth}")
    return LfmWaveform(
        amplitude=amplitude,
        duration=duration,
        f0=-bandwidth / 2.0,
        chirp_rate=bandwidth / duration,
        fc=fc,
    )
