"""The chirp pulse autocorrelation kernel used by the matched-filter range profile.

A range profile sample is a sum of scaled, delayed copies of the transmit
pulse autocorrelation, so synthesis and differentiation only ever need the
kernel R(tau) and its lag derivative dR/dtau; ``autocorr(tau, deriv=True)``
returns both from one pass over the lags.  The chirp kernel fills its phase
factor exp(j*nu) in as cos(nu) + j*sin(nu), scales it in place, and runs the
small-lag series only on calls that have a lag below the switch point.  Its
scalar factors (pi*T*alpha, pi*alpha, pi*(2*f0 + T*alpha), A^2*T) are formed
once, when the waveform is built, as the same left-to-right products; each
call does only the work on its lags.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Below this |pi*T*alpha*tau| the sin ratio and its derivative switch to
# truncated series; keeps both finite and continuous through tau = 0.
_SMALL_ARG = 1e-4


@dataclass(frozen=True)
class LfmWaveform:
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
        # the kernel's scalar factors, each the same left-to-right product autocorr would form
        big_t, alpha = self.duration, self.chirp_rate
        for name, value in (
            ("_pi_t_alpha", np.pi * big_t * alpha),  # x / tau
            ("_pi_alpha", np.pi * alpha),  # (pi*alpha*tau^2) / tau^2
            ("_nu_rate", np.pi * (2.0 * self.f0 + big_t * alpha)),  # the linear part of nu / tau
            ("_peak", self.amplitude**2 * big_t),  # A^2 T
        ):
            object.__setattr__(self, name, value)

    @property
    def peak(self) -> float:
        """|R(0)| = A^2 T, the matched-filter peak."""
        return self._peak

    def autocorr(self, tau, deriv: bool = False):
        """R(tau) = A^2 * T * [sin(x)/x] * exp(j*nu), x = pi*T*alpha*tau.

        nu(tau) = pi*(2*f0 + T*alpha)*tau - pi*alpha*tau^2.  Closed form of
        the chirp self-product integrated over one pulse length.  With deriv,
        returns (R, dR/dtau): the product rule on the sin-ratio and phase
        factors, sharing x, nu, sin, cos and exp(j*nu) with R.

        exp(j*nu) is filled in as cos(nu) + j*sin(nu) and scaled in place;
        every value is that of the plain complex expressions.  The series
        runs only when some lag is below the switch point.  The scalar
        factors pi*T*alpha, pi*alpha, pi*(2*f0 + T*alpha) and A^2*T are
        formed once per waveform.

        Array results are new arrays that the caller owns and may overwrite:
        ``model._forward`` writes its products into them in place.
        """
        scalar = not isinstance(tau, np.ndarray) and np.isscalar(tau)
        t = np.asarray(tau, dtype=float)
        shape = t.shape
        t = t.reshape(-1)  # 1-D, so the series can fill in by mask
        a2 = self.amplitude**2
        big_t = self.duration
        alpha = self.chirp_rate
        x = self._pi_t_alpha * t
        t2 = self._pi_alpha * t
        t2 *= t  # pi*alpha*tau^2, in nu and (guarded) in the derivative's denominator
        nu = self._nu_rate * t
        nu -= t2
        sin_x = np.sin(x)
        small = np.abs(x) < _SMALL_ARG
        some_small = bool(small.any())
        if some_small:  # divide by 1 where the series takes over, so no 0/0 is formed
            xs = x[small]
            safe_x, safe_t = np.where(small, 1.0, x), np.where(small, 1.0, t)
            t2 = self._pi_alpha * safe_t
            t2 *= safe_t
        else:
            safe_x, safe_t = x, t
        # sin(x)/x, with the series 1 - x^2/6 + x^4/120 on the lags below the switch point
        ratio = sin_x / safe_x
        if some_small:
            xs2 = xs * xs
            ratio[small] = 1.0 - xs2 / 6.0 + xs2 * xs2 / 120.0
        phase = np.empty(t.shape, dtype=complex)  # exp(j*nu)
        np.cos(nu, out=phase.real)
        np.sin(nu, out=phase.imag)
        scale = self._peak * ratio
        if not deriv:
            r = np.multiply(scale, phase, out=phase).reshape(shape)
            return complex(r) if scalar else r
        r = (scale * phase).reshape(shape)

        # d/dtau of sin(x)/(pi*alpha*tau): exact T*cos(x)/tau - sin(x)/(pi*alpha*tau^2),
        # series T*pi*T*alpha*(-x/3 + x^3/30) near zero (both scale as x -> 0)
        d_ratio = np.cos(x)
        d_ratio *= big_t
        d_ratio /= safe_t
        d_ratio -= np.divide(sin_x, t2, out=t2)
        if some_small:
            d_ratio[small] = big_t * np.pi * big_t * alpha * (-xs / 3.0 + xs**3 / 30.0)
        d_ratio *= a2
        # the phase rate dnu * A^2 * T * sin(x)/x, real factors first
        rate = 2.0 * np.pi * alpha * t
        np.subtract(self._nu_rate, rate, out=rate)
        rate *= a2
        rate *= big_t
        rate *= ratio
        # dR/dtau = A^2 * d_ratio * exp(j*nu) + j * rate * exp(j*nu)
        dr = d_ratio * phase
        turn = np.multiply(rate, phase, out=phase)
        turn *= 1j
        dr += turn
        dr = dr.reshape(shape)
        if scalar:
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
