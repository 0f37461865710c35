"""Chirp autocorrelation kernel: closed form, derivative, and edge behavior."""

import numpy as np
import pytest
from scipy.integrate import quad

from scatterfit import LfmWaveform, lfm_from_band

B = 500e6
FC = 3e9
T = 1e-6


@pytest.fixture(scope="module")
def wf():
    return lfm_from_band(B, FC, T, 1000.0)


def chirp(wf, t):
    return wf.amplitude * np.exp(
        1j * (np.pi * wf.chirp_rate * t**2 + 2.0 * np.pi * wf.f0 * t)
    )


def deriv(wf, tau):
    """dR/dtau from the kernel's one-pass call."""
    return wf.autocorr(tau, deriv=True)[1]


def overlap_integral(wf, tau):
    """Direct quadrature of the pulse self-product over one pulse length."""

    def integrand(t, part):
        v = chirp(wf, t) * np.conj(chirp(wf, t - tau))
        return v.real if part == "re" else v.imag

    re, _ = quad(integrand, 0.0, wf.duration, args=("re",), limit=4000, epsabs=1e-13, epsrel=1e-12)
    im, _ = quad(integrand, 0.0, wf.duration, args=("im",), limit=4000, epsabs=1e-13, epsrel=1e-12)
    return re + 1j * im


def test_zero_lag_is_exact_peak(wf):
    r0 = wf.autocorr(0.0)
    assert r0 == complex(wf.peak)
    assert wf.peak == wf.amplitude**2 * wf.duration


def test_peak_dominates_all_lags(wf):
    tau = np.linspace(-T, T, 4001)
    assert np.all(np.abs(wf.autocorr(tau)) <= wf.peak * (1.0 + 1e-12))


def test_matches_quadrature(wf, rng):
    taus = rng.uniform(-0.95 * T, 0.95 * T, size=20)
    r = wf.autocorr(taus)
    for tau, got in zip(taus, r):
        want = overlap_integral(wf, tau)
        assert abs(got - want) <= 1e-6 * wf.peak


def test_reflection_identity(wf, rng):
    # R(-tau) = conj(R(tau)) * exp(-j*2*pi*alpha*tau^2); modulus is even
    taus = rng.uniform(-T, T, size=100)
    lhs = wf.autocorr(-taus) * np.exp(2j * np.pi * wf.chirp_rate * taus**2)
    rhs = np.conj(wf.autocorr(taus))
    assert np.max(np.abs(lhs - rhs)) <= 1e-10 * wf.peak
    assert np.max(np.abs(np.abs(wf.autocorr(-taus)) - np.abs(wf.autocorr(taus)))) <= 1e-12 * wf.peak


def test_derivative_against_finite_differences(wf, rng):
    spread = rng.uniform(-0.9 * T, 0.9 * T, size=60)
    cluster = rng.uniform(-1.0, 1.0, size=40) * 1e-3 / (wf.duration * wf.chirp_rate)
    taus = np.concatenate([spread, cluster])
    h = 1e-12
    fd = (wf.autocorr(taus + h) - wf.autocorr(taus - h)) / (2.0 * h)
    got = deriv(wf, taus)
    scale = np.max(np.abs(fd))
    assert np.max(np.abs(got - fd)) <= 1e-5 * scale


def test_derivative_zero_lag_centered_chirp(wf):
    # baseband-centered sweep: 2*f0 + T*alpha = 0, so the phase rate vanishes
    assert deriv(wf, 0.0) == 0.0 + 0.0j


def test_derivative_zero_lag_offset_chirp():
    wf = LfmWaveform(2.0, T, f0=1e6, chirp_rate=B / T, fc=FC)
    want = 1j * np.pi * (2.0 * wf.f0 + wf.duration * wf.chirp_rate) * wf.peak
    assert deriv(wf, 0.0) == pytest.approx(want, rel=1e-12)


def test_series_switchover_is_continuous(wf):
    # the sin-ratio and its derivative switch branches at |x| = 1e-4
    tau_star = 1e-4 / (np.pi * wf.duration * wf.chirp_rate)
    for sign in (1.0, -1.0):
        below = sign * tau_star * (1.0 - 1e-8)
        above = sign * tau_star * (1.0 + 1e-8)
        assert abs(wf.autocorr(above) - wf.autocorr(below)) <= 1e-8 * wf.peak
        d_lo, d_hi = deriv(wf, below), deriv(wf, above)
        scale = max(abs(d_lo), abs(d_hi), wf.peak / wf.duration)
        assert abs(d_hi - d_lo) <= 1e-8 * scale


def test_scalar_and_array_paths_agree(wf, rng):
    taus = rng.uniform(-T, T, size=16)
    arr = wf.autocorr(taus)
    for tau, v in zip(taus, arr):
        scalar = wf.autocorr(float(tau))
        assert isinstance(scalar, complex)
        assert scalar == v
    rarr, darr = wf.autocorr(taus, deriv=True)
    assert np.array_equal(rarr, arr)
    for tau, r, v in zip(taus, rarr, darr):
        pair = wf.autocorr(float(tau), deriv=True)
        assert all(isinstance(x, complex) for x in pair)
        assert pair == (r, v)


def test_bandwidth_property():
    wf = lfm_from_band(B, FC, T, 2.0)
    assert abs(wf.chirp_rate) * wf.duration == pytest.approx(B)
    assert wf.f0 == -B / 2.0
    assert wf.chirp_rate == pytest.approx(B / T)
    assert wf.fc == FC
    down = LfmWaveform(1.0, T, f0=B / 2.0, chirp_rate=-B / T, fc=FC)
    assert abs(down.chirp_rate) * down.duration == pytest.approx(B)


def test_validation():
    with pytest.raises(ValueError):
        LfmWaveform(1.0, -1e-6, 0.0, 1e12, FC)
    with pytest.raises(ValueError):
        LfmWaveform(0.0, T, 0.0, 1e12, FC)
    with pytest.raises(ValueError):
        LfmWaveform(1.0, T, 0.0, 0.0, FC)
    with pytest.raises(ValueError):
        LfmWaveform(1.0, T, 0.0, 1e12, -FC)
    with pytest.raises(ValueError):
        lfm_from_band(-B, FC)
    for bad in (np.nan, np.inf):
        for i in range(5):
            fields = [1.0, T, 0.0, 1e12, FC]
            fields[i] = bad
            with pytest.raises(ValueError):
                LfmWaveform(*fields)
