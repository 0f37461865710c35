"""Invariants of the one forward pass, the stack-aware losses and the bound, over random inputs."""

import dataclasses
import json
import math
import re
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import scatterfit
import scatterfit.estimate as estimate
from scatterfit import (
    C_LIGHT,
    DescentConfig,
    FixedAmplitude,
    FixedCylindrical,
    LfmWaveform,
    Observation,
    PointScatteringModel,
    RangeGrid,
    Scatterer,
    SlippingRing,
    Spherical,
    WeightMatrix,
    batch_gradient,
    batch_loss,
    coherent_loss,
    coherent_loss_gradient,
    crlb,
    gradient_descent,
    line_search,
    noncoherent_clamp,
    noncoherent_loss,
    noncoherent_loss_gradient,
    profile_jacobians,
    sightline_from_angles,
    synthesize_profiles,
)
from conftest import POSITION_KINDS, rel_err
from scatterfit.cli import _PRIMITIVE_TYPES, resolve_config
from scatterfit.estimate import _SECTION_TOL, _brent
from scatterfit.waveform import _SMALL_ARG

PROPERTY = settings(max_examples=60, deadline=None)


def _real(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


def _log_uniform(lo_exp, hi_exp):
    return st.floats(lo_exp, hi_exp).map(lambda e: 10.0**e)


@st.composite
def scatterers(draw):
    amp = FixedAmplitude(draw(_real(0.3, 2.0)), draw(_real(-1.0, 1.0)))
    kind = draw(st.sampled_from(POSITION_KINDS))
    if kind == "fixed_cylindrical":
        pos = FixedCylindrical(draw(_real(0.0, 1.5)), draw(_real(-np.pi, np.pi)), draw(_real(-2.0, 2.0)))
    elif kind == "slipping":
        pos = SlippingRing(draw(_real(0.0, 1.5)), draw(_real(-2.0, 2.0)))
    else:
        pos = Spherical(draw(_real(0.0, 2.0)))
    return Scatterer(amp, pos)


models = st.lists(scatterers(), min_size=1, max_size=4).map(lambda s: PointScatteringModel(tuple(s)))
# elevations below 1.3 rad keep the slipping-ring azimuth well posed
sightlines = st.builds(sightline_from_angles, _real(0.0, 2.0 * np.pi), _real(-1.3, 1.3))
line_stacks = st.lists(sightlines, min_size=1, max_size=6)
bin_counts = st.integers(1, 80)


def grids(m):
    return st.builds(RangeGrid, _real(-6.0, -1.0), _real(0.05, 0.3), st.just(m))


@st.composite
def weights(draw, m):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(("identity", "sigma2", "diagonal")))
    if kind == "identity":
        return WeightMatrix.identity()
    if kind == "sigma2":
        return WeightMatrix.from_sigma2(draw(_real(1e-3, 10.0)))
    return WeightMatrix.diagonal(rng.uniform(0.2, 2.0, size=m))


def _sums_to(total, parts) -> bool:
    """total == sum(parts) to 1e-12 of the largest part, so cancellation between
    aspects does not inflate rounding into a failure."""
    scale = max(float(np.max(np.abs(p), initial=0.0)) for p in parts)
    return float(np.max(np.abs(total - sum(parts)), initial=0.0)) <= 1e-12 * max(scale, np.finfo(float).tiny)


def _noisy(rng, g, scale=0.05):
    return g + scale * (rng.normal(size=g.shape) + 1j * rng.normal(size=g.shape))


@PROPERTY
@given(models, line_stacks, bin_counts.flatmap(grids))
def test_jacobian_pass_profiles_equal_synthesis(wf_unit, model, lines, grid):
    lmat = np.stack([l.vec for l in lines])
    g, jac = profile_jacobians(model, wf_unit, grid, lmat)
    assert np.array_equal(g, synthesize_profiles(model, wf_unit, grid, lmat))
    assert jac.shape == (len(lines), grid.m, model.n_params)


@PROPERTY
@given(models, line_stacks, bin_counts.flatmap(lambda m: st.tuples(grids(m), weights(m))), st.integers(0, 2**32 - 1))
def test_stacked_losses_are_sums_of_rows(wf_unit, model, lines, grid_w, seed):
    grid, w = grid_w
    g, jac = profile_jacobians(model, wf_unit, grid, np.stack([l.vec for l in lines]))
    z = _noisy(np.random.default_rng(seed), g)
    clamp = noncoherent_clamp(wf_unit)
    rows = range(len(lines))
    for loss in (coherent_loss, noncoherent_loss):
        assert loss(z, g, w) == pytest.approx(sum(loss(z[k], g[k], w) for k in rows), rel=1e-12)
    assert _sums_to(
        coherent_loss_gradient(z, g, jac, w),
        [coherent_loss_gradient(z[k], g[k], jac[k], w) for k in rows],
    )
    assert _sums_to(
        noncoherent_loss_gradient(z, g, jac, w, clamp),
        [noncoherent_loss_gradient(z[k], g[k], jac[k], w, clamp) for k in rows],
    )


def _summed_terms(terms, scale):
    """Sum (K, m, P) or (m, P) per-bin gradient terms over the bins, and the
    sum of their moduli, the scale of the rounding in that sum."""
    axes = tuple(range(terms.ndim - 1))
    return scale * terms.sum(axis=axes), scale * np.abs(terms).sum(axis=axes)


@PROPERTY
@given(models, line_stacks, bin_counts.flatmap(lambda m: st.tuples(grids(m), weights(m))), st.integers(0, 2**32 - 1))
def test_gradients_match_the_per_bin_formulas(wf_unit, model, lines, grid_w, seed):
    grid, w = grid_w
    g, jac = profile_jacobians(model, wf_unit, grid, lines)
    z = _noisy(np.random.default_rng(seed), g)
    clamp = noncoherent_clamp(wf_unit)
    p = model.n_params
    wide = np.zeros(jac.shape[:-1] + (2 * p,), dtype=complex)
    wide[..., ::2] = jac
    cases = [
        (z, g, jac),  # the stack, as the forward pass returns it
        (z, g, np.ascontiguousarray(jac)),
        (z, g, wide[..., ::2]),  # a strided view of another array
        (z[0], g[0], jac[0]),  # one profile
    ]
    for zz, gg, jj in cases:
        # 2 Re sum conj(J) W (g - z)
        want, size = _summed_terms((np.conj(jj) * w.apply(gg - zz)[..., None]).real, 2.0)
        assert np.all(np.abs(coherent_loss_gradient(zz, gg, jj, w) - want) <= 1e-12 * size.max(initial=0.0))
        # 2 sum (u_r Re J + u_i Im J) W (|g| - |z|), u = g/|g| where |g| >= clamp, else 0
        live = np.abs(gg) >= clamp
        mag = np.where(live, np.abs(gg), 1.0)
        ur, ui = np.where(live, gg.real / mag, 0.0), np.where(live, gg.imag / mag, 0.0)
        d = w.apply(np.abs(gg) - np.abs(zz))
        want, size = _summed_terms((ur[..., None] * jj.real + ui[..., None] * jj.imag) * d[..., None], 2.0)
        got = noncoherent_loss_gradient(zz, gg, jj, w, clamp)
        assert np.all(np.abs(got - want) <= 1e-12 * size.max(initial=0.0))


@PROPERTY
@given(models, line_stacks, bin_counts.flatmap(grids), st.integers(0, 2**32 - 1))
def test_batch_is_sum_of_singles(wf_unit, model, lines, grid, seed):
    rng = np.random.default_rng(seed)
    obs = [Observation(_noisy(rng, synthesize_profiles(model, wf_unit, grid, line)[0]), line, grid) for line in lines]
    guess = model.unpack(model.pack() + 0.01)
    w = WeightMatrix.identity()
    for kind in ("coherent", "noncoherent"):
        total = batch_loss(obs, guess, wf_unit, w, kind)
        assert total == pytest.approx(sum(batch_loss([o], guess, wf_unit, w, kind) for o in obs), rel=1e-12)
        gtotal = batch_gradient(obs, guess, wf_unit, w, kind)
        assert _sums_to(gtotal, [batch_gradient([o], guess, wf_unit, w, kind) for o in obs])


@PROPERTY
@given(models, line_stacks, bin_counts.flatmap(grids))
def test_superposition_over_scatterers(wf_unit, model, lines, grid):
    whole = synthesize_profiles(model, wf_unit, grid, lines)
    parts = [synthesize_profiles(PointScatteringModel((s,)), wf_unit, grid, lines) for s in model.scatterers]
    assert rel_err(whole, sum(parts)) <= 1e-12


# 0-6 scatterers, the position kinds in any order and mix
mixed_models = st.lists(scatterers(), min_size=0, max_size=6).map(lambda s: PointScatteringModel(tuple(s)))


@PROPERTY
@given(mixed_models, line_stacks, bin_counts.flatmap(grids), st.integers(0, 2**32 - 1))
def test_compiled_pass_equals_single_scatterer_models(wf_unit, model, lines, grid, seed):
    # the per-type groups reassemble exactly what each scatterer gives alone,
    # bit for bit: the profile is the reduction over the stacked one-scatterer
    # profiles, and the Jacobian columns sit in slot order; `sweep-loss`
    # evaluates the whole model this way
    g, jac = profile_jacobians(model, wf_unit, grid, lines)
    assert g.shape == (len(lines), grid.m) and jac.shape == (len(lines), grid.m, model.n_params)
    if not model.scatterers:
        assert not np.any(g)
        return
    singles = [PointScatteringModel((s,)) for s in model.scatterers]
    parts = [profile_jacobians(single, wf_unit, grid, lines) for single in singles]
    assert np.array_equal(g, np.add.reduce(np.stack([p[0] for p in parts]), axis=0))
    assert np.array_equal(jac, np.concatenate([p[1] for p in parts], axis=-1))
    # the same for a (B, P) stack, each scatterer's model on its own columns
    thetas = model.pack() + np.random.default_rng(seed).normal(scale=0.05, size=(3, model.n_params))
    gs, jacs = profile_jacobians(model, wf_unit, grid, lines, thetas)
    parts = [profile_jacobians(single, wf_unit, grid, lines, thetas[:, sl])
             for single, sl in zip(singles, model.slot_slices())]
    assert np.array_equal(gs, np.add.reduce(np.stack([p[0] for p in parts], axis=1), axis=1))
    assert np.array_equal(jacs, np.concatenate([p[1] for p in parts], axis=-1))
    # an unpacked model shares the compiled layout and evaluates the same
    same = model.unpack(model.pack())
    assert np.array_equal(synthesize_profiles(same, wf_unit, grid, lines), g)
    assert all(a == b for a, b in zip(same.scatterers, model.scatterers, strict=True))


@st.composite
def ring_problems(draw):
    """A model of 1-6 scatterers, one of them a slipping ring, 1-4 sight lines
    on one grid, weights, and a seed."""
    others = draw(st.lists(scatterers(), min_size=0, max_size=5))
    ring = Scatterer(FixedAmplitude(draw(_real(0.3, 2.0)), draw(_real(-1.0, 1.0))),
                     SlippingRing(draw(_real(0.0, 1.5)), draw(_real(-2.0, 2.0))))
    at = draw(st.integers(0, len(others)))
    model = PointScatteringModel(tuple(others[:at] + [ring] + others[at:]))
    lines, m = draw(st.lists(sightlines, min_size=1, max_size=4)), draw(bin_counts)
    return model, lines, draw(grids(m)), draw(weights(m)), draw(st.integers(0, 2**32 - 1))


@PROPERTY
@given(ring_problems(), st.sampled_from(("coherent", "noncoherent")))
def test_a_fit_plan_serves_bit_identical_losses_and_gradients(wf_unit, problem, kind):
    # every loss and gradient a fit evaluates through its plan (stacked once,
    # with |z|, the bins and the ring direction kept) is bit for bit the call
    # on a freshly listed set of observations
    model, lines, grid, w, seed = problem
    rng = np.random.default_rng(seed)
    obs = [Observation(_noisy(rng, synthesize_profiles(model, wf_unit, grid, line)[0]), line, grid) for line in lines]
    start = model.unpack(model.pack() + rng.normal(scale=0.02, size=model.n_params))
    served = []

    def recorder(fn):
        def recorded(data, model, *args):
            value = fn(data, model, *args)
            served.append((fn, data, model, value))
            return value
        return recorded

    with mock.patch.object(estimate, "batch_loss", recorder(batch_loss)), \
            mock.patch.object(estimate, "batch_gradient", recorder(batch_gradient)):
        gradient_descent(obs, start, wf_unit, kind, w, DescentConfig(max_iters=2))
    assert {fn for fn, *_ in served} == {batch_loss, batch_gradient}
    plan = served[0][1]
    assert all(data is plan for _, data, _, _ in served)
    # and the loss functions on the plain stacked arrays, which build no plan
    z = np.stack([o.z for o in obs])
    loss = {"coherent": coherent_loss, "noncoherent": noncoherent_loss}[kind]
    for fn, _, model, value in served:
        fresh = fn(list(obs), model, wf_unit, w, kind)
        assert np.asarray(fresh).tobytes() == np.asarray(value).tobytes()
        if fn is batch_loss:
            plain = loss(z, synthesize_profiles(model, wf_unit, grid, lines), w)
        else:
            g, jac = profile_jacobians(model, wf_unit, grid, lines)
            plain = (coherent_loss_gradient(z, g, jac, w) if kind == "coherent"
                     else noncoherent_loss_gradient(z, g, jac, w, noncoherent_clamp(wf_unit)))
        assert np.asarray(plain).tobytes() == np.asarray(value).tobytes()


@st.composite
def stacked_problems(draw):
    """A mixed model, B = 1..5 random slot vectors for it, sight lines, their
    grid, weights, and a seed for the observed samples."""
    model, lines, m = draw(mixed_models), draw(line_stacks), draw(bin_counts)
    grid = draw(grids(m))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    thetas = model.pack() + rng.normal(scale=0.3, size=(draw(st.integers(1, 5)), model.n_params))
    return model, lines, grid, thetas, draw(weights(m)), rng


def _gradient_scale(jac, residual):
    """2 sum |J| |residual| over the bins, per slot: the size of a gradient's summed terms."""
    axes = tuple(range(jac.ndim - 1))
    return 2.0 * (np.abs(jac) * np.abs(residual)[..., None]).sum(axis=axes)


@PROPERTY
@given(stacked_problems())
def test_theta_stack_rows_equal_single_models(wf_unit, problem):
    # a (B, P) stack runs as one forward pass; each row is bit for bit the pass
    # over model.unpack(row), and so is each stacked loss
    model, lines, grid, thetas, w, rng = problem
    b, m = len(thetas), grid.m
    g, jac = profile_jacobians(model, wf_unit, grid, lines, thetas)
    assert g.shape == (b, len(lines), m) and jac.shape == (b, len(lines), m, model.n_params)
    assert np.array_equal(synthesize_profiles(model, wf_unit, grid, lines, thetas), g)
    z = _noisy(rng, g[0])
    clamp = noncoherent_clamp(wf_unit)
    cases = [(z, g, jac), (z[0], g[:, :1], jac[:, :1])]  # an aspect stack, and one profile per row
    stacked = [
        (coherent_loss(zz, gg, w), noncoherent_loss(zz, gg, w),
         coherent_loss_gradient(zz, gg, jj, w), noncoherent_loss_gradient(zz, gg, jj, w, clamp))
        for zz, gg, jj in cases
    ]
    for row, theta in enumerate(thetas):
        one = model.unpack(theta)
        g1, jac1 = profile_jacobians(one, wf_unit, grid, lines)
        assert np.array_equal(g[row], g1) and np.array_equal(jac[row], jac1)
        for (zz, gg, jj), (cl, ncl, cg, ncg) in zip(((z, g1, jac1), (z[0], g1[0], jac1[0])), stacked):
            assert cl.shape == ncl.shape == (b,) and cg.shape == ncg.shape == (b, model.n_params)
            assert cl[row] == coherent_loss(zz, gg, w)
            assert ncl[row] == noncoherent_loss(zz, gg, w)
            size = _gradient_scale(jj, w.apply(gg - zz))
            assert np.all(np.abs(cg[row] - coherent_loss_gradient(zz, gg, jj, w)) <= 1e-12 * size)
            size = _gradient_scale(jj, w.apply(np.abs(gg) - np.abs(zz)))
            assert np.all(np.abs(ncg[row] - noncoherent_loss_gradient(zz, gg, jj, w, clamp)) <= 1e-12 * size)
    # batch_loss on a stack: one (B,) call whose rows are the single calls, bit for bit
    obs = [Observation(zk, line, grid) for zk, line in zip(z, lines)]
    for kind in ("coherent", "noncoherent"):
        losses = batch_loss(obs, model, wf_unit, w, kind, thetas=thetas)
        assert losses.shape == (b,)
        for row, theta in enumerate(thetas):
            assert losses[row] == batch_loss(obs, model.unpack(theta), wf_unit, w, kind)


@st.composite
def chirps(draw):
    """Chirps of either sweep direction, with the start frequency offset anywhere within +-B."""
    duration = draw(_log_uniform(-7, -5))
    bandwidth = draw(_log_uniform(7, 9))
    rate = draw(st.sampled_from((1.0, -1.0))) * bandwidth / duration
    f0 = draw(_real(-1.0, 1.0)) * bandwidth
    return LfmWaveform(draw(_real(0.5, 1000.0)), duration, f0, rate, 3e9)


def _switch_lag(wf):
    """The lag where |pi*T*alpha*tau| reaches the small-argument switch."""
    return _SMALL_ARG / (np.pi * wf.duration * abs(wf.chirp_rate))


# lags in units of the switch lag: zero, both sides of the switch, and well past it
switch_lags = st.lists(
    st.one_of(st.just(0.0), _real(-3.0, 3.0), _real(1.0 - 1e-6, 1.0 + 1e-6), _real(-50.0, 50.0)),
    min_size=1,
    max_size=20,
)


@PROPERTY
@given(chirps(), switch_lags)
def test_fused_kernel_matches_the_plain_kernel(wf, units):
    tau = _switch_lag(wf) * np.array(units)
    r, _ = wf.autocorr(tau, deriv=True)
    assert np.array_equal(r, wf.autocorr(tau))


@PROPERTY
@given(chirps(), switch_lags, _real(-0.99, 0.99), _real(1.01, 50.0))
def test_kernel_lags_do_not_depend_on_their_neighbours(wf, units, below, above):
    # an array with a lag below the switch takes the masked series branch; a
    # lag above it, alone, takes the branch without the series; both must
    # give that lag the same bits
    tau = _switch_lag(wf) * np.array(units + [below, -above])
    r = wf.autocorr(tau)
    r_d, dr = wf.autocorr(tau, deriv=True)
    for k, t in enumerate(tau):
        assert r[k] == wf.autocorr(t)
        assert (r_d[k], dr[k]) == wf.autocorr(t, deriv=True)


@PROPERTY
@given(chirps(), switch_lags)
def test_kernel_derivative_matches_central_differences(wf, units):
    tau = _switch_lag(wf) * np.array(units)
    _, dr = wf.autocorr(tau, deriv=True)
    # R varies on the scale of 1/(pi*T*|alpha|) and of the phase rate; a step
    # far below both keeps truncation and rounding under 1e-8 of dR's scale
    # (worst of 4000 examples: 2.8e-11)
    rate = np.pi * (wf.duration * abs(wf.chirp_rate) + abs(2.0 * wf.f0 + wf.duration * wf.chirp_rate))
    h = 1e-5 / rate
    fd = (wf.autocorr(tau + h) - wf.autocorr(tau - h)) / (2.0 * h)
    assert np.max(np.abs(dr - fd)) <= 1e-8 * wf.peak * rate


@PROPERTY
@given(models, line_stacks, bin_counts.flatmap(grids), _real(-3.0, 3.0))
def test_profiles_are_linear_in_the_amplitudes(wf_unit, model, lines, grid, c):
    theta = model.pack()
    for s, sl in zip(model.scatterers, model.slot_slices()):
        theta[sl.start : sl.start + s.amplitude_model.n_slots] *= c
    scaled = synthesize_profiles(model.unpack(theta), wf_unit, grid, lines)
    want = c * synthesize_profiles(model, wf_unit, grid, lines)
    assert rel_err(scaled, want) <= 1e-12


@PROPERTY
@given(models, st.lists(sightlines, min_size=2, max_size=6), bin_counts.flatmap(grids), _real(1e-4, 1.0))
def test_doubling_sigma2_halves_fisher_and_doubles_covariance(wf_unit, model, lines, grid, sigma2):
    lo = crlb(model, wf_unit, grid, lines, sigma2)
    hi = crlb(model, wf_unit, grid, lines, 2.0 * sigma2)
    assert rel_err(hi.fisher, lo.fisher / 2.0) <= 1e-12
    assert hi.identifiable == lo.identifiable
    if lo.identifiable:
        assert rel_err(hi.covariance, 2.0 * lo.covariance) <= 1e-12


@PROPERTY
@given(
    models,
    st.lists(_real(0.0, 2.0 * np.pi), min_size=1, max_size=6),
    st.one_of(_real(-1.2, -0.3), _real(0.3, 1.2)),
    bin_counts.flatmap(grids),
    _real(-0.5, 0.5),
)
def test_range_shift_turns_only_the_carrier(wf_unit, model, azimuths, elevation, grid, d):
    # move every scatterer d along the sight lines through its own slots (rho_s,
    # or z_s at the lines' shared elevation), so each range -p.l falls by d, and
    # let the grid follow; the profiles only pick up the two-way carrier phase
    lines = [sightline_from_angles(az, elevation) for az in azimuths]
    lz = lines[0].vec[2]
    moved = []
    for s in model.scatterers:
        pos = s.position_model
        if isinstance(pos, Spherical):
            pos = Spherical(pos.rho_s - d)
        else:
            pos = dataclasses.replace(pos, z_s=pos.z_s + d / lz)
        moved.append(Scatterer(s.amplitude_model, pos))
    shifted_grid = RangeGrid(grid.b0 - d, grid.delta, grid.m)
    got = synthesize_profiles(PointScatteringModel(tuple(moved)), wf_unit, shifted_grid, lines)
    want = np.exp(1j * 4.0 * np.pi * wf_unit.fc * d / C_LIGHT) * synthesize_profiles(model, wf_unit, grid, lines)
    assert np.max(np.abs(got - want)) <= 1e-12 * wf_unit.peak


@st.composite
def unimodal_rays(draw):
    """(f, a): a loss along a ray with its one minimizer at a > 0."""
    a = draw(_log_uniform(-3, 3))
    c = draw(_real(0.5, 10.0))
    kind = draw(st.sampled_from(("quadratic", "cosh", "quartic")))
    if kind == "quadratic":
        return (lambda s: c * (s - a) ** 2), a
    if kind == "cosh":
        def cosh(s):
            with np.errstate(over="ignore"):  # far steps overflow to inf
                return float(np.cosh(c * (s - a) / a))

        return cosh, a
    return (lambda s: (s - a) ** 4), a  # flat near a: slow for parabolic steps


def _search(f, initial_step):
    """Run line_search on f, returning its result and every step it evaluated."""
    steps = []

    def probe(s):
        steps.append(s)
        return f(s)

    return line_search(probe, f(0.0), initial_step), steps


def _bracket_width(steps, a):
    """Width of the tightest evaluated bracket around a (step 0 counts as known)."""
    return min(s for s in steps if s >= a) - max([0.0] + [s for s in steps if s <= a])


LINE_SEARCH = settings(max_examples=300, deadline=None)
tolerances = _log_uniform(-6, -2)
initial_factors = _log_uniform(-3, 9)  # the paper's seed overshoots the accepted step up to ~3e8-fold


@LINE_SEARCH
@given(unimodal_rays(), initial_factors)
def test_line_search_finds_the_minimizer(ray, factor):
    f, a = ray
    (step, loss, stalled), steps = _search(f, factor * a)
    assert not stalled
    assert abs(step - a) <= _SECTION_TOL * a
    assert _bracket_width(steps, a) <= _SECTION_TOL * step
    assert loss == f(step)
    assert loss <= f(0.0)
    assert min(steps) > 0.0
    assert len(steps) == len(set(steps))  # no step is evaluated twice


@LINE_SEARCH
@given(unimodal_rays(), initial_factors, _real(1.01, 4.0), st.sampled_from((np.inf, np.nan)))
def test_line_search_survives_a_non_finite_tail(ray, factor, cut, bad):
    f, a = ray

    def tail(s):
        return f(s) if s < cut * a else bad

    (step, loss, stalled), steps = _search(tail, factor * a)
    assert not stalled
    assert np.isfinite(loss)
    assert loss == tail(step)
    assert loss <= tail(0.0)
    assert abs(step - a) <= _SECTION_TOL * a
    assert _bracket_width(steps, a) <= _SECTION_TOL * step
    assert min(steps) > 0.0


@st.composite
def warm_rays(draw, lo=0.25, hi=4.0):
    """(loss, slope, s): a quadratic with its minimum anywhere in (lo*s, hi*s)
    plus a small cosine ripple, the exact slope at step 0, and the seed s."""
    s = draw(_log_uniform(-3, 3))
    a = s * draw(st.floats(lo, hi, exclude_min=True, exclude_max=True))
    c = draw(_real(0.5, 10.0))
    # the ripple's curvature stays below half the quadratic's: each ray has one minimum
    amp = draw(_real(0.0, 1e-3)) * c * a * a
    k = 2.0 * math.pi * draw(_real(0.5, 3.0)) / a
    phase = draw(_real(0.0, 2.0 * math.pi))

    def loss(t):
        return c * (t - a) ** 2 + amp * math.cos(k * t + phase)

    return loss, -2.0 * c * a - amp * k * math.sin(phase), s


def _warm_probes(loss, slope, s):
    """Warm line_search on a scalar loss, answering stacked calls row by row.
    Returns its result and every (step, loss) it probed, in order."""
    probes = []

    def f(steps):
        values = [loss(float(t)) for t in np.atleast_1d(steps)]
        probes.extend(zip(np.atleast_1d(steps).tolist(), values))
        return values[0] if np.ndim(steps) == 0 else np.array(values)

    return line_search(f, loss(0.0), s, slope), probes


@LINE_SEARCH
@given(warm_rays())
def test_warm_line_search_certifies_its_step(ray):
    loss, slope, s = ray
    (step, value, stalled), probes = _warm_probes(loss, slope, s)
    assert not stalled
    assert value == loss(step)
    assert value < loss(0.0)
    steps = [t for t, _ in probes]
    assert min(steps) > 0.0
    assert len(steps) == len(set(steps))  # no step is evaluated twice
    # the nearest probes either side that are not lower, step 0 included, are
    # no more than tol * step apart (up to one rounding of each stencil end)
    known = [(0.0, loss(0.0))] + probes
    below = max(t for t, v in known if t < step and v >= value)
    above = min(t for t, v in known if t > step and v >= value)
    assert above - below <= _SECTION_TOL * step * (1.0 + 1e-10)


@LINE_SEARCH
@given(warm_rays(hi=0.5))
def test_warm_line_search_without_a_first_decrease_is_plain(ray):
    # a seed that does not decrease the loss leaves the warm search the plain
    # one's probes, step for step
    loss, slope, s = ray
    assume(loss(s) >= loss(0.0))
    warm, probes = _warm_probes(loss, slope, s)
    plain, plain_probes = _search(loss, s)
    assert warm == plain
    assert [t for t, _ in probes] == plain_probes


@LINE_SEARCH
@given(
    unimodal_rays(), _real(0.5, 1.0), _real(2.0, 10.0), tolerances, _real(1.01, 4.0), st.sampled_from((np.inf, np.nan))
)
def test_brent_narrows_any_bracket_to_its_tolerance(ray, inner, outer, tol, cut, bad):
    # Brent's method on a bracket (0, x, hi) of the minimizer, through a
    # non-finite tail past cut * a, closes to tol * step around it
    f, a = ray
    x, hi = inner * a, outer * a
    steps = []

    def tail(s):
        steps.append(s)
        return f(s) if s < cut * a else bad

    step, loss = _brent(tail, 0.0, x, hi, f(x), tol)
    assert np.isfinite(loss)
    assert loss == f(step)
    assert loss <= f(x)
    assert abs(step - a) <= tol * a
    assert _bracket_width(steps + [x, hi], a) <= tol * step
    assert all(0.0 < s < hi for s in steps)
    assert len(steps) == len(set(steps))


# valid config values: each inside its field's bounds, integers where a float is accepted too
_number = st.one_of(_real(-10.0, 10.0), st.integers(-10, 10))
_positive = st.one_of(_log_uniform(-6.0, 10.0), st.integers(1, 10))
_non_negative = st.one_of(st.just(0), _log_uniform(-8.0, 2.0))
_count = st.integers(1, 500)
_text = st.text(max_size=8)


def _part(kinds):
    return st.one_of(*(
        st.fixed_dictionaries({"type": st.just(name), **dict.fromkeys(cls.slot_names, _real(0.0, 2.0))})
        for name, cls in kinds.items()
    ))


_scatterer_lists = st.lists(
    st.fixed_dictionaries(
        {part: _part(kinds) for part, kinds in _PRIMITIVE_TYPES.items()}, optional={"description": _text}
    ),
    min_size=1,
    max_size=3,
)
_vectors = st.lists(st.one_of(_real(-1.0, 1.0), st.integers(-1, 1)), min_size=3, max_size=3)
_geometries = st.one_of(
    st.fixed_dictionaries(
        {"sightlines": st.lists(_vectors.filter(lambda v: sum(c * c for c in v) > 0.01), min_size=1, max_size=4)},
        optional={"description": _text},
    ),
    st.fixed_dictionaries(
        {"sweep": st.fixed_dictionaries(
            {"count": _count}, optional={"azimuth_start": _number, "azimuth_stop": _number, "elevation": _number}
        )},
        optional={"description": _text},
    ),
)
_fits = st.fixed_dictionaries(
    {"strategy": st.sampled_from(("coherent", "noncoherent", "sequential")), "initial_model": _scatterer_lists},
    optional={
        "weight": st.just("identity"),
        "descent": st.fixed_dictionaries({}, optional={
            "max_iters": st.integers(0, 500),
            "loss_rel_tol": _non_negative,
            "grad_norm_tol": _non_negative,
        }),
    },
)


@st.composite
def raw_configs(draw):
    """Valid configs: random subsets of the optional blocks and fields, and either geometry source."""
    raw = draw(st.fixed_dictionaries(
        {
            "waveform": st.fixed_dictionaries(
                {"bandwidth_hz": _positive, "center_frequency_hz": _positive},
                optional={"duration_s": _positive, "amplitude": _positive},
            ),
            "scatterers": _scatterer_lists,
            "geometry": _geometries,
        },
        optional={
            "description": _text,
            "grid": st.fixed_dictionaries({}, optional={"b0_m": _number, "delta_m": _positive, "m_samples": _count}),
            "noise": st.fixed_dictionaries({}, optional={"sigma2": _non_negative, "seed": st.integers(0, 2**40)}),
            "fit": _fits,
        },
    ))
    if "fit" in raw and raw.get("noise", {}).get("sigma2", 0) > 0 and draw(st.booleans()):
        raw["fit"]["weight"] = "inverse_noise"
    return raw


@PROPERTY
@given(raw_configs())
def test_resolving_a_resolved_config_changes_nothing(raw):
    once = resolve_config(raw)
    assert json.dumps(resolve_config(once)) == json.dumps(once)


def test_all_names_resolve():
    names = scatterfit.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert getattr(scatterfit, name, None) is not None, name


def test_every_exported_name_has_a_user():
    # a public name that only its own definition and the tests mention is
    # surface without behaviour; the frozen acceptance tests count as a user
    root = Path(__file__).resolve().parents[1]
    sources = [p for p in (root / "src" / "scatterfit").glob("*.py") if p.name != "__init__.py"]
    sources += sorted((root / "bench").rglob("*.py")) + sorted((root / "bench").rglob("*.md"))
    sources += [root / "README.md", root / "tests" / "test_acceptance.py"]
    lines = [line for p in sources for line in p.read_text(encoding="utf-8").splitlines()]
    unused = []
    for name in scatterfit.__all__:
        used = re.compile(rf"\b{name}\b")
        own = re.compile(rf"^\s*(def|class)\s+{name}\b")
        if not any(used.search(line) and not own.match(line) for line in lines):
            unused.append(name)
    assert not unused, f"exported but used nowhere outside the unit tests: {unused}"
