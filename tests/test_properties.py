"""Invariants of the one forward pass, the stack-aware losses and the bound, over random inputs."""

import dataclasses
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import scatterfit
from scatterfit import (
    C_LIGHT,
    FixedAmplitude,
    FixedCylindrical,
    LfmWaveform,
    LineSearchConfig,
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
    line_search,
    noncoherent_clamp,
    noncoherent_loss,
    noncoherent_loss_gradient,
    profile_jacobians,
    sightline_from_angles,
    synthesize_profiles,
)
from conftest import POSITION_KINDS, rel_err
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


@PROPERTY
@given(
    models,
    line_stacks,
    bin_counts.flatmap(lambda m: st.lists(grids(m), min_size=2, max_size=3)),
    st.integers(0, 2**32 - 1),
)
def test_mixed_grid_batch_is_sum_of_singles(wf_unit, model, lines, grid_set, seed):
    rng = np.random.default_rng(seed)
    obs = []
    for k, line in enumerate(lines):
        grid = grid_set[k % len(grid_set)]  # interleave the grids
        obs.append(Observation(_noisy(rng, synthesize_profiles(model, wf_unit, grid, line)[0]), line, grid))
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
@given(mixed_models, line_stacks, bin_counts.flatmap(grids))
def test_compiled_pass_equals_single_scatterer_models(wf_unit, model, lines, grid):
    # the per-type groups reassemble exactly what each scatterer gives alone:
    # profiles add, and Jacobian columns sit in slot order
    g, jac = profile_jacobians(model, wf_unit, grid, lines)
    assert g.shape == (len(lines), grid.m) and jac.shape == (len(lines), grid.m, model.n_params)
    if not model.scatterers:
        assert not np.any(g)
        return
    parts = [profile_jacobians(PointScatteringModel((s,)), wf_unit, grid, lines) for s in model.scatterers]
    assert rel_err(g, sum(p[0] for p in parts)) <= 1e-12
    assert rel_err(jac, np.concatenate([p[1] for p in parts], axis=-1)) <= 1e-12
    # an unpacked model shares the compiled layout and evaluates the same
    same = model.unpack(model.pack())
    assert np.array_equal(synthesize_profiles(same, wf_unit, grid, lines), g)
    assert all(a == b for a, b in zip(same.scatterers, model.scatterers, strict=True))


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


def _search(f, initial_step, tol):
    """Run line_search on f, returning its result and every step it evaluated."""
    steps = []

    def probe(s):
        steps.append(s)
        return f(s)

    return line_search(probe, f(0.0), initial_step, LineSearchConfig(section_tol=tol)), steps


def _bracket_width(steps, a):
    """Width of the tightest evaluated bracket around a (step 0 counts as known)."""
    return min(s for s in steps if s >= a) - max([0.0] + [s for s in steps if s <= a])


LINE_SEARCH = settings(max_examples=300, deadline=None)
tolerances = _log_uniform(-6, -2)
initial_factors = _log_uniform(-3, 3)


@LINE_SEARCH
@given(unimodal_rays(), initial_factors, tolerances)
def test_line_search_finds_the_minimizer(ray, factor, tol):
    f, a = ray
    (step, loss, stalled), steps = _search(f, factor * a, tol)
    assert not stalled
    assert abs(step - a) <= tol * a
    assert _bracket_width(steps, a) <= tol * step
    assert loss == f(step)
    assert loss <= f(0.0)
    assert min(steps) > 0.0
    assert len(steps) == len(set(steps))  # no step is evaluated twice


@LINE_SEARCH
@given(unimodal_rays(), initial_factors, tolerances, _real(1.01, 4.0), st.sampled_from((np.inf, np.nan)))
def test_line_search_survives_a_non_finite_tail(ray, factor, tol, cut, bad):
    f, a = ray

    def tail(s):
        return f(s) if s < cut * a else bad

    (step, loss, stalled), steps = _search(tail, factor * a, tol)
    assert not stalled
    assert np.isfinite(loss)
    assert loss == tail(step)
    assert loss <= tail(0.0)
    assert abs(step - a) <= tol * a
    assert _bracket_width(steps, a) <= tol * step
    assert min(steps) > 0.0


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
