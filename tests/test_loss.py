"""Coherent and noncoherent losses, their gradients, and the weight forms."""

import math

import numpy as np
import pytest

from scatterfit import (
    NoiseSpec,
    Observation,
    PointScatteringModel,
    RangeGrid,
    WeightMatrix,
    batch_gradient,
    batch_loss,
    coherent_loss,
    coherent_loss_gradient,
    gradient_descent,
    noncoherent_clamp,
    noncoherent_loss,
    noncoherent_loss_gradient,
    profile_jacobians,
    sequential_fit,
    sightline_from_angles,
    synthesize_pattern,
    synthesize_profiles,
)
from conftest import POSITION_KINDS, fd_gradient, reference_truth, random_line, random_model, random_scatterer, rel_err

M = 12


def naive_quad(w: WeightMatrix, r: np.ndarray) -> float:
    wm = dense_of(w, r.size)
    total = 0.0
    for i in range(r.size):
        for j in range(r.size):
            total += (np.conj(r[i]) * wm[i, j] * r[j]).real
    return total


def dense_of(w: WeightMatrix, m: int) -> np.ndarray:
    if w.kind == "scalar":
        return w.scale * np.eye(m)
    return np.diag(w.diag)


def weight_cases(rng, m):
    return [
        WeightMatrix.identity(),
        WeightMatrix.from_sigma2(0.04),
        WeightMatrix.diagonal(rng.uniform(0.2, 2.0, size=m)),
    ]


def test_losses_match_naive_quadratic_form(rng):
    z = rng.normal(size=M) + 1j * rng.normal(size=M)
    g = rng.normal(size=M) + 1j * rng.normal(size=M)
    for w in weight_cases(rng, M):
        want_c = naive_quad(w, z - g)
        want_n = naive_quad(w, np.abs(z) - np.abs(g))
        assert coherent_loss(z, g, w) == pytest.approx(want_c, rel=1e-12)
        assert noncoherent_loss(z, g, w) == pytest.approx(want_n, rel=1e-12)


def test_gradients_match_naive_formulas(rng):
    z = rng.normal(size=M) + 1j * rng.normal(size=M)
    g = rng.normal(size=M) + 1j * rng.normal(size=M)
    jac = rng.normal(size=(M, 5)) + 1j * rng.normal(size=(M, 5))
    for w in weight_cases(rng, M):
        wm = dense_of(w, M)
        want = 2.0 * (np.conj(jac).T @ (wm @ (g - z))).real
        got = coherent_loss_gradient(z, g, jac, w)
        assert rel_err(got, want) < 1e-12

        slope = (g.real / np.abs(g))[:, None] * jac.real + (g.imag / np.abs(g))[:, None] * jac.imag
        want_n = 2.0 * slope.T @ (wm @ (np.abs(g) - np.abs(z)))
        got_n = noncoherent_loss_gradient(z, g, jac, w)
        assert rel_err(got_n, want_n) < 1e-12


def test_gradients_match_finite_differences(wf_unit, rng):
    grid = RangeGrid(-3.0, 0.17, 31)
    line = sightline_from_angles(0.5, 0.3)
    model = random_model(rng, n=2)
    theta = model.pack()
    g = synthesize_profiles(model, wf_unit, grid, line)[0]
    # keep the modulus kink far away so central differences stay clean
    assert np.min(np.abs(g)) > 1e-3 * wf_unit.peak
    z = g + 0.05 * (rng.normal(size=grid.m) + 1j * rng.normal(size=grid.m))
    jac = profile_jacobians(model, wf_unit, grid, line)[1][0]
    for w in weight_cases(rng, grid.m):
        got = coherent_loss_gradient(z, g, jac, w)

        def loss_c(th):
            return coherent_loss(z, synthesize_profiles(model.unpack(th), wf_unit, grid, line)[0], w)

        assert rel_err(got, fd_gradient(loss_c, theta)) < 1e-5

        got_n = noncoherent_loss_gradient(z, g, jac, w, noncoherent_clamp(wf_unit))

        def loss_n(th):
            return noncoherent_loss(z, synthesize_profiles(model.unpack(th), wf_unit, grid, line)[0], w)

        assert rel_err(got_n, fd_gradient(loss_n, theta)) < 1e-5


def test_one_profile_against_an_aspect_stack_sums_the_aspects(rng):
    # z (m,) broadcasts against g (K, m): a 2-D g is an aspect stack, not a
    # batch, so the losses are floats and the gradients (P,), as for z tiled to (K, m)
    k, p = 3, 5
    z = rng.normal(size=M) + 1j * rng.normal(size=M)
    g = rng.normal(size=(k, M)) + 1j * rng.normal(size=(k, M))
    jac = rng.normal(size=(k, M, p)) + 1j * rng.normal(size=(k, M, p))
    tiled = np.tile(z, (k, 1))
    for w in weight_cases(rng, M):
        for loss in (coherent_loss, noncoherent_loss):
            got = loss(z, g, w)
            assert isinstance(got, float) and got == loss(tiled, g, w)
        for grad in (coherent_loss_gradient, noncoherent_loss_gradient):
            got = grad(z, g, jac, w)
            assert got.shape == (p,) and np.array_equal(got, grad(tiled, g, jac, w))


def test_noncoherent_is_phase_invariant(rng):
    z = rng.normal(size=M) + 1j * rng.normal(size=M)
    g = rng.normal(size=M) + 1j * rng.normal(size=M)
    jac = rng.normal(size=(M, 4)) + 1j * rng.normal(size=(M, 4))
    w = WeightMatrix.diagonal(rng.uniform(0.5, 1.5, size=M))
    base = noncoherent_loss(z, g, w)
    base_grad = noncoherent_loss_gradient(z, g, jac, w)
    for phi in (0.3, np.pi / 2.0, 2.8):
        zr = z * np.exp(1j * phi)
        assert noncoherent_loss(zr, g, w) == pytest.approx(base, rel=1e-12)
        assert rel_err(noncoherent_loss_gradient(zr, g, jac, w), base_grad) < 1e-12


def test_coherent_is_not_phase_invariant(rng):
    g = rng.normal(size=M) + 1j * rng.normal(size=M)
    z = g + 0.01 * (rng.normal(size=M) + 1j * rng.normal(size=M))
    w = WeightMatrix.identity()
    assert coherent_loss(-z, g, w) > coherent_loss(z, g, w)


def test_nonnegative_and_zero_iff_match(rng):
    z = rng.normal(size=M) + 1j * rng.normal(size=M)
    g = rng.normal(size=M) + 1j * rng.normal(size=M)
    w = WeightMatrix.from_sigma2(0.5)
    assert coherent_loss(z, g, w) > 0.0
    assert noncoherent_loss(z, g, w) > 0.0
    assert coherent_loss(g, g, w) == 0.0
    # same modulus, different phase: noncoherent sees a perfect match
    rot = g * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=M))
    assert noncoherent_loss(rot, g, w) <= 1e-28 * float(np.sum(np.abs(g) ** 2))
    assert coherent_loss(rot, g, w) > 0.0


def test_clamp_zeroes_small_bins(rng):
    g = rng.normal(size=M) + 1j * rng.normal(size=M)
    g[3] = 1e-13 + 1e-13j
    g[7] = 0.0
    z = rng.normal(size=M) + 1j * rng.normal(size=M)
    jac = rng.normal(size=(M, 5)) + 1j * rng.normal(size=(M, 5))
    w = WeightMatrix.identity()
    clamp = 1e-6
    got = noncoherent_loss_gradient(z, g, jac, w, clamp)
    live = np.abs(g) >= clamp
    slope = np.where(live, g.real / np.where(live, np.abs(g), 1.0), 0.0)[:, None] * jac.real
    slope += np.where(live, g.imag / np.where(live, np.abs(g), 1.0), 0.0)[:, None] * jac.imag
    want = 2.0 * slope.T @ (np.abs(g) - np.abs(z))
    assert rel_err(got, want) < 1e-12
    # the clamped rows must have no influence at all
    jac2 = jac.copy()
    jac2[3] = 123.0 + 45.0j
    jac2[7] = -7.0j
    assert np.array_equal(noncoherent_loss_gradient(z, g, jac2, w, clamp), got)


def test_noncoherent_clamp_scales_with_peak(wf_unit):
    assert noncoherent_clamp(wf_unit) == pytest.approx(1e-12 * wf_unit.peak)


def test_observation_validation(grid_mid):
    line = sightline_from_angles(0.0, 0.0)
    with pytest.raises(ValueError):
        Observation(np.zeros(grid_mid.m + 1, dtype=complex), line, grid_mid)
    with pytest.raises(ValueError):
        Observation(np.full(grid_mid.m, np.nan, dtype=complex), line, grid_mid)
    obs = Observation(np.zeros(grid_mid.m, dtype=complex), line, grid_mid)
    with pytest.raises(ValueError):
        obs.z[0] = 1.0


def test_observation_copies_the_callers_samples(grid_mid):
    # the observation freezes its own copy; the caller's array stays writeable
    # and shares no memory with it
    line = sightline_from_angles(0.0, 0.0)
    z = np.zeros(grid_mid.m, dtype=complex)
    obs = Observation(z, line, grid_mid)
    assert z.flags.writeable
    assert not obs.z.flags.writeable
    assert not np.shares_memory(z, obs.z)
    z[0] = 1.0
    assert obs.z[0] == 0.0


def test_weight_validation():
    for sigma2 in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="noise power must be finite and > 0"):
            WeightMatrix.from_sigma2(sigma2)
    with pytest.raises(ValueError):
        WeightMatrix("scalar", -2.0)
    with pytest.raises(ValueError):
        WeightMatrix.diagonal(np.array([[1.0, 2.0]]))
    with pytest.raises(ValueError, match="diagonal weights must be >= 0"):
        WeightMatrix.diagonal(np.array([1.0, -0.5, 2.0]))
    for kind in ("banded", "dense"):
        with pytest.raises(ValueError):
            WeightMatrix(kind)
    w = WeightMatrix.diagonal(np.ones(M))
    with pytest.raises(ValueError):
        w.check_bins(M + 1)


def test_batch_additivity(wf_unit, rng):
    grid = RangeGrid(-3.0, 0.2, 23)
    model = reference_truth()
    lines = [random_line(rng) for _ in range(3)]
    obs = []
    for line in lines:
        g = synthesize_profiles(model, wf_unit, grid, line)[0]
        noise = 0.1 * (rng.normal(size=grid.m) + 1j * rng.normal(size=grid.m))
        obs.append(Observation(g + noise, line, grid))
    w = WeightMatrix.identity()
    guess = model.unpack(model.pack() + 0.01)
    for kind in ("coherent", "noncoherent"):
        total = batch_loss(obs, guess, wf_unit, w, kind)
        singles = sum(batch_loss([o], guess, wf_unit, w, kind) for o in obs)
        assert total == pytest.approx(singles, rel=1e-13)
        gtotal = batch_gradient(obs, guess, wf_unit, w, kind)
        gsingles = sum(batch_gradient([o], guess, wf_unit, w, kind) for o in obs)
        assert rel_err(gtotal, gsingles) < 1e-12


def test_batch_mixed_grids(wf_unit, rng):
    # observations on two grids (same bin count, different offsets and
    # spacings) are refused by every path that stacks them
    model = reference_truth()
    g1 = RangeGrid(-3.0, 0.2, 23)
    g2 = RangeGrid(-2.5, 0.15, 23)
    line1, line2 = random_line(rng), random_line(rng)
    z1 = synthesize_profiles(model, wf_unit, g1, line1)[0]
    z2 = synthesize_profiles(model, wf_unit, g2, line2)[0]
    obs = [Observation(z1, line1, g1), Observation(z2, line2, g2)]
    w = WeightMatrix.identity()
    message = "^all observations must share one range grid$"
    for evaluate in (batch_loss, batch_gradient):
        with pytest.raises(ValueError, match=message):
            evaluate(obs, model, wf_unit, w, "coherent")
    with pytest.raises(ValueError, match=message):
        gradient_descent(obs, model, wf_unit, "coherent", w)
    with pytest.raises(ValueError, match=message):
        sequential_fit(obs, model, wf_unit, w)


def test_batch_validation(wf_unit, rng):
    model = reference_truth()
    w = WeightMatrix.identity()
    with pytest.raises(ValueError):
        batch_loss([], model, wf_unit, w, "coherent")
    grid = RangeGrid(-3.0, 0.2, 23)
    line = random_line(rng)
    z = synthesize_profiles(model, wf_unit, grid, line)[0]
    obs = Observation(z, line, grid)
    with pytest.raises(ValueError):
        batch_loss([obs], model, wf_unit, w, "squared")
    short = RangeGrid(-3.0, 0.2, 11)
    obs2 = Observation(np.zeros(11, dtype=complex), line, short)
    with pytest.raises(ValueError):
        batch_loss([obs, obs2], model, wf_unit, w, "coherent")
    wd = WeightMatrix.diagonal(np.ones(9))
    with pytest.raises(ValueError):
        batch_gradient([obs], model, wf_unit, wd, "coherent")


def test_loss_is_exactly_zero_at_the_truth(wf_unit, grid_mid, rng):
    # noise-free data and the model that made it give a loss of exactly 0.0,
    # not a rounding residue: the pattern and the batch run one forward pass
    for trial in range(6):
        kinds = list(POSITION_KINDS) + [POSITION_KINDS[trial % 3]]
        rng.shuffle(kinds)
        truth = PointScatteringModel(tuple(random_scatterer(rng, k) for k in kinds))
        lines = [random_line(rng) for _ in range(5)]
        obs = list(synthesize_pattern(truth, wf_unit, grid_mid, lines, NoiseSpec(0.0, seed=trial)).observations)
        for kind in ("coherent", "noncoherent"):
            for w in (WeightMatrix.identity(), WeightMatrix.from_sigma2(0.01)):
                assert batch_loss(obs, truth, wf_unit, w, kind) == 0.0
