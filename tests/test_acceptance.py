"""Acceptance gate.

Each test checks one end-to-end scenario at its stated tolerance and prints a
single PASS/FAIL line (bypassing capture) with the measured numbers, so a full
run reads as a scorecard.  Scenario constants are frozen; README.md ("Tests
and the acceptance gate") lists each scenario's carrier frequency and its
quarter wavelength.
"""

import time

import numpy as np
import pytest

from scatterfit import (
    C_LIGHT,
    DescentConfig,
    FixedAmplitude,
    NoiseSpec,
    PointScatteringModel,
    RangeGrid,
    Scatterer,
    Spherical,
    WeightMatrix,
    batch_loss,
    coherent_loss,
    coherent_loss_gradient,
    crlb,
    fisher_info,
    gradient_descent,
    lfm_from_band,
    noncoherent_clamp,
    noncoherent_loss,
    noncoherent_loss_gradient,
    profile_jacobians,
    sequential_fit,
    sightline_from_angles,
    sweep_sightlines,
    synthesize_pattern,
    synthesize_profiles,
)
from conftest import (
    POSITION_KINDS,
    fd_gradient,
    reference_guess,
    reference_truth,
    random_line,
    random_scatterer,
    rel_err,
)

# every scenario here is end to end; `pytest -m "not slow"` leaves them out
pytestmark = pytest.mark.slow


def report(capsys, name, ok, detail):
    with capsys.disabled():
        print(f"\n[{name}] {'PASS' if ok else 'FAIL'}  {detail}", flush=True)


# ---------------------------------------------------- 1: gradient fidelity ---

def test_gradient_fidelity(capsys):
    t0 = time.monotonic()
    wf = lfm_from_band(500e6, 3e9, 1e-6, 1000.0)
    clamp = noncoherent_clamp(wf)
    rng = np.random.default_rng(11)
    kinds_seen = set()
    worst = {"coherent": 0.0, "noncoherent": 0.0}
    scenarios = 0
    while scenarios < 50:
        n = int(rng.integers(1, 4))
        kinds = [POSITION_KINDS[int(rng.integers(0, 3))] for _ in range(n)]
        kinds[0] = POSITION_KINDS[scenarios % 3]
        model = PointScatteringModel(tuple(random_scatterer(rng, k) for k in kinds))
        line = random_line(rng)
        grid = RangeGrid(float(rng.uniform(-4.5, -3.5)), float(rng.uniform(0.12, 0.2)), int(rng.integers(40, 60)))
        theta = model.pack() + rng.normal(scale=0.03, size=model.n_params)
        eval_model = model.unpack(theta)
        g = synthesize_profiles(eval_model, wf, grid, line)[0]
        # redraw when a bin sits so close to the modulus kink that central
        # differences would straddle it; true sub-clamp bins are excluded below
        mags = np.abs(g)
        if np.any((mags > 10.0 * clamp) & (mags < 1e-3 * wf.peak)):
            continue
        kinds_seen.update(kinds)
        scenarios += 1
        z = synthesize_profiles(model, wf, grid, line)[0]
        z = z + 0.1 * (rng.normal(size=grid.m) + 1j * rng.normal(size=grid.m))
        base = [WeightMatrix.identity(), WeightMatrix.from_sigma2(0.02),
                WeightMatrix.diagonal(rng.uniform(0.3, 1.8, size=grid.m))][scenarios % 3]
        live = mags >= 10.0 * clamp
        diag = np.full(grid.m, base.scale) if base.kind == "scalar" else base.diag
        w_masked = WeightMatrix.diagonal(np.where(live, diag, 0.0))
        jac = profile_jacobians(eval_model, wf, grid, line)[1][0]

        got_c = coherent_loss_gradient(z, g, jac, base)
        fd_c = fd_gradient(
            lambda th: coherent_loss(z, synthesize_profiles(model.unpack(th), wf, grid, line)[0], base),
            theta,
        )
        worst["coherent"] = max(worst["coherent"], rel_err(got_c, fd_c))

        got_n = noncoherent_loss_gradient(z, g, jac, w_masked, clamp)
        fd_n = fd_gradient(
            lambda th: noncoherent_loss(z, synthesize_profiles(model.unpack(th), wf, grid, line)[0], w_masked),
            theta,
        )
        worst["noncoherent"] = max(worst["noncoherent"], rel_err(got_n, fd_n))

    elapsed = time.monotonic() - t0
    ok = worst["coherent"] < 1e-5 and worst["noncoherent"] < 1e-5
    ok = ok and kinds_seen == set(POSITION_KINDS) and elapsed < 60.0
    report(
        capsys,
        "1 gradient fidelity",
        ok,
        f"50 scenarios, worst rel err coherent {worst['coherent']:.2e} / "
        f"noncoherent {worst['noncoherent']:.2e} (tol 1e-5), {elapsed:.1f}s < 60s",
    )
    assert kinds_seen == set(POSITION_KINDS)
    assert worst["coherent"] < 1e-5
    assert worst["noncoherent"] < 1e-5
    assert elapsed < 60.0


# ------------------------------------------------- 2: kernel closed form ---

def test_kernel_closed_form(capsys):
    from scipy.integrate import quad

    t0 = time.monotonic()
    wf = lfm_from_band(500e6, 3e9, 1e-6, 1000.0)

    def chirp(t):
        return wf.amplitude * np.exp(1j * (np.pi * wf.chirp_rate * t**2 + 2.0 * np.pi * wf.f0 * t))

    def overlap(tau):
        re, _ = quad(lambda t: (chirp(t) * np.conj(chirp(t - tau))).real, 0.0, wf.duration,
                     limit=4000, epsabs=1e-13, epsrel=1e-12)
        im, _ = quad(lambda t: (chirp(t) * np.conj(chirp(t - tau))).imag, 0.0, wf.duration,
                     limit=4000, epsabs=1e-13, epsrel=1e-12)
        return re + 1j * im

    rng = np.random.default_rng(22)
    taus = rng.uniform(-0.98 * wf.duration, 0.98 * wf.duration, size=50)
    worst = max(abs(wf.autocorr(float(t)) - overlap(float(t))) / wf.peak for t in taus)
    exact_peak = wf.autocorr(0.0) == complex(wf.peak)
    elapsed = time.monotonic() - t0
    ok = worst < 1e-6 and exact_peak and elapsed < 30.0
    report(
        capsys,
        "2 kernel closed form",
        ok,
        f"50 lags, worst err {worst:.2e} of peak (tol 1e-6), zero-lag exact: {exact_peak}, "
        f"{elapsed:.1f}s < 30s",
    )
    assert worst < 1e-6
    assert exact_peak
    assert elapsed < 30.0


# ------------------------------------- 3 & 4: single-aspect noisy fitting ---

@pytest.fixture(scope="module")
def single_aspect_fits():
    wf = lfm_from_band(500e6, 3e9, 1e-6, 1000.0)
    grid = RangeGrid(-5.0, C_LIGHT / (4.0 * 500e6), 67)
    line = sightline_from_angles(0.0, np.pi / 6.0)
    w = WeightMatrix.from_sigma2(0.01)
    t0 = time.monotonic()
    runs = []
    for seed in range(10):
        obs = synthesize_pattern(reference_truth(), wf, grid, [line], NoiseSpec(0.01, seed=seed)).observations[0]
        seq = sequential_fit([obs], reference_guess(), wf, w)
        coh = gradient_descent([obs], reference_guess(), wf, "coherent", w)
        runs.append((seq, coh))
    return runs, time.monotonic() - t0


def test_noisy_fit_reaches_noise_floor(single_aspect_fits, capsys):
    runs, elapsed = single_aspect_fits
    mean_power = float(np.mean([seq.residual_power.mean() for seq, _ in runs]))
    dbw = 10.0 * np.log10(mean_power)
    ok = abs(dbw - (-20.0)) <= 3.0 and elapsed < 300.0
    report(
        capsys,
        "3 noisy fit residual",
        ok,
        f"10 seeds, mean residual {dbw:.2f} dBW (target -20 +/- 3), fits took {elapsed:.1f}s < 300s",
    )
    assert abs(dbw - (-20.0)) <= 3.0
    assert elapsed < 300.0


def test_sequential_beats_coherent_only(single_aspect_fits, capsys):
    runs, elapsed = single_aspect_fits
    wins = sum(1 for seq, coh in runs if coh.final_loss > seq.final_loss)
    ok = wins >= 8 and elapsed < 300.0
    report(
        capsys,
        "4 sequential dominance",
        ok,
        f"coherent-only worse on {wins}/10 seeds (need >= 8), shared fits took {elapsed:.1f}s",
    )
    assert wins >= 8
    assert elapsed < 300.0


# ------------------------------------------------ 5: loss landscape sweep ---

def test_loss_landscape_periodicity(capsys):
    t0 = time.monotonic()
    wf = lfm_from_band(500e6, 3e9, 1e-6, 1000.0)
    grid = RangeGrid(-5.0, C_LIGHT / (4.0 * 500e6), 67)
    line = sightline_from_angles(0.0, 0.26)
    truth = reference_truth()
    z = synthesize_profiles(truth, wf, grid, line)[0]
    w = WeightMatrix.identity()
    clamp = noncoherent_clamp(wf)
    theta0 = truth.pack()
    j = truth.slot_labels().index("s0.r_s")
    step = 0.002
    offsets = np.arange(-0.2, 0.2 + step / 2.0, step)

    coh_grad = np.empty(offsets.size)
    non_loss = np.empty(offsets.size)
    for i, off in enumerate(offsets):
        theta = theta0.copy()
        theta[j] += off
        m = truth.unpack(theta)
        g = synthesize_profiles(m, wf, grid, line)[0]
        jac = profile_jacobians(m, wf, grid, line)[1][0]
        coh_grad[i] = coherent_loss_gradient(z, g, jac, w)[j]
        non_loss[i] = noncoherent_loss(z, g, w)

    # coherent ripple period from the gradient's zero-crossing spacing
    sign = np.sign(coh_grad)
    idx = np.nonzero(sign[:-1] * sign[1:] < 0)[0]
    crossings = offsets[idx] - coh_grad[idx] * step / (coh_grad[idx + 1] - coh_grad[idx])
    period = 2.0 * float(np.mean(np.diff(crossings)))

    # noncoherent landscape: the global minimum localizes the radius at zero
    # offset, with exactly one local minimum inside 0 +/- step
    interior = np.arange(1, offsets.size - 1)
    strict = interior[(non_loss[interior] < non_loss[interior - 1]) & (non_loss[interior] < non_loss[interior + 1])]
    minima_offsets = offsets[strict]
    global_at = float(offsets[int(np.argmin(non_loss))])
    near_zero = minima_offsets[np.abs(minima_offsets) <= step + 1e-12]
    elapsed = time.monotonic() - t0

    ok = (
        abs(period - 0.05) <= 0.005
        and abs(global_at) <= step + 1e-12
        and near_zero.size == 1
        and elapsed < 30.0
    )
    report(
        capsys,
        "5 landscape sweep",
        ok,
        f"coherent period {100*period:.2f} cm (5.00 +/- 0.50); noncoherent global min at "
        f"{global_at:+.3f} m with {near_zero.size} local minimum within +/-{step} m "
        f"({strict.size} strict minima across the full sweep, from sidelobe-carrier beat); "
        f"{elapsed:.1f}s < 30s",
    )
    assert abs(period - 0.05) <= 0.005
    assert abs(global_at) <= step + 1e-12
    assert near_zero.size == 1
    assert elapsed < 30.0


# -------------------------------------------------- 6: multi-aspect fit ---

def test_pattern_fit_reaches_noise_floor(capsys):
    t0 = time.monotonic()
    wf = lfm_from_band(500e6, 600e6, 1e-6, 1000.0)
    grid = RangeGrid(-2.0, C_LIGHT / (4.0 * 500e6), 27)
    lines = sweep_sightlines(64)
    pattern = synthesize_pattern(reference_truth(), wf, grid, lines, NoiseSpec(0.01, seed=7))
    w = WeightMatrix.from_sigma2(0.01)
    fit = sequential_fit(
        pattern,
        reference_guess(),
        wf,
        w,
        rough_cfg=DescentConfig(max_iters=1500),
        fine_cfg=DescentConfig(max_iters=2500),
    )
    dbw = 10.0 * np.log10(float(fit.residual_power.mean()))
    elapsed = time.monotonic() - t0
    ok = abs(dbw - (-20.0)) <= 3.0 and elapsed < 600.0
    report(
        capsys,
        "6 pattern fit residual",
        ok,
        f"64 aspects, mean residual {dbw:.2f} dBW (target -20 +/- 3), status {fit.status}, "
        f"{elapsed:.1f}s < 600s",
    )
    assert abs(dbw - (-20.0)) <= 3.0
    assert elapsed < 600.0


# --------------------------------------------------------------- 7: CRLB ---

def test_crlb_statistical_efficiency(capsys):
    t0 = time.monotonic()

    # algebraic checks on the reference target across several aspects
    wf_alg = lfm_from_band(500e6, 600e6, 1e-6, 1000.0)
    grid_alg = RangeGrid(-2.0, C_LIGHT / (4.0 * 500e6), 27)
    lines_alg = [sightline_from_angles(az, el) for az, el in [(0.0, 0.3), (1.3, -0.2), (2.7, 0.45), (4.5, 0.1)]]
    total = crlb(reference_truth(), wf_alg, grid_alg, lines_alg, 0.01)
    sym = float(np.max(np.abs(total.fisher - total.fisher.T)))
    eigmin = float(np.min(np.linalg.eigvalsh(total.fisher)))
    psd_ok = sym == 0.0 and eigmin >= -1e-10 * float(np.max(np.abs(total.fisher)))
    parts = sum(
        fisher_info(profile_jacobians(reference_truth(), wf_alg, grid_alg, l)[1][0], sigma2=0.01)
        for l in lines_alg
    )
    additive = rel_err(total.fisher, parts)

    # Monte Carlo efficiency on a two-scatterer target small enough to fit
    # to numerical convergence 200 times
    wf = lfm_from_band(200e6, 150e6, 1e-6, 1000.0)
    grid = RangeGrid(-1.0, C_LIGHT / (4.0 * 200e6), 11)
    line = sightline_from_angles(0.3, 0.2)
    truth = PointScatteringModel((Scatterer(FixedAmplitude(1.0, 0.0), Spherical(1.0)),))
    sigma2 = 1e-4
    w = WeightMatrix.from_sigma2(sigma2)
    cfg = DescentConfig(max_iters=3000, loss_rel_tol=1e-12, grad_norm_tol=1e-8)
    init = truth.unpack(truth.pack() + np.array([3e-4, -2e-4, 1e-4]))
    theta_true = truth.pack()
    errors = np.empty((200, 3))
    for seed in range(200):
        obs = synthesize_pattern(truth, wf, grid, [line], NoiseSpec(sigma2, seed=seed)).observations[0]
        fit = gradient_descent([obs], init, wf, "coherent", w, cfg)
        errors[seed] = fit.theta - theta_true
    mse = np.mean(errors**2, axis=0)
    bound = crlb(truth, wf, grid, [line], sigma2)
    ratios = mse / np.diag(bound.covariance)
    elapsed = time.monotonic() - t0

    ok = psd_ok and additive < 1e-10 and bool(np.all(ratios >= 0.8)) and elapsed < 600.0
    report(
        capsys,
        "7 CRLB",
        ok,
        f"Fisher symmetric/PSD: {psd_ok} (eigmin {eigmin:.2e}); additivity err {additive:.2e} "
        f"(tol 1e-10); 200-seed MSE/CRLB per slot {np.round(ratios, 3).tolist()} (need >= 0.8); "
        f"{elapsed:.1f}s < 600s",
    )
    assert psd_ok
    assert additive < 1e-10
    assert np.all(ratios >= 0.8), ratios
    assert elapsed < 600.0


# ------------------------------------------------- 8: noise-free recovery ---

def test_noise_free_recovery(capsys):
    t0 = time.monotonic()
    wf = lfm_from_band(500e6, 300e6, 1e-6, 1000.0)
    grid = RangeGrid(-2.0, C_LIGHT / (4.0 * 500e6), 27)
    angles = [(0.0, 0.35), (1.8, -0.25), (3.6, 0.5), (5.0, -0.45)]
    lines = [sightline_from_angles(az, el) for az, el in angles]
    pattern = synthesize_pattern(reference_truth(), wf, grid, lines, NoiseSpec(0.0))
    w = WeightMatrix.identity()
    guess = reference_guess()
    l0 = batch_loss(list(pattern.observations), guess, wf, w, "coherent")
    fit = sequential_fit(
        pattern,
        guess,
        wf,
        w,
        rough_cfg=DescentConfig(max_iters=1500, loss_rel_tol=1e-14, grad_norm_tol=1e-12),
        fine_cfg=DescentConfig(max_iters=2500, loss_rel_tol=0.0, grad_norm_tol=1e-13),
    )
    loss_ratio = fit.final_loss / l0

    truth = reference_truth()
    theta_true, theta_hat = truth.pack(), fit.theta
    labels = truth.slot_labels()
    slices = truth.slot_slices()
    bad = []
    worst_err = 0.0
    gauge_note = ""
    for i, s in enumerate(truth.scatterers):
        sl = slices[i]
        names = s.slot_names
        true_r = dict(zip(names, theta_true[sl])).get("r_s")
        for k, name in enumerate(names):
            err = abs(theta_hat[sl][k] - theta_true[sl][k])
            if name == "phi_s" and true_r is not None and abs(true_r) < 1e-9:
                # ring azimuth is a gauge direction at zero radius: any value
                # maps to the same point, so compare induced positions instead
                p_true = s.position(lines[0]).p
                p_hat = fit.model.scatterers[i].position(lines[0]).p
                perr = float(np.linalg.norm(p_hat - p_true))
                gauge_note = f"s{i}.phi_s checked via position (err {perr:.1e} m); "
                if perr > 1e-4:
                    bad.append(f"s{i}.{name} position err {perr:.2e}")
                continue
            worst_err = max(worst_err, err)
            if err > 1e-4:
                bad.append(f"s{i}.{name} err {err:.2e}")
    elapsed = time.monotonic() - t0
    ok = loss_ratio < 1e-10 and not bad and elapsed < 120.0
    report(
        capsys,
        "8 noise-free recovery",
        ok,
        f"final/initial coherent loss {loss_ratio:.2e} (tol 1e-10); worst slot err {worst_err:.2e} "
        f"(tol 1e-4); {gauge_note}{'violations: ' + ', '.join(bad) if bad else 'all 14 slots recovered'}; "
        f"{elapsed:.1f}s < 120s",
    )
    assert loss_ratio < 1e-10
    assert not bad, bad
    assert elapsed < 120.0
