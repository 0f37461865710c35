"""Descent fitting, exact line search, Fisher information, and the CRLB."""

import numpy as np
import pytest

from scatterfit import (
    C_LIGHT,
    CrlbResult,
    DescentConfig,
    FixedAmplitude,
    LineSearchConfig,
    PointScatteringModel,
    RangeGrid,
    Scatterer,
    Spherical,
    WeightMatrix,
    batch_gradient,
    crlb,
    fisher_info,
    gradient_descent,
    line_search,
    lfm_from_band,
    profile_jacobians,
    sequential_fit,
    sightline_from_angles,
    synthesize_profiles,
)
from scatterfit import NoiseSpec, Observation, synthesize_pattern
from conftest import reference_guess, reference_truth, random_line, rel_err


def test_line_search_quadratic():
    step, loss, stalled = line_search(lambda s: (s - 3.0) ** 2, 9.0, initial_step=1.0)
    assert not stalled
    assert step == pytest.approx(3.0, rel=1e-3)
    assert loss == (step - 3.0) ** 2
    # a tolerance finer than floats can resolve stops at the float floor
    step, _, _ = line_search(lambda s: (s - 3.0) ** 2, 9.0, 1.0, LineSearchConfig(section_tol=1e-17))
    assert step == pytest.approx(3.0, rel=1e-12)


def test_line_search_evaluation_count():
    # a parabolic step lands on a quadratic's vertex; the rest is bracketing
    # and the steps that close the bracket from both sides
    steps = []

    def f(s):
        steps.append(s)
        return (s - 3.0) ** 2

    step, _, _ = line_search(f, 9.0, initial_step=1.0)
    assert step == pytest.approx(3.0, rel=1e-4)
    assert 0.0 not in steps
    assert len(steps) <= 12


def test_line_search_stalls_on_increase():
    step, loss, stalled = line_search(lambda s: s * s + 1.0 if s > 0.0 else 1.0, 1.0, initial_step=1.0)
    assert stalled
    assert step == 0.0
    assert loss == 1.0


def test_line_search_handles_bad_initial_step():
    step, _, stalled = line_search(lambda s: (s - 2.0) ** 2, 4.0, initial_step=float("nan"))
    assert not stalled
    assert step == pytest.approx(2.0, rel=1e-3)


def test_line_search_config_validation():
    with pytest.raises(ValueError):
        LineSearchConfig(bracket_growth=1.0)
    with pytest.raises(ValueError):
        LineSearchConfig(max_bracket_steps=0)
    with pytest.raises(ValueError):
        LineSearchConfig(section_tol=0.0)
    with pytest.raises(ValueError):
        DescentConfig(max_iters=-1)
    with pytest.raises(ValueError):
        DescentConfig(loss_rel_tol=-1e-9)


def one_sphere_scenario():
    """Symmetric grid around one spherical return; amplitude slots decouple."""
    wf = lfm_from_band(500e6, 3e9, 1e-6, 1000.0)
    grid = RangeGrid(1.0 - 6 * 0.13, 0.13, 13)
    line = sightline_from_angles(0.3, 0.2)
    truth = PointScatteringModel((Scatterer(FixedAmplitude(2.0, 0.0), Spherical(1.0)),))
    return wf, grid, line, truth


def test_single_descent_step_solves_amplitude():
    # gradient at the start point is (up to roundoff) pure s_re, and the loss
    # along that ray is an exact quadratic: one exact line search nails it
    wf, grid, line, truth = one_sphere_scenario()
    z = synthesize_profiles(truth, wf, grid, line)[0]
    init = truth.unpack(np.array([1.0, 0.0, 1.0]))
    obs = Observation(z, line, grid)
    l0 = float(
        np.sum(np.abs(z - synthesize_profiles(init, wf, grid, line)[0]) ** 2)
    )
    report = gradient_descent([obs], init, wf, "coherent", cfg=DescentConfig(max_iters=1))
    assert report.iterations == 1
    assert abs(report.theta[0] - 2.0) < 1e-3
    assert report.final_loss < 1e-6 * l0


def test_converges_immediately_at_truth():
    wf, grid, line, truth = one_sphere_scenario()
    z = synthesize_profiles(truth, wf, grid, line)[0]
    report = gradient_descent([Observation(z, line, grid)], truth, wf, "coherent")
    assert report.status == "converged"
    assert report.iterations == 0
    assert np.array_equal(report.theta, truth.pack())
    assert len(report.loss_trace) == 1


def test_truth_is_a_fixed_point_of_both_losses():
    wf, grid, line, truth = one_sphere_scenario()
    z = synthesize_profiles(truth, wf, grid, line)[0]
    obs = [Observation(z, line, grid)]
    w = WeightMatrix.identity()
    for kind in ("coherent", "noncoherent"):
        grad = batch_gradient(obs, truth, wf, w, kind)
        scale = float(np.linalg.norm(z))
        assert np.linalg.norm(grad) <= 1e-9 * scale


def test_zero_iteration_budget():
    wf, grid, line, truth = one_sphere_scenario()
    z = synthesize_profiles(truth, wf, grid, line)[0]
    init = truth.unpack(np.array([1.5, 0.2, 0.9]))
    report = gradient_descent([Observation(z, line, grid)], init, wf, cfg=DescentConfig(max_iters=0))
    assert report.status == "max_iters"
    assert report.iterations == 0
    assert np.array_equal(report.theta, init.pack())


@pytest.fixture(scope="module")
def noisy_reference_fit():
    wf = lfm_from_band(500e6, 3e9, 1e-6, 1000.0)
    grid = RangeGrid(-5.0, C_LIGHT / (4.0 * 500e6), 67)
    line = sightline_from_angles(0.0, np.pi / 6.0)
    obs = synthesize_pattern(reference_truth(), wf, grid, [line], NoiseSpec(0.01, seed=0)).observations[0]
    w = WeightMatrix.from_sigma2(0.01)
    return wf, obs, w


def test_loss_trace_is_monotone(noisy_reference_fit):
    wf, obs, w = noisy_reference_fit
    cfg = DescentConfig(max_iters=40)
    for kind in ("coherent", "noncoherent"):
        report = gradient_descent([obs], reference_guess(), wf, kind, w, cfg)
        losses = np.array([v for _, v in report.loss_trace])
        assert np.all(np.diff(losses) <= 0.0)
        assert report.final_loss == losses[-1]
        assert len(report.grad_norm_trace) == len(losses)
        assert report.residual_power.shape == (1, obs.grid.m)


def test_sequential_fit_merges_phases(noisy_reference_fit):
    wf, obs, w = noisy_reference_fit
    report = sequential_fit(
        [obs],
        reference_guess(),
        wf,
        w,
        rough_cfg=DescentConfig(max_iters=3),
        fine_cfg=DescentConfig(max_iters=5),
    )
    assert report.phase_boundary == 4
    assert len(report.loss_trace) <= 4 + 6
    assert report.iterations <= 8
    losses = np.array([v for _, v in report.loss_trace])
    rough = losses[: report.phase_boundary]
    fine = losses[report.phase_boundary :]
    assert np.all(np.diff(rough) <= 0.0)
    assert np.all(np.diff(fine) <= 0.0)


def test_fit_report_counts_evaluations(noisy_reference_fit, monkeypatch):
    import scatterfit.estimate as estimate

    wf, obs, w = noisy_reference_fit
    cfg = DescentConfig(max_iters=2)
    calls = {"loss": 0, "grad": 0}
    for name, key in (("batch_loss", "loss"), ("batch_gradient", "grad")):
        def counted(*args, _fn=getattr(estimate, name), _key=key, **kwargs):
            calls[_key] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(estimate, name, counted)
    report = sequential_fit([obs], reference_guess(), wf, w, cfg)
    assert report.loss_evals > 0 and report.grad_evals > 0
    assert (report.loss_evals, report.grad_evals) == (calls["loss"], calls["grad"])
    rough = gradient_descent([obs], reference_guess(), wf, "noncoherent", w, cfg)
    fine = gradient_descent([obs], rough.model, wf, "coherent", w, cfg)
    assert report.loss_evals == rough.loss_evals + fine.loss_evals
    assert report.grad_evals == rough.grad_evals + fine.grad_evals
    # one gradient at the start and one per accepted step, per phase
    assert report.grad_evals == report.iterations + 2


def test_sequential_beats_coherent_only(noisy_reference_fit):
    wf, obs, w = noisy_reference_fit
    cfg = DescentConfig(max_iters=150)
    seq = sequential_fit([obs], reference_guess(), wf, w, cfg)
    coh = gradient_descent([obs], reference_guess(), wf, "coherent", w, cfg)
    assert seq.final_loss <= coh.final_loss


def test_fisher_matches_naive_loop(rng):
    jac = rng.normal(size=(9, 4)) + 1j * rng.normal(size=(9, 4))
    sigma2 = 0.3
    want = np.zeros((4, 4))
    for p in range(4):
        for q in range(4):
            want[p, q] = (2.0 / sigma2) * np.sum(np.conj(jac[:, p]) * jac[:, q]).real
    got = fisher_info(jac, sigma2=sigma2)
    assert rel_err(got, want) < 1e-12
    assert np.array_equal(got, got.T)
    assert np.min(np.linalg.eigvalsh(got)) >= -1e-12 * np.max(np.abs(got))


def test_fisher_argument_checks(rng):
    jac = rng.normal(size=(5, 2)) + 0j
    for sigma2 in (0.0, -0.1):
        with pytest.raises(ValueError):
            fisher_info(jac, sigma2=sigma2)


def multi_aspect_setup():
    wf = lfm_from_band(500e6, 600e6, 1e-6, 1000.0)
    grid = RangeGrid(-2.0, C_LIGHT / (4.0 * 500e6), 27)
    lines = [sightline_from_angles(az, el) for az, el in [(0.0, 0.3), (1.3, -0.2), (2.7, 0.45), (4.5, 0.1)]]
    return wf, grid, lines


def full_rank_model():
    """Like the three-scatterer reference target, but with every ring radius
    nonzero so no azimuth slot is a gauge direction."""
    model = reference_truth()
    theta = model.pack()
    theta[7] = 0.35  # second scatterer's ring radius
    return model.unpack(theta)


def test_crlb_additivity_over_aspects():
    wf, grid, lines = multi_aspect_setup()
    model = reference_truth()
    sigma2 = 0.01
    total = crlb(model, wf, grid, lines, sigma2)
    parts = np.zeros_like(total.fisher)
    for line in lines:
        jac = profile_jacobians(model, wf, grid, line)[1][0]
        parts = parts + fisher_info(jac, sigma2=sigma2)
    assert rel_err(total.fisher, parts) < 1e-10


def test_crlb_well_conditioned_inverts():
    wf, grid, lines = multi_aspect_setup()
    res = crlb(full_rank_model(), wf, grid, lines, 0.01)
    assert res.identifiable
    assert np.isfinite(res.condition)
    assert res.null_space is None
    assert np.all(res.std_bounds > 0.0)
    # covariance really is the inverse of the summed Fisher matrix
    assert rel_err(res.covariance @ res.fisher, np.eye(14)) < 1e-6


def test_crlb_duplicated_aspects_halve_the_bound():
    wf, grid, lines = multi_aspect_setup()
    once = crlb(full_rank_model(), wf, grid, lines, 0.01)
    twice = crlb(full_rank_model(), wf, grid, lines + lines, 0.01)
    assert rel_err(twice.covariance, once.covariance / 2.0) < 1e-10


def test_crlb_scales_with_noise_power():
    wf, grid, lines = multi_aspect_setup()
    lo = crlb(full_rank_model(), wf, grid, lines, 0.005)
    hi = crlb(full_rank_model(), wf, grid, lines, 0.01)
    assert rel_err(hi.covariance, 2.0 * lo.covariance) < 1e-10


def test_crlb_single_aspect_reports_null_space():
    wf = lfm_from_band(500e6, 3e9, 1e-6, 1000.0)
    grid = RangeGrid(-5.0, C_LIGHT / (4.0 * 500e6), 67)
    line = sightline_from_angles(0.0, np.pi / 6.0)
    res = crlb(reference_truth(), wf, grid, [line], 0.01)
    assert not res.identifiable
    assert res.covariance is None
    assert res.std_bounds is None
    assert res.null_space.shape == (14, 5)
    # orthonormal basis for directions the data cannot see
    assert rel_err(res.null_space.T @ res.null_space, np.eye(5)) < 1e-10
    sup = np.max(np.abs(res.fisher @ res.null_space))
    assert sup <= 1e-6 * np.max(np.abs(res.fisher))


def test_crlb_validation():
    wf, grid, lines = multi_aspect_setup()
    with pytest.raises(ValueError):
        crlb(reference_truth(), wf, grid, lines, 0.0)
    with pytest.raises(ValueError):
        crlb(reference_truth(), wf, grid, lines, -1.0)
