"""Descent fitting, exact line search, Fisher information, and the CRLB."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from scatterfit import (
    C_LIGHT,
    CrlbResult,
    DegenerateGeometryError,
    DescentConfig,
    FixedAmplitude,
    LfmWaveform,
    PointScatteringModel,
    RangeGrid,
    Scatterer,
    SightLine,
    Spherical,
    WeightMatrix,
    batch_gradient,
    batch_loss,
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
from scatterfit import NoiseSpec, Observation, cli, synthesize_pattern
from scatterfit.estimate import _brent
from conftest import reference_guess, reference_truth, random_line, rel_err


def test_line_search_quadratic():
    step, loss, stalled = line_search(lambda s: (s - 3.0) ** 2, 9.0, initial_step=1.0)
    assert not stalled
    assert step == pytest.approx(3.0, rel=1e-3)
    assert loss == (step - 3.0) ** 2
    # a tolerance finer than floats can resolve stops at the float floor
    step, _ = _brent(lambda s: (s - 3.0) ** 2, 0.0, 2.0, 4.0, 1.0, 1e-17)
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


def test_line_search_never_repeats_a_step():
    # each initial step overshoots, so the bracket first shrinks; the step it
    # rejected last closes the bracket and is not evaluated again
    def loss(s):
        return (s - 3.0) ** 2

    for initial in (100.0, 7.0, 6.5):
        assert loss(initial) >= loss(0.0)
        steps = []

        def f(s):
            steps.append(s)
            return loss(s)

        step, _, stalled = line_search(f, loss(0.0), initial_step=initial)
        assert not stalled
        assert step == pytest.approx(3.0, rel=1e-4)
        assert len(steps) == len(set(steps)), steps


def test_line_search_stalls_on_increase():
    step, loss, stalled = line_search(lambda s: s * s + 1.0 if s > 0.0 else 1.0, 1.0, initial_step=1.0)
    assert stalled
    assert step == 0.0
    assert loss == 1.0


def test_line_search_returns_its_lowest_probe_when_growth_runs_out():
    # the loss falls all along the ray: the 40 doublings run out before the
    # loss turns up, and the search returns the lowest step it probed
    probes = {}

    def f(s):
        probes[s] = 1.0 / (1.0 + s)
        return probes[s]

    step, loss, stalled = line_search(f, 1.0, 1.0)
    assert not stalled
    assert loss == min(probes.values()) == probes[step]
    assert step == 2.0**41


def test_line_search_handles_bad_initial_step():
    step, _, stalled = line_search(lambda s: (s - 2.0) ** 2, 4.0, initial_step=float("nan"))
    assert not stalled
    assert step == pytest.approx(2.0, rel=1e-3)


def test_descent_config_validation():
    with pytest.raises(ValueError):
        DescentConfig(max_iters=-1)
    with pytest.raises(ValueError):
        DescentConfig(loss_rel_tol=-1e-9)


@pytest.mark.parametrize(
    "config, field",
    [
        (DescentConfig, "max_iters"),
        (DescentConfig, "loss_rel_tol"),
        (DescentConfig, "grad_norm_tol"),
    ],
)
@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_configs_reject_non_finite_fields(config, field, bad):
    # nan passes a plain `<= 0` check, and a descent with a nan tolerance never stops on it
    with pytest.raises(ValueError, match=r"nan|inf"):
        config(**{field: bad})


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


def test_sequential_fit_keeps_each_phase_status():
    # a noncoherent phase without budget ends at max_iters; the coherent phase
    # then starts at the truth of noise-free data and converges; both are kept
    wf, grid, line, truth = one_sphere_scenario()
    obs = [Observation(synthesize_profiles(truth, wf, grid, line)[0], line, grid)]
    report = sequential_fit(obs, truth, wf, rough_cfg=DescentConfig(max_iters=0), fine_cfg=DescentConfig())
    assert report.phase_statuses == ("max_iters", "converged")
    assert report.status == "converged"
    single = gradient_descent(obs, truth, wf, "noncoherent", cfg=DescentConfig(max_iters=0))
    assert single.phase_statuses == (single.status,) == ("max_iters",)


def test_fit_report_counts_evaluations(noisy_reference_fit, monkeypatch):
    # loss_calls counts batch_loss calls; loss_evals counts the loss values
    # they return, one per row of a stacked call. Four coherent iterations
    # include two warm searches, whose stencils are stacked calls
    import scatterfit.estimate as estimate

    wf, obs, w = noisy_reference_fit
    cfg = DescentConfig(max_iters=4)
    calls = {"loss": 0, "rows": 0, "grad": 0}
    for name, key in (("batch_loss", "loss"), ("batch_gradient", "grad")):
        def counted(*args, _fn=getattr(estimate, name), _key=key, **kwargs):
            calls[_key] += 1
            if _key == "loss":
                thetas = kwargs.get("thetas")
                calls["rows"] += 1 if thetas is None else len(thetas)
            return _fn(*args, **kwargs)

        monkeypatch.setattr(estimate, name, counted)
    report = sequential_fit([obs], reference_guess(), wf, w, cfg)
    assert report.loss_evals > report.loss_calls > 0 and report.grad_evals > 0
    assert (report.loss_calls, report.loss_evals, report.grad_evals) == (calls["loss"], calls["rows"], calls["grad"])
    rough = gradient_descent([obs], reference_guess(), wf, "noncoherent", w, cfg)
    fine = gradient_descent([obs], rough.model, wf, "coherent", w, cfg)
    assert report.loss_evals == rough.loss_evals + fine.loss_evals
    assert report.phase_loss_evals == (rough.loss_evals, fine.loss_evals)
    assert report.loss_calls == rough.loss_calls + fine.loss_calls
    assert report.phase_loss_calls == (rough.loss_calls, fine.loss_calls)
    # both phases make stacked calls: the far-seeded searches' bracket ladders
    # and the warm searches' stencils
    assert rough.loss_calls < rough.loss_evals and fine.loss_calls < fine.loss_evals
    assert report.grad_evals == rough.grad_evals + fine.grad_evals
    # one gradient at the start and one per accepted step, per phase
    assert report.grad_evals == report.iterations + 2


def test_fits_evaluate_through_the_traced_call_chain(noisy_reference_fit, monkeypatch):
    # gradient_descent -> batch_loss / batch_gradient -> synthesize_profiles /
    # profile_jacobians -> LfmWaveform.autocorr, through the module attributes
    # a tracer patches: every fit evaluation is a call it can count and link
    import scatterfit.estimate as estimate
    import scatterfit.loss as loss
    import scatterfit.model as model

    wf, obs, w = noisy_reference_fit
    calls = {"batch_loss": 0, "batch_gradient": 0}
    for name in calls:
        def counted(*args, _fn=getattr(estimate, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(estimate, name, counted)
    passes = []  # the forward functions open on the stack
    for module in (estimate, loss, model):
        for name in ("synthesize_profiles", "profile_jacobians"):
            def opened(*args, _fn=getattr(module, name), _name=name, **kwargs):
                passes.append(_name)
                try:
                    return _fn(*args, **kwargs)
                finally:
                    passes.pop()

            monkeypatch.setattr(module, name, opened)
    callers = []
    kernel = LfmWaveform.autocorr

    def autocorr(self, *args, **kwargs):
        callers.append(passes[-1] if passes else None)
        return kernel(self, *args, **kwargs)

    monkeypatch.setattr(LfmWaveform, "autocorr", autocorr)
    report = sequential_fit([obs], reference_guess(), wf, w, DescentConfig(max_iters=3))
    assert (calls["batch_loss"], calls["batch_gradient"]) == (report.loss_calls, report.grad_evals)
    assert report.loss_calls > report.grad_evals > 0
    assert len(callers) == report.loss_calls + report.grad_evals
    # the residual is formed once, when first read; the noncoherent phase's never is
    assert report.residual is report.residual
    assert set(callers) == {"synthesize_profiles", "profile_jacobians"}
    # one kernel call per loss or gradient call, a stacked one included, plus
    # the residual of the returned report
    assert len(callers) == report.loss_calls + report.grad_evals + 1


def test_a_fit_plan_serves_its_own_sight_lines_only(wf_unit, grid_mid):
    # the ring direction kept for one fit's sight lines is never reused by a
    # fit on other sight lines of the same count: that fit matches, bit for
    # bit, the same fit run with nothing kept
    import scatterfit.scatterer as scatterer

    truth, guess, cfg = reference_truth(), reference_guess(), DescentConfig(max_iters=3)
    line_sets = [[sightline_from_angles(az, el) for az, el in pair] for pair in
                 (((0.0, 0.5), (1.6, 0.2)), ((3.1, -0.3), (4.7, 0.1)))]
    patterns = [synthesize_pattern(truth, wf_unit, grid_mid, lines, NoiseSpec(0.01, seed=1)) for lines in line_sets]
    cache = scatterer._ring_direction_of
    cache.cache_clear()
    first, second = (sequential_fit(p, guess, wf_unit, cfg=cfg) for p in patterns)
    # each fit's sight lines got their own direction, computed once and kept
    assert cache.cache_info().misses == cache.cache_info().currsize == 2
    cache.cache_clear()
    alone = sequential_fit(patterns[1], guess, wf_unit, cfg=cfg)
    assert alone.theta.tobytes() == second.theta.tobytes()
    assert alone.loss_trace == second.loss_trace
    assert first.theta.tobytes() != second.theta.tobytes()


def test_a_ring_seen_along_its_axis_fails_every_fit_path(grid_mid, noisy_reference_fit):
    # scatterer 2 of the reference guess is a slipping ring; aspect 1 looks
    # down the ring axis. Neither a plan built for the fit nor the terms kept
    # for an earlier fit's sight lines hide the error
    import scatterfit.loss as loss

    wf, obs, w = noisy_reference_fit
    sequential_fit([obs], reference_guess(), wf, w, DescentConfig(max_iters=1))
    lines = [sightline_from_angles(0.3, 0.2), SightLine(np.array([0.0, 0.0, 1.0]))]
    bad = [Observation(np.zeros(grid_mid.m, dtype=complex), line, grid_mid) for line in lines]
    plan = loss._as_batch(bad)
    message = "^scatterer 2: aspect 1: slipping ring azimuth is undefined"
    for data in (bad, plan, plan):
        for evaluate in (batch_loss, batch_gradient):
            with pytest.raises(DegenerateGeometryError, match=message):
                evaluate(data, reference_guess(), wf, w, "coherent")
    for data in (bad, plan):
        with pytest.raises(DegenerateGeometryError, match=message):
            gradient_descent(data, reference_guess(), wf, "noncoherent", w)
        with pytest.raises(DegenerateGeometryError, match=message):
            sequential_fit(data, reference_guess(), wf, w)


def test_line_search_seed_rule(noisy_reference_fit, monkeypatch):
    # the noncoherent phase and the first two coherent searches are seeded at
    # 0.1 * loss / |grad|^2; each later coherent search at the step accepted
    # two searches earlier, and is warm: it is given the slope -|grad|^2
    import scatterfit.estimate as estimate

    wf, obs, w = noisy_reference_fit
    calls = []

    def recorded(f, f0, initial_step, slope=None):
        result = line_search(f, f0, initial_step, slope)
        calls.append((f0, initial_step, slope, result[0]))
        return result

    monkeypatch.setattr(estimate, "line_search", recorded)
    rough_iters, fine_iters = 5, 6
    report = sequential_fit(
        [obs],
        reference_guess(),
        wf,
        w,
        rough_cfg=DescentConfig(max_iters=rough_iters),
        fine_cfg=DescentConfig(max_iters=fine_iters),
    )
    assert report.phase_statuses == ("max_iters", "max_iters")
    assert len(calls) == rough_iters + fine_iters
    losses = [v for _, v in report.loss_trace]
    gnorms = report.grad_norm_trace
    # trace index of each search's start point: a phase's trace has one more
    # entry than the phase has searches
    starts = list(range(rough_iters)) + [report.phase_boundary + j for j in range(fine_iters)]
    for i, ((f0, seed, slope, _), at) in enumerate(zip(calls, starts)):
        assert f0 == losses[at]
        j = i - rough_iters  # index of a coherent search
        if j < 2:
            assert seed == 0.1 * losses[at] / gnorms[at] ** 2, i
            assert slope is None, i
        else:
            assert seed == calls[i - 2][3], i
            assert slope == -gnorms[at] ** 2, i


def test_noncoherent_descent_keeps_the_paper_seed(noisy_reference_fit, monkeypatch):
    # every noncoherent search is seeded at 0.1 * loss / |grad|^2, exactly. The
    # pinned theta and losses allow for rounding: a 4e-16 change in the gradient
    # moves theta by up to 1e-8 relative, since Brent may stop anywhere inside
    # its 1e-4 tolerance. Warm-starting this phase as the coherent one moves theta by
    # 6e-4 to 0.23, the last two losses by about 100%, and makes 42 evaluations
    import scatterfit.estimate as estimate

    wf, obs, w = noisy_reference_fit
    seeds = []

    def recorded(f, f0, initial_step):
        seeds.append((f0, initial_step))
        return line_search(f, f0, initial_step)

    monkeypatch.setattr(estimate, "line_search", recorded)
    report = gradient_descent([obs], reference_guess(), wf, "noncoherent", w, DescentConfig(max_iters=4))
    losses = [v for _, v in report.loss_trace]
    assert len(seeds) == report.iterations == 4
    for (f0, seed), loss, gnorm in zip(seeds, losses, report.grad_norm_trace):
        assert f0 == loss
        assert seed == 0.1 * loss / gnorm**2
    theta = [
        0.921622557358, 0.00615443414223, 0.492041502981, 0.0, 2.03767013268, 1.92676201375, -0.00222957962947,
        0.0766759739037, 0.402125894195, -2.05188148815, 0.471686093046, -0.00386118409485, -0.133389045245,
        -0.0347472280983,
    ]
    np.testing.assert_allclose(report.theta, theta, rtol=1e-6, atol=1e-12)
    losses_at = [192.770183836, 116.24939202, 115.959296352, 56.7111336988, 55.3476616144]
    np.testing.assert_allclose(losses, losses_at, rtol=1e-7)
    # the start and the 48 steps the searches ask for, plus 25 ladder rungs
    # they never ask for: 74 loss values in 42 calls
    assert (report.loss_calls, report.loss_evals) == (42, 74)
    assert report.phase_loss_evals == (74,)


def test_far_seeded_searches_probe_as_plain_line_search(noisy_reference_fit, monkeypatch):
    # the noncoherent searches and the first two coherent ones are not warm:
    # each probes exactly the steps, and returns exactly the result, of plain
    # line_search run again on the same ray. The later coherent searches are
    # warm, and their first probe is still the seed
    import scatterfit.estimate as estimate

    wf, obs, w = noisy_reference_fit
    searches = []

    def recorded(f, f0, initial_step, slope=None):
        probes, plain = [], []

        def along(s, into):
            into.extend(np.atleast_1d(s).tolist())
            return f(s)

        result = line_search(lambda s: along(s, probes), f0, initial_step, slope)
        again = line_search(lambda s: along(s, plain), f0, initial_step)
        searches.append((slope, initial_step, probes, plain, result, again))
        return result

    monkeypatch.setattr(estimate, "line_search", recorded)
    rough_iters, fine_iters = 5, 6
    sequential_fit(
        [obs],
        reference_guess(),
        wf,
        w,
        rough_cfg=DescentConfig(max_iters=rough_iters),
        fine_cfg=DescentConfig(max_iters=fine_iters),
    )
    assert len(searches) == rough_iters + fine_iters
    far, warm = searches[: rough_iters + 2], searches[rough_iters + 2 :]
    for slope, _, probes, plain, result, again in far:
        assert slope is None
        assert probes == plain and result == again
    for slope, seed, probes, plain, _, _ in warm:
        assert slope < 0.0
        assert probes[0] == plain[0] == seed


def monte_carlo_shape(seed: int = 0):
    """Scenario 7's shape (one sphere, m = 11, one aspect, sigma2 = 1e-4) and
    the benchmark's far start: waveform, observations, start model, weights."""
    wf = lfm_from_band(200e6, 150e6, 1e-6, 1000.0)
    grid = RangeGrid(-1.0, C_LIGHT / (4.0 * 200e6), 11)
    line = sightline_from_angles(0.3, 0.2)
    truth = PointScatteringModel((Scatterer(FixedAmplitude(1.0, 0.0), Spherical(1.0)),))
    sigma2 = 1e-4
    obs = synthesize_pattern(truth, wf, grid, [line], NoiseSpec(sigma2, seed=seed)).observations
    init = truth.unpack(np.array([1.2, -0.2, 1.1]))
    return wf, obs, init, WeightMatrix.from_sigma2(sigma2)


MONTE_CARLO_DESCENT = DescentConfig(max_iters=3000, loss_rel_tol=1e-12, grad_norm_tol=1e-8)


def test_coherent_warm_start_cuts_evaluations():
    # scenario 7's shape from the benchmark's far start, descended to its
    # tolerances. Loss evaluations per iteration read about 23.5 on the
    # benchmark's draws (22.0 on this one) with every search seeded at
    # 0.1 * loss / |grad|^2, and about 9.9 (9.6 here) with the coherent warm
    # start; the bound sits halfway between 23.5 and 9.9
    wf, obs, init, w = monte_carlo_shape()
    report = gradient_descent(obs, init, wf, "coherent", w, MONTE_CARLO_DESCENT)
    assert report.status == "converged"
    assert report.loss_evals / report.iterations < (23.5 + 9.9) / 2.0


def test_warm_searches_stack_their_stencils():
    # the same fit, counted: 189 iterations, 618 batch_loss calls (3.27 an
    # iteration) returning 1402 loss values (7.42 an iteration). Every search
    # but the first two is warm; each warm stencil is one stacked call of
    # three rows, and the first two searches take their bracket ladders as
    # stacked calls of nine rows. Every search seeded at the step before last,
    # as before stencils, took 195 iterations and 1991 single calls (10.2 an
    # iteration)
    wf, obs, init, w = monte_carlo_shape()
    report = gradient_descent(obs, init, wf, "coherent", w, MONTE_CARLO_DESCENT)
    assert report.phase_stop_reasons == ("grad_norm",)
    assert (report.iterations, report.loss_calls, report.loss_evals) == (189, 618, 1402)
    assert report.phase_loss_calls == (618,) and report.phase_loss_evals == (1402,)


def test_bracket_ladders_change_no_result(noisy_reference_fit, monkeypatch):
    # a far-seeded search answered from its stacked bracket ladder asks for the
    # same steps and gets the same bits as one that evaluates them alone: each
    # fit is the same, in fewer batch_loss calls and more loss values
    import scatterfit.estimate as estimate

    wf, obs, w = noisy_reference_fit
    mc_wf, mc_obs, mc_init, mc_w = monte_carlo_shape()
    fits = (
        lambda: sequential_fit([obs], reference_guess(), wf, w),
        lambda: gradient_descent(mc_obs, mc_init, mc_wf, "coherent", mc_w, MONTE_CARLO_DESCENT),
    )
    for fit in fits:
        laddered = fit()
        with monkeypatch.context() as patch:
            patch.setattr(estimate, "_laddered", lambda f: f)
            plain = fit()
        assert laddered.theta.tobytes() == plain.theta.tobytes()
        assert laddered.loss_trace == plain.loss_trace
        assert laddered.grad_norm_trace == plain.grad_norm_trace
        assert laddered.phase_statuses == plain.phase_statuses
        assert laddered.phase_stop_reasons == plain.phase_stop_reasons
        assert laddered.iterations == plain.iterations
        assert laddered.loss_calls < plain.loss_calls
        assert laddered.loss_evals > plain.loss_evals


def test_a_fit_above_the_ladder_gate_stacks_its_stencils_only():
    # the shipped static pattern, 3 scatterers x 64 aspects x 41 bins = 7872
    # lags a row, is above the ladder's gate: its far-seeded searches evaluate
    # step by step, one value a call, while each warm stencil of the coherent
    # phase is one stacked call of three rows: 49 coherent values in 33 calls
    import scatterfit.estimate as estimate

    raw = json.loads((Path(__file__).resolve().parents[1] / "configs" / "paper_static_pattern.json").read_text())
    cfg = cli.resolve_config(raw, need_fit=True)
    wf, grid, lines = cli.build_waveform(cfg), cli.build_grid(cfg), cli.build_sightlines(cfg)
    noise = NoiseSpec(cfg["noise"]["sigma2"], cfg["noise"]["seed"])
    pattern = synthesize_pattern(cli.build_model(cfg["scatterers"]), wf, grid, lines, noise)
    model0 = cli.build_model(cfg["fit"]["initial_model"])
    assert len(model0.scatterers) * len(lines) * grid.m > estimate._LADDER_LAGS
    report = sequential_fit(pattern, model0, wf, cli.build_weight(cfg),
                            rough_cfg=DescentConfig(max_iters=3), fine_cfg=DescentConfig(max_iters=6))
    assert report.iterations == 9
    assert report.phase_loss_calls == (34, 33)
    assert report.phase_loss_evals == (34, 49)


@pytest.mark.parametrize("bad", [1e200, math.nan])
def test_a_non_finite_start_is_an_error(noisy_reference_fit, bad):
    # a start whose loss overflows (or is nan) cannot be descended from; it is
    # an error naming the loss, not a fit that stalls at once
    wf, obs, w = noisy_reference_fit
    theta = reference_guess().pack()
    theta[0] = bad
    start = reference_guess().unpack(theta)
    with np.errstate(all="ignore"):
        for kind in ("noncoherent", "coherent"):
            with pytest.raises(ValueError, match=f"^the {kind} loss is not finite at the start point"):
                gradient_descent([obs], start, wf, kind, w)
        with pytest.raises(ValueError, match="^the noncoherent loss is not finite"):
            sequential_fit([obs], start, wf, w)


def test_each_phase_names_the_rule_that_ended_it(monkeypatch):
    import scatterfit.estimate as estimate

    # the monte-carlo shape ends on the relative gradient norm at the
    # benchmark's tolerances and on the 3-step loss window at the defaults
    wf, obs, init, w = monte_carlo_shape()
    for cfg, reason in ((MONTE_CARLO_DESCENT, "grad_norm"), (DescentConfig(max_iters=3000), "loss_window")):
        report = gradient_descent(obs, init, wf, "coherent", w, cfg)
        assert report.phase_stop_reasons == (reason,)
        assert report.status == "converged" and 0 < report.iterations < cfg.max_iters
    # a budget that runs out
    short = gradient_descent(obs, init, wf, "coherent", w, DescentConfig(max_iters=3))
    assert (short.status, short.phase_stop_reasons) == ("max_iters", ("max_iters",))
    # an ascent direction: the first search finds no decrease along it
    with monkeypatch.context() as patch:
        patch.setattr(estimate, "batch_gradient", lambda *args: -batch_gradient(*args))
        stuck = gradient_descent(obs, init, wf, "coherent", w)
    assert (stuck.status, stuck.phase_stop_reasons, stuck.iterations) == ("stalled", ("stalled",), 0)
    # a fit that starts at the truth of noise-free data has a zero gradient:
    # each phase stops on the gradient norm before its first step
    wf, grid, line, truth = one_sphere_scenario()
    clean = [Observation(synthesize_profiles(truth, wf, grid, line)[0], line, grid)]
    report = sequential_fit(clean, truth, wf)
    assert report.phase_stop_reasons == ("grad_norm", "grad_norm")
    assert report.phase_statuses == ("converged", "converged") and report.iterations == 0


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
    for sigma2 in (0.0, -0.1, math.nan, math.inf):
        with pytest.raises(ValueError, match="noise power must be finite and > 0"):
            fisher_info(jac, sigma2=sigma2)
    wf, grid, lines = multi_aspect_setup()
    with pytest.raises(ValueError, match="noise power must be finite and > 0"):
        crlb(reference_truth(), wf, grid, lines, math.nan)


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
