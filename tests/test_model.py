"""Profile synthesis and the analytic profile Jacobian."""

import numpy as np
import pytest

from scatterfit import (
    C_LIGHT,
    DegenerateGeometryError,
    FixedAmplitude,
    FixedCylindrical,
    PointScatteringModel,
    RangeGrid,
    Scatterer,
    SlippingRing,
    Spherical,
    profile_jacobians,
    sightline_from_angles,
    synthesize_profiles,
)
from conftest import column_rel_err, fd_jacobian, reference_truth, random_line, random_model


def test_range_grid():
    grid = RangeGrid(-2.0, 0.5, 9)
    assert np.array_equal(grid.bins, -2.0 + 0.5 * np.arange(9))
    # computed once per grid, and nobody can write into the shared copy
    assert grid.bins is grid.bins
    assert not grid.bins.flags.writeable
    with pytest.raises(ValueError):
        RangeGrid(0.0, -0.1, 5)
    with pytest.raises(ValueError):
        RangeGrid(0.0, 0.1, 0)
    # the bin count must be an integer: a float is rejected even when integral, and so is a bool
    for m in (2.5, 3.0, np.float64(3.0), True, np.bool_(True), "3"):
        with pytest.raises(ValueError):
            RangeGrid(0.0, 0.1, m)
    for m in (3, np.int64(3), np.int32(3), np.uint8(3)):
        assert RangeGrid(0.0, 0.1, m).bins.shape == (3,)
    for b0, delta in ((np.nan, 1.0), (np.inf, 1.0), (0.0, np.inf), (0.0, np.nan)):
        with pytest.raises(ValueError):
            RangeGrid(b0, delta, 3)


def test_pack_unpack_round_trip(rng):
    model = reference_truth()
    theta = model.pack()
    assert theta.shape == (14,)
    theta2 = theta + rng.normal(scale=0.01, size=14)
    model2 = model.unpack(theta2)
    assert np.array_equal(model2.pack(), theta2)
    # original untouched
    assert np.array_equal(model.pack(), theta)
    with pytest.raises(ValueError):
        model.unpack(np.zeros(13))


def test_unpack_and_the_forward_pass_build_no_scatterer(wf_unit, grid_mid, rng, monkeypatch):
    model = random_model(rng, n=4)
    theta = model.pack() + 0.01
    built = []
    for cls in (Scatterer, FixedAmplitude, FixedCylindrical, SlippingRing, Spherical):
        def counting(self, *args, _init=cls.__init__, **kwargs):
            built.append(type(self))
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting)
    moved = model.unpack(theta)
    profile_jacobians(moved, wf_unit, grid_mid, [random_line(rng) for _ in range(3)])
    assert built == []
    # the scatterers are rebuilt from theta on first use, and only then
    assert np.array_equal(np.concatenate([s.params for s in moved.scatterers]), theta)
    assert built.count(Scatterer) == 4
    assert moved == model.unpack(theta) and hash(moved) == hash(model.unpack(theta))
    assert moved != model


def test_theta_stack_shapes_and_errors(wf_unit, grid_mid, rng):
    model = reference_truth()
    lines = [random_line(rng) for _ in range(3)]
    thetas = model.pack() + rng.normal(scale=0.01, size=(4, model.n_params))
    g, jac = profile_jacobians(model, wf_unit, grid_mid, lines, thetas)
    assert g.shape == (4, 3, grid_mid.m) and jac.shape == (4, 3, grid_mid.m, model.n_params)
    # each slot's (K, m) block is contiguous, so a row's flattened Jacobian is a view
    assert np.shares_memory(jac.reshape(4, -1, model.n_params), jac)
    assert synthesize_profiles(model, wf_unit, grid_mid, lines, thetas[:1]).shape == (1, 3, grid_mid.m)
    for bad in (model.pack(), thetas[:, :-1], thetas[:0], thetas[None]):
        with pytest.raises(ValueError, match="stack of parameters"):
            synthesize_profiles(model, wf_unit, grid_mid, lines, bad)
    # a degenerate aspect names the model's scatterer, not a row of the folded stack
    ring = PointScatteringModel((
        Scatterer(FixedAmplitude(1.0, 0.0), Spherical(0.5)),
        Scatterer(FixedAmplitude(1.0, 0.0), SlippingRing(0.5, 0.0)),
    ))
    axis = np.array([0.0, 0.0, 1.0])
    for evaluate in (synthesize_profiles, profile_jacobians):
        with pytest.raises(DegenerateGeometryError, match="^scatterer 1: aspect 0"):
            evaluate(ring, wf_unit, grid_mid, axis, np.tile(ring.pack(), (5, 1)))


def test_a_list_of_grids_names_the_one_grid_rule(wf_unit, grid_mid, rng):
    model = reference_truth()
    lines = [random_line(rng) for _ in range(2)]
    for evaluate in (synthesize_profiles, profile_jacobians):
        with pytest.raises(TypeError, match="^expected one RangeGrid: all sight lines share one range grid"):
            evaluate(model, wf_unit, [grid_mid, grid_mid], lines)


def test_slot_labels():
    labels = reference_truth().slot_labels()
    assert labels[:5] == ["s0.s_re", "s0.s_im", "s0.r_s", "s0.phi_s", "s0.z_s"]
    assert labels[10:] == ["s2.s_re", "s2.s_im", "s2.r_s", "s2.z_s"]
    assert len(labels) == 14


def test_phase_delay_quarter_cycle(wf_unit):
    # a point C/(8 fc) along the sight line turns the two-way carrier by a quarter
    # cycle; the bin at its range samples the kernel peak
    line = sightline_from_angles(0.0, 0.0)
    x = C_LIGHT / (8.0 * wf_unit.fc)
    model = PointScatteringModel((Scatterer(FixedAmplitude(1.0, 0.0), FixedCylindrical(x, 0.0, 0.0)),))
    g = synthesize_profiles(model, wf_unit, RangeGrid(-x, 1.0, 1), line)[0]
    assert g[0] / wf_unit.peak == pytest.approx(1j, abs=1e-12)


def test_single_scatterer_profile_is_scaled_kernel(wf_unit, grid_mid):
    line = sightline_from_angles(0.7, -0.3)
    amp = complex(1.2, -0.4)
    model = PointScatteringModel((Scatterer(FixedAmplitude(amp.real, amp.imag), Spherical(0.0)),))
    g = synthesize_profiles(model, wf_unit, grid_mid, line)[0]
    want = amp * wf_unit.autocorr(2.0 * grid_mid.bins / C_LIGHT)
    assert np.max(np.abs(g - want)) <= 1e-12 * wf_unit.peak


def test_superposition_is_exact(wf_unit, grid_mid, rng):
    line = random_line(rng)
    model = random_model(rng, n=3)
    whole = synthesize_profiles(model, wf_unit, grid_mid, line)[0]
    parts = sum(
        synthesize_profiles(PointScatteringModel((s,)), wf_unit, grid_mid, line)[0]
        for s in model.scatterers
    )
    assert np.array_equal(whole, parts)


def test_empty_model_synthesizes_zeros(wf_unit, grid_mid):
    model = PointScatteringModel(())
    g = synthesize_profiles(model, wf_unit, grid_mid, sightline_from_angles(0.0, 0.0))[0]
    assert np.array_equal(g, np.zeros(grid_mid.m, dtype=complex))
    assert model.pack().size == 0


def test_profile_peaks_near_projected_ranges(wf_unit, grid_mid):
    line = sightline_from_angles(0.0, np.pi / 6.0)
    model = reference_truth()
    g = np.abs(synthesize_profiles(model, wf_unit, grid_mid, line)[0])
    bins = grid_mid.bins
    for s in model.scatterers:
        r = -(s.position(line).p @ line.vec)
        idx = int(np.argmin(np.abs(bins - r)))
        window = g[max(idx - 1, 0) : idx + 2]
        amp = s.amplitude_model
        assert window.max() >= 0.6 * abs(complex(amp.s_re, amp.s_im)) * wf_unit.peak


def test_amplitude_columns_are_unit_amplitude_profiles(wf_unit, grid_mid, rng):
    # d g / d(s_re, s_im) = gamma * R * [1, j], bit for bit: scatterer n's s_re
    # column is its profile alone at amplitude 1, and its s_im column j times that
    for _ in range(20):
        model = random_model(rng, n=int(rng.integers(1, 5)))
        lines = [random_line(rng) for _ in range(int(rng.integers(1, 4)))]
        jac = profile_jacobians(model, wf_unit, grid_mid, lines)[1]
        for s, sl in zip(model.scatterers, model.slot_slices()):
            unit = PointScatteringModel((Scatterer(FixedAmplitude(1.0, 0.0), s.position_model),))
            g = synthesize_profiles(unit, wf_unit, grid_mid, lines)
            assert np.array_equal(jac[..., sl.start], g)
            assert np.array_equal(jac[..., sl.start + 1], 1j * g)


def test_wrong_part_is_refused_when_the_model_is_built():
    # swapped parts would otherwise read the wrong slots, or fail only at the first evaluation
    first = reference_truth().scatterers[0]
    wrong = Scatterer(Spherical(0.5), FixedCylindrical(0.1, 0.2, 0.3))
    with pytest.raises(TypeError, match="scatterer 1: amplitude must be a FixedAmplitude, got Spherical"):
        PointScatteringModel((first, wrong))
    wrong = Scatterer(FixedAmplitude(1.0), FixedAmplitude(0.5, 0.1))
    with pytest.raises(TypeError, match="scatterer 1: position must be a PositionModel, got FixedAmplitude"):
        PointScatteringModel((first, wrong))


def test_multi_aspect_stack_matches_single(wf_unit, grid_mid, rng):
    model = random_model(rng, n=2)
    lines = [random_line(rng) for _ in range(4)]
    stacked = synthesize_profiles(model, wf_unit, grid_mid, [l.vec for l in lines])
    assert stacked.shape == (4, grid_mid.m)
    # a list of SightLine objects is the same stack as their vectors
    assert np.array_equal(synthesize_profiles(model, wf_unit, grid_mid, lines), stacked)
    for k, line in enumerate(lines):
        single = synthesize_profiles(model, wf_unit, grid_mid, line)[0]
        assert np.array_equal(stacked[k], single)
    gstack, jstack = profile_jacobians(model, wf_unit, grid_mid, [l.vec for l in lines])
    assert np.array_equal(gstack, stacked)
    for k, line in enumerate(lines):
        assert np.array_equal(jstack[k], profile_jacobians(model, wf_unit, grid_mid, line)[1][0])


def test_jacobian_block_sparsity(wf_unit, grid_mid, rng):
    model = random_model(rng, n=3)
    line = random_line(rng)
    jac = profile_jacobians(model, wf_unit, grid_mid, line)[1][0]
    # each scatterer's block matches its solo Jacobian: no cross-terms at all
    single = [
        profile_jacobians(PointScatteringModel((s,)), wf_unit, grid_mid, line)[1][0]
        for s in model.scatterers
    ]
    for block, sl in zip(single, model.slot_slices()):
        assert np.array_equal(jac[:, sl], block)


def test_jacobian_against_finite_differences(wf_unit, rng):
    worst = 0.0
    for trial in range(50):
        model = random_model(rng)
        line = random_line(rng)
        grid = RangeGrid(-4.0, float(rng.uniform(0.12, 0.2)), int(rng.integers(35, 60)))
        theta = model.pack()

        def g_at(th):
            return synthesize_profiles(model.unpack(th), wf_unit, grid, line)[0]

        got = profile_jacobians(model, wf_unit, grid, line)[1][0]
        fd = fd_jacobian(g_at, theta)
        worst = max(worst, column_rel_err(got, fd))
    assert worst < 1e-5, f"worst column error {worst:.3e}"


def test_translation_along_sightline(wf_unit, grid_mid):
    line = sightline_from_angles(0.4, 0.25)
    base = Scatterer(FixedAmplitude(1.0, 0.3), FixedCylindrical(0.8, 1.1, -0.5))
    delta = 0.35
    shifted_p = base.position(line).p - delta * line.vec
    r, phi = np.hypot(shifted_p[0], shifted_p[1]), np.arctan2(shifted_p[1], shifted_p[0])
    moved = Scatterer(base.amplitude_model, FixedCylindrical(r, phi, shifted_p[2]))

    g1 = synthesize_profiles(PointScatteringModel((base,)), wf_unit, grid_mid, line)[0]
    # same envelope argument on a grid shifted by delta; only the carrier turns
    grid2 = RangeGrid(grid_mid.b0 + delta, grid_mid.delta, grid_mid.m)
    g2 = synthesize_profiles(PointScatteringModel((moved,)), wf_unit, grid2, line)[0]
    factor = np.exp(-1j * 4.0 * np.pi * wf_unit.fc * delta / C_LIGHT)
    assert np.max(np.abs(g2 - factor * g1)) <= 1e-9 * wf_unit.peak
    live = np.abs(g1) > 1e-3 * wf_unit.peak
    dphase = np.angle(g2[live] * np.conj(factor * g1[live]))
    assert np.max(np.abs(dphase)) <= 1e-6

    # on the original grid the envelope peak moves by delta, within one bin
    g2_same = synthesize_profiles(PointScatteringModel((moved,)), wf_unit, grid_mid, line)[0]
    i1 = int(np.argmax(np.abs(g1)))
    i2 = int(np.argmax(np.abs(g2_same)))
    assert abs((i2 - i1) - delta / grid_mid.delta) <= 1.0

