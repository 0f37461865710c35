"""Noise synthesis: seeding, statistics, and aspect sweeps."""

import numpy as np
import pytest

from scatterfit import (
    DegenerateGeometryError,
    DescentConfig,
    FixedAmplitude,
    NoiseSpec,
    Observation,
    PointScatteringModel,
    Position3,
    RangeGrid,
    Scatterer,
    SightLine,
    SlippingRing,
    Spherical,
    WeightMatrix,
    batch_loss,
    crlb,
    lfm_from_band,
    sequential_fit,
    sightline_from_angles,
    sweep_sightlines,
    synthesize_pattern,
    synthesize_profiles,
)
from conftest import reference_truth


def test_noise_spec_validation():
    with pytest.raises(ValueError):
        NoiseSpec(-0.1)
    with pytest.raises(ValueError):
        NoiseSpec(float("nan"))
    for seed in (True, -1, 1.5, "3", None):
        with pytest.raises(ValueError, match="noise seed must be an integer >= 0"):
            NoiseSpec(0.1, seed)
    assert NoiseSpec(0.0).seed == 0
    assert NoiseSpec(0.0, np.int64(7)).seed == 7


def test_zero_noise_is_exact(wf_unit, grid_mid):
    pattern = synthesize_pattern(
        reference_truth(), wf_unit, grid_mid, sweep_sightlines(4, 0.3), NoiseSpec(0.0, seed=5)
    )
    for o, clean in zip(pattern.observations, pattern.clean, strict=True):
        want = synthesize_profiles(reference_truth(), wf_unit, grid_mid, o.line)[0]
        assert np.array_equal(o.z, want)
        assert np.array_equal(clean, want)
    assert not pattern.clean.flags.writeable


def test_same_seed_is_bitwise_identical(wf_unit, grid_mid):
    lines = sweep_sightlines(5, 0.2)
    spec = NoiseSpec(0.01, seed=42)
    p1 = synthesize_pattern(reference_truth(), wf_unit, grid_mid, lines, spec)
    p2 = synthesize_pattern(reference_truth(), wf_unit, grid_mid, lines, spec)
    for a, b in zip(p1.observations, p2.observations):
        assert np.array_equal(a.z, b.z)
    p3 = synthesize_pattern(reference_truth(), wf_unit, grid_mid, lines, NoiseSpec(0.01, seed=43))
    assert not np.array_equal(p1.observations[0].z, p3.observations[0].z)


def test_pattern_prefix_matches_full_pattern(wf_unit, grid_mid):
    # aspect i always draws substream i, so the first k aspects of a pattern
    # come out the same whether or not the rest are synthesized
    lines = sweep_sightlines(4, 0.25)
    spec = NoiseSpec(0.04, seed=9)
    full = synthesize_pattern(reference_truth(), wf_unit, grid_mid, lines, spec)
    for k in range(1, len(lines)):
        prefix = synthesize_pattern(reference_truth(), wf_unit, grid_mid, lines[:k], spec)
        for got, want in zip(prefix.observations, full.observations[:k], strict=True):
            assert np.array_equal(got.z, want.z)


def flat_noise(sigma2, seed, m, index=0):
    """Noise of aspect index of a pattern of an empty model: pure noise."""
    wf = lfm_from_band(500e6, 3e9, 1e-6, 1000.0)
    lines = [sightline_from_angles(0.0, 0.0)] * (index + 1)
    grid = RangeGrid(0.0, 0.1, m)
    pattern = synthesize_pattern(PointScatteringModel(()), wf, grid, lines, NoiseSpec(sigma2, seed))
    return pattern.observations[index].z


def test_noise_power_and_circularity():
    sigma2 = 0.8
    w = flat_noise(sigma2, seed=1, m=100_000)
    assert abs(np.mean(np.abs(w) ** 2) - sigma2) < 0.02 * sigma2
    # each quadrature carries half the power
    assert abs(np.var(w.real) - sigma2 / 2.0) < 0.02 * sigma2
    assert abs(np.var(w.imag) - sigma2 / 2.0) < 0.02 * sigma2
    # circular symmetry: the unconjugated second moment vanishes
    assert abs(np.mean(w * w)) < 0.02 * sigma2


def test_noise_streams_are_uncorrelated():
    sigma2 = 1.0
    w0 = flat_noise(sigma2, seed=3, m=10_000, index=0)
    w1 = flat_noise(sigma2, seed=3, m=10_000, index=1)
    cross = np.mean(w0 * np.conj(w1))
    assert abs(cross) / sigma2 < 0.05
    assert abs(np.corrcoef(w0.real, w1.real)[0, 1]) < 0.05
    assert abs(np.corrcoef(w0.imag, w1.imag)[0, 1]) < 0.05


def test_sweep_sightlines_spacing():
    lines = sweep_sightlines(8, elevation=0.3)
    assert len(lines) == 8
    for k, line in enumerate(lines):
        az = 2.0 * np.pi * k / 8.0
        want = sightline_from_angles(az, 0.3)
        assert np.allclose(line.vec, want.vec, atol=1e-12)
    # the stop angle itself is never emitted
    azimuths = [np.arctan2(l.vec[1], l.vec[0]) % (2.0 * np.pi) for l in lines]
    assert max(azimuths) < 2.0 * np.pi - 1e-6

    partial = sweep_sightlines(4, 0.0, az_start=1.0, az_stop=2.0)
    assert np.arctan2(partial[0].vec[1], partial[0].vec[0]) == pytest.approx(1.0)
    assert np.arctan2(partial[-1].vec[1], partial[-1].vec[0]) == pytest.approx(1.75)
    with pytest.raises(ValueError):
        sweep_sightlines(0)
    # a count that is not an integer would space the lines unevenly (2.5 gives
    # three lines 144 degrees apart) or silently mean 1 (True)
    for count in (2.5, True, "4"):
        with pytest.raises(ValueError, match=f"aspect count must be an integer >= 1, got {count!r}"):
            sweep_sightlines(count)
    assert len(sweep_sightlines(np.int64(4))) == 4


def test_spherical_target_is_aspect_independent(wf_unit, grid_mid):
    model = PointScatteringModel((Scatterer(FixedAmplitude(1.0, 0.5), Spherical(1.3)),))
    pattern = synthesize_pattern(model, wf_unit, grid_mid, sweep_sightlines(6, 0.4), NoiseSpec(0.0))
    first = pattern.observations[0].z
    for o in pattern.observations[1:]:
        assert np.max(np.abs(o.z - first)) <= 1e-12 * wf_unit.peak


def test_pattern_names_degenerate_aspect(wf_unit, grid_mid):
    model = PointScatteringModel((Scatterer(FixedAmplitude(1.0, 0.0), SlippingRing(0.5, 0.0)),))
    lines = [sightline_from_angles(0.0, 0.0), SightLine(np.array([0.0, 0.0, 1.0]))]
    with pytest.raises(DegenerateGeometryError, match="aspect 1"):
        synthesize_pattern(model, wf_unit, grid_mid, lines, NoiseSpec(0.0))
    # the batch loss and the bound name the same aspect
    with pytest.raises(DegenerateGeometryError, match="aspect 1"):
        crlb(model, wf_unit, grid_mid, lines, 0.01)
    obs = [Observation(np.zeros(grid_mid.m, dtype=complex), line, grid_mid) for line in lines]
    with pytest.raises(DegenerateGeometryError, match="aspect 1"):
        batch_loss(obs, model, wf_unit, WeightMatrix.identity(), "coherent")


def test_pattern_sightlines_property(wf_unit, grid_mid):
    lines = sweep_sightlines(3, 0.1)
    pattern = synthesize_pattern(reference_truth(), wf_unit, grid_mid, lines, NoiseSpec(0.0))
    for o, want in zip(pattern.observations, lines, strict=True):
        assert np.array_equal(o.line.vec, want.vec)


def test_records_holding_arrays_compare_by_identity(wf_unit, grid_mid):
    # equal field values would compare arrays elementwise, so these records
    # compare and hash as objects: a membership test or a set never raises
    from scatterfit.loss import _as_batch

    line = sightline_from_angles(0.3, 0.2)
    assert line in [line] and line not in [SightLine(line.vec)]
    pattern = synthesize_pattern(reference_truth(), wf_unit, grid_mid, [line], NoiseSpec(0.01, seed=1))
    obs = pattern.observations[0]
    other_obs = Observation(obs.z, line, grid_mid)
    assert obs == obs and not obs == other_obs
    report = sequential_fit(pattern, reference_truth(), wf_unit, cfg=DescentConfig(max_iters=0))
    bound = crlb(reference_truth(), wf_unit, grid_mid, [line], 0.01)
    records = [line, Position3(line.vec), obs, pattern, report, bound, _as_batch(pattern)]
    assert len({*records, *records}) == len(records)
    assert all(r in records and r == r for r in records)
