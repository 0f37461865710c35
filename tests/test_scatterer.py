"""Scattering-center models: slots, positions, and their derivatives."""

import dataclasses

import numpy as np
import pytest

from scatterfit import (
    DegenerateGeometryError,
    FixedAmplitude,
    FixedCylindrical,
    Scatterer,
    SightLine,
    SlippingRing,
    Spherical,
    sightline_from_angles,
)
from conftest import POSITION_KINDS, fd_jacobian, random_line, random_scatterer


def test_slot_layouts():
    assert FixedAmplitude(1.0, 0.5).slot_names == ("s_re", "s_im")
    assert FixedCylindrical(1.0, 0.2, 0.3).slot_names == ("r_s", "phi_s", "z_s")
    assert SlippingRing(1.0, 0.3).slot_names == ("r_s", "z_s")
    assert Spherical(1.0).slot_names == ("rho_s",)
    s = Scatterer(FixedAmplitude(1.0, 0.5), FixedCylindrical(1.0, 0.2, 0.3))
    assert s.slot_names == ("s_re", "s_im", "r_s", "phi_s", "z_s")
    assert s.n_slots == 5
    # the shared slot plumbing reads a primitive's dataclass fields as its slots
    for cls in (FixedAmplitude, FixedCylindrical, SlippingRing, Spherical):
        assert cls.slot_names == tuple(f.name for f in dataclasses.fields(cls))


def test_params_round_trip(rng):
    for kind in POSITION_KINDS:
        s = random_scatterer(rng, kind)
        values = s.params + rng.normal(scale=0.01, size=s.n_slots)
        s2 = s.with_params(values)
        assert np.array_equal(s2.params, values)
        assert type(s2.position_model) is type(s.position_model)
        # a numpy slice goes in, Python floats are stored
        for model in (s2.amplitude_model, s2.position_model):
            assert all(type(v) is float for v in model.params)


def test_with_params_shape_check():
    s = Scatterer(FixedAmplitude(1.0, 0.0), Spherical(1.0))
    with pytest.raises(ValueError):
        s.with_params(np.zeros(4))


def test_validate_rejects_negative_radii():
    # with_params may hold a transiently negative radius; validate flags it
    for bad in (FixedCylindrical(-0.1, 0.0, 0.0), SlippingRing(-0.1, 0.0), Spherical(-0.1)):
        with pytest.raises(ValueError):
            bad.validate()


def test_position_jacobian_against_finite_differences(rng):
    for trial in range(100):
        kind = POSITION_KINDS[trial % 3]
        s = random_scatterer(rng, kind)
        line = random_line(rng)
        theta = s.params

        def pos_at(th):
            return s.with_params(th).position(line).p

        fd = fd_jacobian(pos_at, theta)
        na = s.amplitude_model.n_slots
        # amplitude slots never move the point; the model's Jacobian covers the rest
        assert np.array_equal(fd[:, :na], np.zeros((3, na)))
        pm = s.position_model
        got = pm.jacobians(np.array([pm.params]), line.vec[None, :])[0, 0]
        err = np.abs(got - fd[:, na:]).max()
        assert err <= 1e-6 * max(np.abs(fd).max(), 1.0), f"{kind}: {err}"


def test_fixed_cylindrical_position():
    slots = np.array([[2.0, np.pi / 2.0, -1.0], [1.0, np.pi, 0.5]])
    lines = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    p = np.broadcast_to(FixedCylindrical.positions(slots, lines), (2, 2, 3))
    assert np.allclose(p[0], [[0.0, 2.0, -1.0], [0.0, 2.0, -1.0]], atol=1e-12)
    assert np.allclose(p[1], [[-1.0, 0.0, 0.5], [-1.0, 0.0, 0.5]], atol=1e-12)


def test_slipping_range_in_xz_plane(rng):
    # with the sight line in the x-z plane (lx > 0) the projected range
    # reduces to -(r_s*lx + z_s*lz)
    for _ in range(20):
        r_s, z_s = rng.uniform(0.0, 2.0), rng.uniform(-2.0, 2.0)
        el = rng.uniform(-1.2, 1.2)
        line = sightline_from_angles(0.0, el)
        s = Scatterer(FixedAmplitude(1.0, 0.0), SlippingRing(r_s, z_s))
        want = -(r_s * line.vec[0] + z_s * line.vec[2])
        assert -(s.position(line).p @ line.vec) == pytest.approx(want, abs=1e-12)


def test_slipping_tracks_azimuth(rng):
    slots = np.array([SlippingRing(1.5, 0.4).params])
    for az in (0.0, 1.0, 2.5, -2.0):
        line = sightline_from_angles(az, 0.3)
        p = SlippingRing.positions(slots, line.vec[None, :])[0, 0]
        assert np.arctan2(p[1], p[0]) == pytest.approx(az, abs=1e-12)
        assert np.hypot(p[0], p[1]) == pytest.approx(1.5)
        assert p[2] == 0.4


def test_slipping_degenerate_sightline():
    slots = np.array([SlippingRing(1.0, 0.0).params])
    for method in (SlippingRing.positions, SlippingRing.jacobians):
        with pytest.raises(DegenerateGeometryError):
            method(slots, np.array([[0.0, 0.0, 1.0]]))
    s = Scatterer(FixedAmplitude(1.0, 0.0), SlippingRing(1.0, 0.0))
    with pytest.raises(DegenerateGeometryError):
        s.position(SightLine(np.array([0.0, 0.0, -1.0])))


def test_ring_direction_is_kept_by_the_stack_values():
    # the direction is kept by the values of the line stack, whoever built
    # the array: a line rewritten through a writeable stack or through a view
    # is seen on the next call, and a stack made writeable again is recomputed
    import scatterfit.scatterer as scatterer

    cache = scatterer._ring_direction_of
    cache.cache_clear()
    slots = np.array([SlippingRing(1.5, 0.4).params])
    base = np.array([[1.0, 0.0, 0.0], [0.0, 0.6, 0.8]])
    view = base[:]
    view.setflags(write=False)
    for lines in (base, view):
        before = SlippingRing.positions(slots, lines)
        base[:] = base[::-1].copy()
        after = SlippingRing.positions(slots, lines)
        assert np.array_equal(after, SlippingRing.positions(slots, lines.copy()))
        assert not np.array_equal(after, before)
    # two line orders were seen, each computed once, whichever array held it
    assert cache.cache_info().misses == 2
    frozen = base.copy()
    frozen.setflags(write=False)
    kept = SlippingRing.jacobians(slots, frozen)
    hits = cache.cache_info().hits
    assert np.array_equal(SlippingRing.jacobians(slots, frozen), kept)
    assert cache.cache_info().hits == hits + 1
    frozen.setflags(write=True)
    frozen[:] = frozen[::-1].copy()
    assert np.array_equal(SlippingRing.jacobians(slots, frozen), SlippingRing.jacobians(slots, frozen.copy()))


def test_spherical_constant_range(rng):
    rho = 1.7
    s = Scatterer(FixedAmplitude(1.0, 0.0), Spherical(rho))
    for _ in range(20):
        line = random_line(rng, min_xy=0.0)
        assert -(s.position(line).p @ line.vec) == pytest.approx(rho, abs=1e-12)
