"""Observation synthesis: noisy profiles and multi-aspect static patterns.

Noise is circular complex Gaussian with total power sigma2 per bin
(sigma2/2 in each quadrature).  Every profile of a pattern draws from its
own substream, split off the base seed by aspect index, so patterns are
reproducible and profiles are mutually independent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import SightLine
from .loss import Observation
from .model import PointScatteringModel, RangeGrid, _is_count, synthesize_profiles
from .waveform import LfmWaveform


@dataclass(frozen=True)
class NoiseSpec:
    """Per-bin complex noise power and the base seed of the draw."""

    sigma2: float
    seed: int = 0

    def __post_init__(self):
        if self.sigma2 < 0.0 or not np.isfinite(self.sigma2):
            raise ValueError(f"noise power must be finite and >= 0, got {self.sigma2}")
        if not (_is_count(self.seed) and self.seed >= 0):
            raise ValueError(f"noise seed must be an integer >= 0, got {self.seed!r}")


@dataclass(frozen=True, eq=False)
class StaticPattern:
    """One noisy observation per sight line, sharing a grid and noise spec,
    plus the noise-free (K, m) profiles they were drawn around."""

    observations: tuple[Observation, ...]
    clean: np.ndarray


def _substream(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(index,)))


def _noise(rng: np.random.Generator, sigma2: float, m: int) -> np.ndarray:
    re, im = rng.standard_normal((2, m))
    return np.sqrt(sigma2 / 2.0) * (re + 1j * im)


def sweep_sightlines(
    count: int, elevation: float = 0.0, az_start: float = 0.0, az_stop: float = 2.0 * np.pi
) -> list[SightLine]:
    """Evenly spaced azimuths at fixed elevation; the stop angle is exclusive."""
    if not (_is_count(count) and count >= 1):
        raise ValueError(f"aspect count must be an integer >= 1, got {count!r}")
    az = az_start + (az_stop - az_start) * np.arange(count) / count
    ce, se = np.cos(elevation), np.sin(elevation)
    return [SightLine(np.array([ce * np.cos(a), ce * np.sin(a), se])) for a in az]


def synthesize_pattern(
    model: PointScatteringModel,
    wf: LfmWaveform,
    grid: RangeGrid,
    lines,
    spec: NoiseSpec,
) -> StaticPattern:
    """Noisy profiles for every sight line, with per-aspect noise substreams."""
    line_objs = [l if isinstance(l, SightLine) else SightLine(np.asarray(l, dtype=float)) for l in lines]
    gmat = synthesize_profiles(model, wf, grid, line_objs)
    gmat.setflags(write=False)
    obs = tuple(
        Observation(gmat[i] + _noise(_substream(spec.seed, i), spec.sigma2, grid.m), line_objs[i], grid)
        for i in range(len(line_objs))
    )
    return StaticPattern(obs, gmat)
