"""Differentiable point-scattering range profiles: synthesis, fitting, bounds."""

from .constants import C_LIGHT
from .geometry import (
    DegenerateGeometryError,
    Position3,
    SightLine,
    sightline_from_angles,
)
from .waveform import LfmWaveform, lfm_from_band
from .scatterer import (
    FixedAmplitude,
    FixedCylindrical,
    PositionModel,
    Scatterer,
    SlippingRing,
    Spherical,
)
from .model import (
    PointScatteringModel,
    RangeGrid,
    profile_jacobians,
    synthesize_profiles,
)
from .loss import (
    Observation,
    WeightMatrix,
    batch_gradient,
    batch_loss,
    coherent_loss,
    coherent_loss_gradient,
    noncoherent_clamp,
    noncoherent_loss,
    noncoherent_loss_gradient,
)
from .estimate import (
    CrlbResult,
    DescentConfig,
    FitReport,
    crlb,
    crlb_from_fisher,
    fisher_info,
    gradient_descent,
    line_search,
    sequential_fit,
)
from .sim import NoiseSpec, StaticPattern, sweep_sightlines, synthesize_pattern

__version__ = "0.1.0"

__all__ = [
    "C_LIGHT",
    "CrlbResult",
    "DegenerateGeometryError",
    "DescentConfig",
    "FitReport",
    "FixedAmplitude",
    "FixedCylindrical",
    "LfmWaveform",
    "NoiseSpec",
    "Observation",
    "PointScatteringModel",
    "Position3",
    "PositionModel",
    "RangeGrid",
    "Scatterer",
    "SightLine",
    "SlippingRing",
    "Spherical",
    "StaticPattern",
    "WeightMatrix",
    "batch_gradient",
    "batch_loss",
    "coherent_loss",
    "coherent_loss_gradient",
    "crlb",
    "crlb_from_fisher",
    "fisher_info",
    "gradient_descent",
    "lfm_from_band",
    "line_search",
    "noncoherent_clamp",
    "noncoherent_loss",
    "noncoherent_loss_gradient",
    "profile_jacobians",
    "sequential_fit",
    "sightline_from_angles",
    "synthesize_pattern",
    "synthesize_profiles",
    "sweep_sightlines",
]
