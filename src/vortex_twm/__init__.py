"""Dual-channel vortex transfer in a ladder medium with broken symmetry.

Closed-form propagation of two counter-propagating weak probes through a
coherently driven medium, the frequency-mixed fields they generate, and
the interference observables of the resultant outputs.
"""
from .analysis import (
    AnalysisSpec,
    AzimuthalProfile,
    azimuthal_profile,
    peak_angle,
    petal_count,
    ring_radius,
    winding_number,
)
from .beams import ComplexField, Grid2D, GridSpec, LGBeamSpec, make_grid, sample_lg
from .config import RunConfig, default_config, load_config, parse_config
from .errors import VortexTwmError
from .figures import reproduce_figure, run_sweep
from .medium import (
    CoherencePair,
    MediumParams,
    beta_factor,
    evolve_coherences,
    steady_coherences,
    y_factor,
)
from .propagation import (
    ChannelState,
    integrate_channel_numeric,
    output_fields,
    solve_channel_p,
    solve_channel_s,
)
from .runner import compute_fields, run_config
from .verify import run_verify

__version__ = "0.1.0"

__all__ = [
    "AnalysisSpec",
    "AzimuthalProfile",
    "ChannelState",
    "CoherencePair",
    "ComplexField",
    "Grid2D",
    "GridSpec",
    "LGBeamSpec",
    "MediumParams",
    "RunConfig",
    "VortexTwmError",
    "azimuthal_profile",
    "beta_factor",
    "compute_fields",
    "default_config",
    "evolve_coherences",
    "integrate_channel_numeric",
    "load_config",
    "make_grid",
    "output_fields",
    "parse_config",
    "peak_angle",
    "petal_count",
    "reproduce_figure",
    "ring_radius",
    "run_config",
    "run_sweep",
    "run_verify",
    "sample_lg",
    "solve_channel_p",
    "solve_channel_s",
    "steady_coherences",
    "winding_number",
    "y_factor",
    "__version__",
]
