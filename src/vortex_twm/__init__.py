"""Dual-channel vortex transfer in a ladder medium with broken symmetry.

Closed-form propagation of two counter-propagating weak probes through a
coherently driven medium, the frequency-mixed fields they generate, and
the interference observables of the resultant outputs.
"""
from .analysis import AnalysisSpec, AzimuthalProfile, peak_angle, petal_count
from .beams import ComplexField, GridSpec, LGBeamSpec, sample_lg
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
    solve_channel,
)
from .runner import analyse, compute_fields, run_config
from .verify import run_verify

__version__ = "0.1.0"

__all__ = [
    "AnalysisSpec",
    "AzimuthalProfile",
    "ChannelState",
    "CoherencePair",
    "ComplexField",
    "GridSpec",
    "LGBeamSpec",
    "MediumParams",
    "RunConfig",
    "VortexTwmError",
    "analyse",
    "beta_factor",
    "compute_fields",
    "default_config",
    "evolve_coherences",
    "integrate_channel_numeric",
    "load_config",
    "output_fields",
    "parse_config",
    "peak_angle",
    "petal_count",
    "reproduce_figure",
    "run_config",
    "run_sweep",
    "run_verify",
    "sample_lg",
    "solve_channel",
    "steady_coherences",
    "y_factor",
    "__version__",
]
