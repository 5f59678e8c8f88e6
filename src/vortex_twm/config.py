"""Run configuration: dataclass, JSON (de)serialization, validation.

One JSON document describes one run.  All rates are in units of the
upper-transition decay rate; all lengths in waist multiples:

    {
      "medium":  {"gamma31": 1.0, "gamma21": 0.05, "delta": 0.0, "d": 100.0},
      "control": {"epsilon": 4.0, "tc": 1, "waist": 1.0},
      "probe_p": {"epsilon": 0.005, "tc": 0, "waist": 1.0},
      "probe_s": {"epsilon": 0.005, "tc": 0, "waist": 1.0},
      "grid":    {"n": 256, "extent": 3.0},
      "outputs": ["fields", "images", "profiles", "metrics"],
      "analysis": {"radius": "auto", "m": 720}
    }

Validation errors name the offending field with its dotted path.
"""
from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field

from .beams import LGBeamSpec
from .errors import InvalidConfigError
from .medium import MediumParams

__all__ = [
    "RunConfig",
    "WeakProbeWarning",
    "default_config",
    "parse_config",
    "load_config",
    "config_to_dict",
    "validate_config",
]

KNOWN_OUTPUTS = ("fields", "images", "profiles", "metrics")
GRID_N_MAX = 4096  # one 4096^2 complex field is 256 MiB
PROFILE_M_MAX = 65536


class WeakProbeWarning(UserWarning):
    """Probe amplitude large enough to strain the weak-probe treatment."""


@dataclass
class RunConfig:
    medium: MediumParams
    control: LGBeamSpec
    probe_p: LGBeamSpec
    probe_s: LGBeamSpec
    grid_n: int = 256
    grid_extent: float = 3.0
    outputs: tuple = KNOWN_OUTPUTS
    ring_radius: float | None = None  # None selects the automatic ring
    profile_m: int = 720

    def max_charge(self) -> int:
        return max(abs(self.control.tc), abs(self.probe_p.tc), abs(self.probe_s.tc))

    def ring_angles(self) -> int:
        """Angles of the brightest-ring scan and the floor of analysis.m.

        No output intensity has a ring harmonic above |lc| + |lp| + |ls|,
        so this many uniform angles give its exact ring mean.
        """
        return 16 * (self.max_charge() + 1)


def default_config() -> RunConfig:
    """Canonical run: resonant strong vortex control, weak flat probes."""
    return RunConfig(
        medium=MediumParams(gamma31=1.0, gamma21=0.05, delta=0.0, d=100.0),
        control=LGBeamSpec(epsilon=4.0, tc=1),
        probe_p=LGBeamSpec(epsilon=0.005, tc=0),
        probe_s=LGBeamSpec(epsilon=0.005, tc=0),
    )


def validate_config(cfg: RunConfig) -> RunConfig:
    """Cross-field checks plus the weak-probe advisory warning."""
    lmax = cfg.max_charge()
    if not isinstance(cfg.grid_n, int) or cfg.grid_n < 2:
        raise InvalidConfigError(f"grid.n must be an integer >= 2, got {cfg.grid_n!r}")
    need_n = 8 * (lmax + 1)
    if cfg.grid_n < need_n:
        raise InvalidConfigError(
            f"grid.n = {cfg.grid_n} under-resolves charge {lmax} (need >= {need_n})"
        )
    if cfg.grid_n > GRID_N_MAX:
        raise InvalidConfigError(f"grid.n = {cfg.grid_n} exceeds the ceiling {GRID_N_MAX}")
    if not (math.isfinite(cfg.grid_extent) and cfg.grid_extent > 0):
        raise InvalidConfigError(f"grid.extent must be finite and positive, got {cfg.grid_extent!r}")
    waist = max(cfg.control.waist, cfg.probe_p.waist, cfg.probe_s.waist)
    if cfg.grid_extent < waist:
        raise InvalidConfigError(
            f"grid.extent = {cfg.grid_extent!r} does not reach the beam waist {waist!r}"
        )
    step = 2.0 * cfg.grid_extent / (cfg.grid_n - 1)
    finest = min(cfg.control.waist, cfg.probe_p.waist, cfg.probe_s.waist)
    if step > finest:
        raise InvalidConfigError(
            f"grid step 2*extent/(n-1) = {step!r} does not resolve the beam waist {finest!r}"
            " (raise grid.n or lower grid.extent)"
        )
    need_m = cfg.ring_angles()
    if not isinstance(cfg.profile_m, int) or cfg.profile_m < need_m:
        raise InvalidConfigError(
            f"analysis.m = {cfg.profile_m!r} under-samples charge {lmax} (need >= {need_m})"
        )
    if cfg.profile_m > PROFILE_M_MAX:
        raise InvalidConfigError(f"analysis.m = {cfg.profile_m} exceeds the ceiling {PROFILE_M_MAX}")
    bad = [o for o in cfg.outputs if o not in KNOWN_OUTPUTS]
    if bad:
        raise InvalidConfigError(f"outputs contains unknown products {bad!r}")
    if cfg.ring_radius is not None and not (0.0 <= cfg.ring_radius <= cfg.grid_extent):
        raise InvalidConfigError(
            f"analysis.radius = {cfg.ring_radius!r} outside [0, extent={cfg.grid_extent}]"
        )
    probe_peak = max(cfg.probe_p.epsilon, cfg.probe_s.epsilon)
    decay_floor = min(cfg.medium.gamma21, cfg.medium.gamma31)
    if decay_floor > 0 and probe_peak > 0.5 * decay_floor:
        warnings.warn(
            f"probe amplitude {probe_peak} exceeds half the slowest decay "
            f"{decay_floor}; the perturbative treatment may be strained",
            WeakProbeWarning,
            stacklevel=2,
        )
    return cfg


def _section(doc: dict, key: str) -> dict:
    if key not in doc:
        raise InvalidConfigError(f"missing config section '{key}'")
    if not isinstance(doc[key], dict):
        raise InvalidConfigError(f"config section '{key}' must be an object")
    return doc[key]


def _get(sec: dict, path: str, key: str, default=None, required: bool = False):
    if key in sec:
        return sec[key]
    if required:
        raise InvalidConfigError(f"missing config value '{path}.{key}'")
    return default


def _number(sec: dict, path: str, key: str, default=None, required: bool = False) -> float:
    val = _get(sec, path, key, default, required)
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise InvalidConfigError(f"'{path}.{key}' must be a number, got {val!r}")
    try:
        return float(val)
    except OverflowError:  # a JSON integer beyond the largest double
        raise InvalidConfigError(f"'{path}.{key}' exceeds the float range") from None


def _integer(sec: dict, path: str, key: str, default=None, required: bool = False) -> int:
    val = _get(sec, path, key, default, required)
    if isinstance(val, bool) or not isinstance(val, int):
        raise InvalidConfigError(f"'{path}.{key}' must be an integer, got {val!r}")
    return int(val)


def _beam(doc: dict, key: str) -> LGBeamSpec:
    sec = _section(doc, key)
    try:
        return LGBeamSpec(
            epsilon=_number(sec, key, "epsilon", required=True),
            tc=_integer(sec, key, "tc", required=True),
            waist=_number(sec, key, "waist", default=1.0),
        )
    except InvalidConfigError as exc:
        raise InvalidConfigError(f"{key}: {exc}") from None


def parse_config(doc: dict) -> RunConfig:
    """Build and validate a RunConfig from a parsed JSON document."""
    if not isinstance(doc, dict):
        raise InvalidConfigError("config document must be a JSON object")
    med = _section(doc, "medium")
    medium = MediumParams(
        gamma31=_number(med, "medium", "gamma31", required=True),
        gamma21=_number(med, "medium", "gamma21", required=True),
        delta=_number(med, "medium", "delta", default=0.0),
        d=_number(med, "medium", "d", required=True),
        length=_number(med, "medium", "length", default=1.0),
    )

    grid = _section(doc, "grid") if "grid" in doc else {}
    analysis = _section(doc, "analysis") if "analysis" in doc else {}
    radius_raw = analysis.get("radius", "auto")
    if radius_raw == "auto":
        radius = None
    elif isinstance(radius_raw, (int, float)) and not isinstance(radius_raw, bool):
        radius = _number(analysis, "analysis", "radius")
    else:
        raise InvalidConfigError(f"'analysis.radius' must be 'auto' or a number, got {radius_raw!r}")

    outputs = doc.get("outputs", list(KNOWN_OUTPUTS))
    if not isinstance(outputs, (list, tuple)) or not all(isinstance(o, str) for o in outputs):
        raise InvalidConfigError("'outputs' must be a list of product names")

    cfg = RunConfig(
        medium=medium,
        control=_beam(doc, "control"),
        probe_p=_beam(doc, "probe_p"),
        probe_s=_beam(doc, "probe_s"),
        grid_n=_integer(grid, "grid", "n", default=256),
        grid_extent=_number(grid, "grid", "extent", default=3.0),
        outputs=tuple(outputs),
        ring_radius=radius,
        profile_m=_integer(analysis, "analysis", "m", default=720),
    )
    return validate_config(cfg)


def load_config(path) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except (ValueError, RecursionError) as exc:
            # malformed JSON, bytes that are not UTF-8, an integer literal over
            # Python's digit limit, or nesting deeper than the recursion limit
            raise InvalidConfigError(f"config is not valid JSON: {exc}") from None
    return parse_config(doc)


def config_to_dict(cfg: RunConfig) -> dict:
    """JSON-ready echo; parse_config(config_to_dict(cfg)) reproduces cfg."""

    def beam(spec: LGBeamSpec) -> dict:
        return {"epsilon": spec.epsilon, "tc": spec.tc, "waist": spec.waist}

    return {
        "medium": {
            "gamma31": cfg.medium.gamma31,
            "gamma21": cfg.medium.gamma21,
            "delta": cfg.medium.delta,
            "d": cfg.medium.d,
            "length": cfg.medium.length,
        },
        "control": beam(cfg.control),
        "probe_p": beam(cfg.probe_p),
        "probe_s": beam(cfg.probe_s),
        "grid": {"n": cfg.grid_n, "extent": cfg.grid_extent},
        "outputs": list(cfg.outputs),
        "analysis": {
            "radius": "auto" if cfg.ring_radius is None else cfg.ring_radius,
            "m": cfg.profile_m,
        },
    }
