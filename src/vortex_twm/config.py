"""Run configuration: dataclass, JSON (de)serialization, validation.

One JSON document describes one run.  All rates are in units of the
upper-transition decay rate; all lengths in waist multiples:

    {
      "medium":  {"gamma31": 1.0, "gamma21": 0.05, "delta": 0.0, "d": 100.0,
                  "length": 1.0},
      "control": {"epsilon": 4.0, "tc": 1, "waist": 1.0},
      "probe_p": {"epsilon": 0.005, "tc": 0, "waist": 1.0},
      "probe_s": {"epsilon": 0.005, "tc": 0, "waist": 1.0},
      "grid":    {"n": 256, "extent": 3.0},
      "outputs": ["fields", "images", "profiles", "metrics"],
      "analysis": {"radius": "auto", "m": 720}
    }

Only medium (gamma31, gamma21, d) and the three beams (epsilon, tc) are
required; every other key defaults as above.  The key set above is the
whole set: a section or key outside it is an error naming its dotted
path, so a typo never falls back to a default.  Validation errors name
the offending field the same way.
"""
from __future__ import annotations

import json
import math
import warnings
from dataclasses import MISSING, asdict, dataclass, fields

from .analysis import DEFAULT_M
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
]

KNOWN_OUTPUTS = ("fields", "images", "profiles", "metrics")
GRID_N_MAX = 4096  # one 4096^2 complex field is 256 MiB
PROFILE_M_MAX = 65536


class WeakProbeWarning(UserWarning):
    """Probe amplitude large enough to strain the weak-probe treatment."""


@dataclass(frozen=True)
class RunConfig:
    medium: MediumParams
    control: LGBeamSpec
    probe_p: LGBeamSpec
    probe_s: LGBeamSpec
    grid_n: int = 256
    grid_extent: float = 3.0
    outputs: tuple = KNOWN_OUTPUTS
    ring_radius: float | None = None  # None selects the automatic ring
    profile_m: int = DEFAULT_M

    def __post_init__(self):
        """Cross-field checks plus the weak-probe advisory warning.

        Every construction runs them, dataclasses.replace included, so a
        RunConfig that exists is a valid one.
        """
        lmax = max(abs(self.control.tc), abs(self.probe_p.tc), abs(self.probe_s.tc))
        if not isinstance(self.grid_n, int) or self.grid_n < 2:
            raise InvalidConfigError(f"grid.n must be an integer >= 2, got {self.grid_n!r}")
        need_n = 8 * (lmax + 1)
        if self.grid_n < need_n:
            raise InvalidConfigError(
                f"grid.n = {self.grid_n} under-resolves charge {lmax} (need >= {need_n})"
            )
        if self.grid_n > GRID_N_MAX:
            raise InvalidConfigError(f"grid.n = {self.grid_n} exceeds the ceiling {GRID_N_MAX}")
        if not (math.isfinite(self.grid_extent) and self.grid_extent > 0):
            raise InvalidConfigError(
                f"grid.extent must be finite and positive, got {self.grid_extent!r}"
            )
        waist = max(self.control.waist, self.probe_p.waist, self.probe_s.waist)
        if self.grid_extent < waist:
            raise InvalidConfigError(
                f"grid.extent = {self.grid_extent!r} does not reach the beam waist {waist!r}"
            )
        step = 2.0 * self.grid_extent / (self.grid_n - 1)
        finest = min(self.control.waist, self.probe_p.waist, self.probe_s.waist)
        if step > finest:
            raise InvalidConfigError(
                f"grid step 2*extent/(n-1) = {step!r} does not resolve the beam waist {finest!r}"
                " (raise grid.n or lower grid.extent)"
            )
        if not isinstance(self.profile_m, int) or self.profile_m < 16:
            raise InvalidConfigError(f"analysis.m must be an integer >= 16, got {self.profile_m!r}")
        if self.profile_m > PROFILE_M_MAX:
            raise InvalidConfigError(
                f"analysis.m = {self.profile_m} exceeds the ceiling {PROFILE_M_MAX}"
            )
        bad = [o for o in self.outputs if o not in KNOWN_OUTPUTS]
        if bad:
            raise InvalidConfigError(f"outputs contains unknown products {bad!r}")
        if self.ring_radius is not None and not (0.0 <= self.ring_radius <= self.grid_extent):
            raise InvalidConfigError(
                f"analysis.radius = {self.ring_radius!r} outside [0, extent={self.grid_extent}]"
            )
        probe_peak = max(self.probe_p.epsilon, self.probe_s.epsilon)
        decay_floor = min(self.medium.gamma21, self.medium.gamma31)
        if decay_floor > 0 and probe_peak > 0.5 * decay_floor:
            warnings.warn(
                f"probe amplitude {probe_peak} exceeds half the slowest decay "
                f"{decay_floor}; the perturbative treatment may be strained",
                WeakProbeWarning,
                stacklevel=3,  # the caller of the generated __init__
            )


def default_config() -> RunConfig:
    """Canonical run: resonant strong vortex control, weak flat probes."""
    return RunConfig(
        medium=MediumParams(gamma31=1.0, gamma21=0.05, delta=0.0, d=100.0),
        control=LGBeamSpec(epsilon=4.0, tc=1),
        probe_p=LGBeamSpec(epsilon=0.005, tc=0),
        probe_s=LGBeamSpec(epsilon=0.005, tc=0),
    )


# The run document, declared once.  medium and each beam section hold the
# fields of their dataclass; a grid or analysis key names a RunConfig
# field.  A field's annotation text (_KINDS; these modules postpone
# annotations) gives the key's type; its default, or else _DEFAULTS, the
# value of an omitted key; a key with neither is required.
_NESTED = dict(medium=MediumParams, control=LGBeamSpec, probe_p=LGBeamSpec, probe_s=LGBeamSpec)
_RUN_KEYS = {
    "grid": {"n": "grid_n", "extent": "grid_extent"},
    "analysis": {"radius": "ring_radius", "m": "profile_m"},
}
_RUN_FIELDS = {f.name: f for f in fields(RunConfig)}
_SECTIONS = {
    **{name: {f.name: f for f in fields(cls)} for name, cls in _NESTED.items()},
    **{name: {key: _RUN_FIELDS[attr] for key, attr in keys.items()}
       for name, keys in _RUN_KEYS.items()},
}
# a default its dataclass cannot carry: delta is positional, before d
_DEFAULTS = {("medium", "delta"): 0.0}
_KINDS = {"int": "an integer", "float": "a number", "float | None": "'auto' or a number"}


def _value(path: str, val, kind: str):
    """val read as a field annotated kind: int, float, or float | None ("auto")."""
    if kind == "float | None" and val == "auto":
        return None
    if isinstance(val, bool) or not isinstance(val, int if kind == "int" else (int, float)):
        raise InvalidConfigError(f"'{path}' must be {_KINDS[kind]}, got {val!r}")
    try:
        return int(val) if kind == "int" else float(val)
    except OverflowError:  # a JSON integer beyond the largest double
        raise InvalidConfigError(f"'{path}' exceeds the float range") from None


def _section(doc: dict, name: str) -> dict:
    """Section name of doc, each declared key read, else its field default."""
    keyed = _SECTIONS[name]
    if name not in doc and name in _NESTED:
        raise InvalidConfigError(f"missing config section '{name}'")
    sec = doc.get(name, {})
    if not isinstance(sec, dict):
        raise InvalidConfigError(f"config section '{name}' must be an object")
    values = {}
    for key, f in keyed.items():
        if key in sec:
            values[key] = _value(f"{name}.{key}", sec[key], f.type)
        elif f.default is not MISSING:
            values[key] = f.default
        elif (name, key) in _DEFAULTS:
            values[key] = _DEFAULTS[name, key]
        else:
            raise InvalidConfigError(f"missing config value '{name}.{key}'")
    return values


def parse_config(doc: dict) -> RunConfig:
    """Build and validate a RunConfig from a parsed JSON document."""
    if not isinstance(doc, dict):
        raise InvalidConfigError("config document must be a JSON object")
    unknown = [name for name in doc if name not in _SECTIONS and name != "outputs"]
    unknown += [
        f"{name}.{key}"
        for name, keyed in _SECTIONS.items()
        if isinstance(doc.get(name), dict)
        for key in doc[name]
        if key not in keyed
    ]
    if unknown:
        names = ", ".join(map(repr, unknown))
        raise InvalidConfigError(f"unknown config key{'s' * (len(unknown) > 1)} {names}")
    values = {name: _section(doc, name) for name in _SECTIONS}
    nested = {}
    for name, cls in _NESTED.items():
        try:
            nested[name] = cls(**values[name])
        except InvalidConfigError as exc:
            msg = str(exc)  # a beam's own message does not say which beam it is
            raise InvalidConfigError(msg if msg.startswith(name) else f"{name}: {msg}") from None
    flat = {
        attr: values[name][key] for name, keys in _RUN_KEYS.items() for key, attr in keys.items()
    }

    outputs = doc.get("outputs", list(KNOWN_OUTPUTS))
    if not isinstance(outputs, (list, tuple)) or not all(isinstance(o, str) for o in outputs):
        raise InvalidConfigError("'outputs' must be a list of product names")
    return RunConfig(**nested, **flat, outputs=tuple(outputs))


def _object(pairs: tuple, path: str = "") -> dict:
    """A JSON object from its (key, value) pairs; a repeated key is an error naming its path."""
    obj = {}
    for key, val in pairs:
        if key in obj:
            raise InvalidConfigError(f"duplicate config key '{path}{key}'")
        obj[key] = _object(val, f"{path}{key}.") if isinstance(val, tuple) else val
    return obj


def load_config(path) -> RunConfig:
    """parse_config of a JSON file; a key repeated within one object is an error."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            # objects decode to tuples of pairs (arrays are lists), so none is lost
            doc = json.load(fh, object_pairs_hook=tuple)
            doc = _object(doc) if isinstance(doc, tuple) else doc
        except (ValueError, RecursionError) as exc:
            # malformed JSON, bytes that are not UTF-8, an integer literal over
            # Python's digit limit, or nesting deeper than the recursion limit
            raise InvalidConfigError(f"config is not valid JSON: {exc}") from None
    return parse_config(doc)


def config_to_dict(cfg: RunConfig) -> dict:
    """JSON-ready echo; parse_config(config_to_dict(cfg)) reproduces cfg."""
    doc = {name: asdict(getattr(cfg, name)) for name in _NESTED}
    for name, keys in _RUN_KEYS.items():
        doc[name] = {key: getattr(cfg, attr) for key, attr in keys.items()}
    doc["outputs"] = list(cfg.outputs)
    if cfg.ring_radius is None:
        doc["analysis"]["radius"] = "auto"
    return doc
