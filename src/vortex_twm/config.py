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
import warnings
from dataclasses import MISSING, asdict, dataclass, fields

from .analysis import DEFAULT_M, check_m, check_radius
from .beams import LGBeamSpec, check_grid
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
        """Checks that span sections, plus the weak-probe advisory warning.

        The rules of a single key belong to the code that uses its value:
        beams.check_grid (grid.n, grid.extent), analysis.check_m and
        check_radius (analysis.m, analysis.radius).  Their results are
        stored, so NumPy numbers become Python ones and a list of outputs a
        tuple.  Every construction runs the checks, dataclasses.replace
        included, so a RunConfig that exists is a valid one.
        """
        n, extent = check_grid(self.grid_n, self.grid_extent)
        lmax = max(abs(self.control.tc), abs(self.probe_p.tc), abs(self.probe_s.tc))
        need_n = 8 * (lmax + 1)
        if n < need_n:
            raise InvalidConfigError(
                f"grid.n = {n} under-resolves charge {lmax} (need >= {need_n})"
            )
        waist = max(self.control.waist, self.probe_p.waist, self.probe_s.waist)
        if extent < waist:
            raise InvalidConfigError(
                f"grid.extent = {extent!r} does not reach the beam waist {waist!r}"
            )
        step = 2.0 * extent / (n - 1)
        finest = min(self.control.waist, self.probe_p.waist, self.probe_s.waist)
        if step > finest:
            raise InvalidConfigError(
                f"grid step 2*extent/(n-1) = {step!r} does not resolve the beam waist {finest!r}"
                " (raise grid.n or lower grid.extent)"
            )
        m = check_m(self.profile_m)
        outputs = self.outputs
        if not isinstance(outputs, (list, tuple)) or not all(isinstance(o, str) for o in outputs):
            raise InvalidConfigError("'outputs' must be a list of product names")
        bad = [o for o in outputs if o not in KNOWN_OUTPUTS]
        if bad:
            raise InvalidConfigError(f"outputs contains unknown products {bad!r}")
        radius = None if self.ring_radius is None else check_radius(self.ring_radius, extent)
        checked = dict(
            grid_n=n, grid_extent=extent, profile_m=m, outputs=tuple(outputs), ring_radius=radius
        )
        for name, value in checked.items():
            object.__setattr__(self, name, value)  # frozen: each checked value is set once, here
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

    return RunConfig(**nested, **flat, outputs=doc.get("outputs", KNOWN_OUTPUTS))


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
