"""Run configuration: the run document as checked dataclasses, and its JSON form.

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

RunConfig mirrors it: outputs and a field per section, a frozen dataclass
whose fields are the section's keys (MediumParams, an LGBeamSpec per beam,
GridSpec, AnalysisSpec).  Each section types and checks its keys when it is
built, and stores a real as a Python float (never a bool, a string or
None), tc, n and m as a Python int (never a float), and analysis.radius as
"auto" or a float.  RunConfig checks only what spans sections.

Only medium (gamma31, gamma21, d) and the three beams (epsilon, tc) are
required; every other key defaults as above.  The key set above is the
whole set: a section or key outside it, like every invalid value, is an
error naming its dotted path, so a typo never falls back to a default.
"""
from __future__ import annotations

import json
import warnings
from dataclasses import MISSING, asdict, dataclass, fields

from .analysis import AnalysisSpec, check_radius
from .beams import GridSpec, LGBeamSpec
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
    """One run; __post_init__ holds the checks that span sections and the weak-probe warning.

    Every construction runs them, dataclasses.replace included, so a
    RunConfig that exists is valid.  A list of outputs is stored as a tuple.
    """

    medium: MediumParams
    control: LGBeamSpec
    probe_p: LGBeamSpec
    probe_s: LGBeamSpec
    grid: GridSpec = GridSpec()
    outputs: tuple = KNOWN_OUTPUTS
    analysis: AnalysisSpec = AnalysisSpec()

    def __post_init__(self):
        for name, cls in _SECTIONS.items():
            if not isinstance(getattr(self, name), cls):
                raise InvalidConfigError(f"config section '{name}' must be a {cls.__name__}")
        n, extent = self.grid.n, self.grid.extent
        beams = (self.control, self.probe_p, self.probe_s)
        lmax = max(abs(beam.tc) for beam in beams)
        need_n = 8 * (lmax + 1)
        if n < need_n:
            raise InvalidConfigError(
                f"grid.n = {n} under-resolves charge {lmax} (need >= {need_n})"
            )
        waist = max(beam.waist for beam in beams)
        if extent < waist:
            raise InvalidConfigError(
                f"grid.extent = {extent!r} does not reach the beam waist {waist!r}"
            )
        step = 2.0 * extent / (n - 1)
        finest = min(beam.waist for beam in beams)
        if step > finest:
            raise InvalidConfigError(
                f"grid step 2*extent/(n-1) = {step!r} does not resolve the beam waist {finest!r}"
                " (raise grid.n or lower grid.extent)"
            )
        outputs = self.outputs
        if not isinstance(outputs, (list, tuple)) or not all(isinstance(o, str) for o in outputs):
            raise InvalidConfigError("'outputs' must be a list of product names")
        bad = [o for o in outputs if o not in KNOWN_OUTPUTS]
        if bad:
            raise InvalidConfigError(f"outputs contains unknown products {bad!r}")
        object.__setattr__(self, "outputs", tuple(outputs))  # frozen: set once, here
        if self.analysis.radius != "auto":
            check_radius(self.analysis.radius, extent)
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


# The run document's sections, declared once.  A field's default is the
# value of an omitted key, else _DEFAULTS; a key with neither is required.
_SECTIONS = dict(
    medium=MediumParams, control=LGBeamSpec, probe_p=LGBeamSpec, probe_s=LGBeamSpec,
    grid=GridSpec, analysis=AnalysisSpec,
)
# a default its dataclass cannot carry: delta is positional, before d
_DEFAULTS = {"medium": {"delta": 0.0}}


def _section(doc: dict, name: str):
    """Section name of doc built as its dataclass, an omitted key taking its default."""
    cls, sec = _SECTIONS[name], doc.get(name, {})
    if not isinstance(sec, dict):
        raise InvalidConfigError(f"config section '{name}' must be an object")
    values = {**_DEFAULTS.get(name, {}), **sec}
    missing = [f.name for f in fields(cls) if f.default is MISSING and f.name not in values]
    if missing:
        what = f"value '{name}.{missing[0]}'" if name in doc else f"section '{name}'"
        raise InvalidConfigError(f"missing config {what}")
    try:
        return cls(**values)
    except InvalidConfigError as exc:  # a beam names its keys beam.*, not by its section
        if cls is LGBeamSpec:
            raise InvalidConfigError(str(exc).replace("beam.", f"{name}.", 1)) from None
        raise


def parse_config(doc: dict) -> RunConfig:
    """Build and validate a RunConfig from a parsed JSON document."""
    if not isinstance(doc, dict):
        raise InvalidConfigError("config document must be a JSON object")
    unknown = [name for name in doc if name not in _SECTIONS and name != "outputs"]
    unknown += [
        f"{name}.{key}"
        for name, cls in _SECTIONS.items()
        if isinstance(doc.get(name), dict)
        for key in doc[name]
        if key not in {f.name for f in fields(cls)}
    ]
    if unknown:
        names = ", ".join(map(repr, unknown))
        raise InvalidConfigError(f"unknown config key{'s' * (len(unknown) > 1)} {names}")
    sections = {name: _section(doc, name) for name in _SECTIONS}
    return RunConfig(**sections, outputs=doc.get("outputs", KNOWN_OUTPUTS))


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
    return {**asdict(cfg), "outputs": list(cfg.outputs)}
