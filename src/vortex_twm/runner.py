"""Execute one configured run and write its products plus a manifest.

A run analyses the six output fields from their closed form alone and
writes the requested products; only fields and images paint the fields,
from the same closed form, with one propagation.output_fields call:

    fields    CSV dumps of the six computed fields
    images    PGM intensity and PPM phase maps of the six computed fields
    profiles  azimuthal intensity CSVs of the six computed fields
    metrics   one CSV row of observables per computed field

The manifest (manifest.json) echoes the exact configuration and lists
every written file with its size and SHA-256, so a run is reproducible
from its manifest alone and verifiable bit for bit.
"""
from __future__ import annotations

import hashlib
import json
from pathlib import Path

from . import analysis, propagation, render
from .beams import ComplexField
from .config import RunConfig, config_to_dict
from .errors import NonFiniteFieldError, VortexTwmError

__all__ = [
    "Blank",
    "run_config",
    "compute_fields",
    "write_products",
    "field_metrics",
    "analyse",
    "write_manifest",
]

METRIC_COLUMNS = ("field", "radius", "winding", "petal_count", "peak_angle", "ring_radius")
OUTPUT_NAMES = ("omega_d", "omega_u", "omega_fp", "omega_fs", "omega_s", "omega_p")
PAINTED = frozenset({"fields", "images"})  # the products written from the painted fields


class Blank(str):
    """An undefined metric cell: equal to "", so written as "", with its VortexTwmError in .why."""

    def __new__(cls, why: VortexTwmError):
        blank = super().__new__(cls)
        blank.why = why.with_traceback(None)  # its frames would keep a read's arrays alive
        return blank

    def __repr__(self) -> str:
        return f"Blank({self.why!r})"

    def __reduce__(self):  # str's own hands "" to __new__; copy and pickle pass the reason
        return Blank, (self.why,)


def compute_fields(cfg: RunConfig) -> dict[str, ComplexField]:
    """The six named output fields of cfg, painted on cfg.grid by propagation.output_fields."""
    return propagation.output_fields(cfg.medium, cfg.control, cfg.probe_p, cfg.probe_s, cfg.grid)


def _metric_or_blank(fn, *needs):
    """fn(), or a Blank: the first of needs that is one, else that of the error fn raises."""
    if blanks := [need for need in needs if isinstance(need, Blank)]:
        return blanks[0]
    try:
        return fn()
    except NonFiniteFieldError:
        raise  # fails the run, as a non-finite raster does
    except VortexTwmError as why:
        return Blank(why)


def field_metrics(name: str, peak: float, ring, radius, amps, m: int):
    """Observable row and ring profile (None without amps) of one field.

    peak is its radial_max, ring its brightest ring, radius its metric ring, amps its
    {k: R_k} there, or the Blank of that read, and m the profile's sample count.  An
    undefined value is a Blank; a blank amps is the value of the ring's three metrics.
    """
    profile = None if isinstance(amps, Blank) else analysis.azimuthal_profile(radius, amps, m)
    petals = amps if profile is None else analysis.petal_count(profile)
    winding = _metric_or_blank(lambda: analysis.winding_number(peak, amps), amps)
    angle = _metric_or_blank(lambda: analysis.peak_angle(profile), amps)
    return dict(zip(METRIC_COLUMNS, (name, radius, winding, petals, angle, ring))), profile


def file_sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def write_manifest(out_dir, payload: dict, paths, listed=()) -> dict:
    """Attach size and digest of each written path and write manifest.json.

    paths are the files this run wrote under out_dir; they are listed by
    path relative to out_dir, sorted, so the manifest is deterministic.
    listed are entries already digested, their paths relative to out_dir.
    """
    out_dir = Path(out_dir)
    files = list(listed)
    for path in paths:
        path = Path(path)
        rel = path.relative_to(out_dir).as_posix()
        files.append({"path": rel, "bytes": path.stat().st_size, "sha256": file_sha256(path)})
    payload = {**payload, "files": sorted(files, key=lambda e: e["path"])}
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    (out_dir / "manifest.json").write_text(text, encoding="utf-8")
    return payload


def run_config(cfg: RunConfig, out_dir) -> dict:
    """Run one configuration into out_dir; returns the manifest payload."""
    return write_products(cfg, out_dir, analyse(cfg))


def analyse(cfg: RunConfig) -> dict:
    """field_metrics (row, profile) of each output field of cfg, keyed by name.

    Only cfg's closed form is read: the six fields' rings together, afresh at each read,
    once at the radii that ring_radius scans and once per distinct metric ring (a scalar).
    A field's peak is its radial_max over both.  A failed read or step leaves a Blank, also
    the value of every cell that needs its result; a non-finite read raises.
    """
    rings = propagation.output_rings(cfg.medium, cfg.control, cfg.probe_p, cfg.probe_s)
    radii = analysis.scan_radii(cfg.grid)
    scan = _metric_or_blank(lambda: rings(radii))
    reads, analysed = {}, {}  # metric ring -> the rings there, or the Blank of that read
    for name in OUTPUT_NAMES:
        peak = 0.0 if isinstance(scan, Blank) else analysis.radial_max(scan[name])
        ring = _metric_or_blank(lambda: analysis.ring_radius(peak, radii, scan[name]), scan)
        radius = ring if cfg.analysis.radius == "auto" else cfg.analysis.radius
        if not (isinstance(radius, Blank) or radius in reads):
            reads[radius] = _metric_or_blank(lambda: rings(radius))
        amps = _metric_or_blank(lambda: reads[radius][name], radius, reads.get(radius))
        peak = peak if isinstance(amps, Blank) else max(peak, analysis.radial_max(amps))
        analysed[name] = field_metrics(name, peak, ring, radius, amps, cfg.analysis.m)
    return analysed


def write_products(cfg: RunConfig, out_dir, analysed) -> dict:
    """Write cfg's products from analysed = analyse(cfg), painting the fields for PAINTED ones."""
    fields = {} if PAINTED.isdisjoint(cfg.outputs) else compute_fields(cfg)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written, made = [], {""}

    def target(subdir: str, name: str) -> Path:
        if subdir not in made:
            (out_dir / subdir).mkdir(exist_ok=True)
            made.add(subdir)
        written.append(out_dir / subdir / name)
        return written[-1]

    if "fields" in cfg.outputs:
        for name, fld in fields.items():
            render.write_field_csv(fld, target("fields", f"{name}.csv"))

    if "images" in cfg.outputs:
        for name, fld in fields.items():
            render.write_intensity_pgm(fld, target("images", f"{name}_intensity.pgm"))
            render.write_phase_ppm(fld, target("images", f"{name}_phase.ppm"))

    if "profiles" in cfg.outputs:
        for name, (_row, profile) in analysed.items():
            if profile is not None:
                render.write_profile_csv(profile, target("profiles", f"{name}_profile.csv"))

    if "metrics" in cfg.outputs:
        rows = [row for row, _profile in analysed.values()]
        render.write_metrics_csv(rows, METRIC_COLUMNS, target("", "metrics.csv"))

    return write_manifest(out_dir, {"config": config_to_dict(cfg)}, written)
