"""Execute one configured run and write its products plus a manifest.

A run samples the three input beams, propagates both channels, composes
the resultant output fields, and writes the requested products:

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

from . import analysis, render
from .beams import ComplexField, make_grid, sample_lg
from .config import RunConfig, config_to_dict
from .errors import VortexTwmError
from .propagation import output_fields

__all__ = [
    "run_config",
    "compute_fields",
    "write_products",
    "field_metrics",
    "analyse",
    "write_manifest",
]

METRIC_COLUMNS = ("field", "radius", "winding", "petal_count", "peak_angle", "ring_radius")


def compute_fields(cfg: RunConfig) -> dict[str, ComplexField]:
    """Sample inputs, propagate, and return the six named output fields."""
    grid = make_grid(cfg.grid.n, cfg.grid.extent)
    control = sample_lg(cfg.control, grid)
    probe_p = sample_lg(cfg.probe_p, grid)
    probe_s = sample_lg(cfg.probe_s, grid)
    return output_fields(cfg.medium, control, probe_p, probe_s)


def _metric_or_blank(fn):
    try:
        return fn()
    except VortexTwmError:
        return ""


def field_metrics(
    name: str, field: ComplexField, cfg: RunConfig
) -> tuple[dict, analysis.AzimuthalProfile | None]:
    """Observable row and ring profile (None without a ring) of one field.

    Blanks mark undefined observables.  The brightest ring is found once:
    it is the ring_radius column and, unless analysis.radius pins one, the
    sampling ring.
    """
    ring = _metric_or_blank(lambda: analysis.ring_radius(field))
    radius = ring if cfg.analysis.radius == "auto" else cfg.analysis.radius
    row = dict.fromkeys(METRIC_COLUMNS, "")
    row.update(field=name, radius=radius, ring_radius=ring)
    if radius == "":
        return row, None
    profile = _metric_or_blank(lambda: analysis.azimuthal_profile(field, radius, cfg.analysis.m))
    if profile == "":
        return row, None
    row["winding"] = _metric_or_blank(lambda: analysis.winding_number(field, radius))
    row["petal_count"] = _metric_or_blank(lambda: analysis.petal_count(profile))
    row["peak_angle"] = _metric_or_blank(lambda: analysis.peak_angle(profile))
    return row, profile


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
    fields = compute_fields(cfg)
    return write_products(cfg, out_dir, fields, analyse(cfg, fields))


def analyse(cfg: RunConfig, fields: dict[str, ComplexField]) -> dict:
    """field_metrics (row, profile) of every computed field, keyed by name."""
    return {name: field_metrics(name, field, cfg) for name, field in fields.items()}


def write_products(cfg: RunConfig, out_dir, fields: dict[str, ComplexField], analysed) -> dict:
    """Write the requested products of computed fields, analysed = analyse(cfg, fields)."""
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
