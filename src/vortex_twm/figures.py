"""Figure presets: the four standard output suites.

Each preset runs a small matrix of configurations into per-cell
directories under the output directory, then writes a figure-level
metrics CSV and a manifest covering every file.  Free parameter choices
(which charges are swept, the interference depth, grid sizes, the
measurement ring) are fixed here and echoed through each cell's manifest,
so every preset is reproducible bit for bit.

Preset design notes:

* fig3 uses the canonical deep-medium configuration (d = 100) with flat
  probes; the generated fields there carry the transferred charges and
  their rings, which is all this preset measures.
* fig4/fig5/fig6 study interference between a probe and its generated
  partner, so they lower d (8 for the crescent suites, 4 for the petal
  suite).  At d = 100 the surviving generated amplitude is ~1e-7 of the
  probe and the azimuthal modulation would sit below measurement floors.
* fig4/fig5/fig6 read their angle metrics on a pinned ring near the
  probe ring, the same ring in every cell, so the tables compare like
  with like; the ring and the odd grid size are product inputs echoed in
  each manifest.
"""
from __future__ import annotations

import math
from dataclasses import replace
from pathlib import Path

from ._parallel import map_items
from .config import RunConfig, default_config
from .errors import InvalidConfigError, real
from .render import write_metrics_csv
from .runner import METRIC_COLUMNS, analyse, compute_fields, write_manifest, write_products

__all__ = ["reproduce_figure", "run_sweep", "DETUNING_SWEEP", "FIGURE_IDS", "SWEEP_PARAMS"]

DETUNING_SWEEP = (-9.0, -6.0, -3.0, 0.0, 3.0, 6.0, 9.0)

CRESCENT_DEPTH = 8.0
PETAL_DEPTH = 4.0

ANGLE_GRID_N = 257  # odd, so the grid samples the beam axis


def _pinned_radius(n: int, extent: float, charge: int = 1, waist: float = 1.0) -> float:
    """Measurement ring snapped to an integer multiple of the grid step.

    Targets the probe ring radius waist*sqrt(|charge|/2).  Ring samples are
    exact at any radius; the snapped values are kept because the presets'
    products and manifests record them.
    """
    step = 2.0 * extent / (n - 1)
    return step * round(waist * math.sqrt(abs(charge) / 2.0) / step)


def _interference_base(depth: float, outputs) -> RunConfig:
    """Unit-charge interference cell on the pinned ring, resonant, at depth d."""
    base = default_config()
    return replace(
        base,
        medium=replace(base.medium, d=depth),
        probe_p=replace(base.probe_p, tc=1),
        probe_s=replace(base.probe_s, tc=1),
        grid=replace(base.grid, n=ANGLE_GRID_N),
        outputs=tuple(outputs),
        analysis=replace(base.analysis, radius=_pinned_radius(ANGLE_GRID_N, base.grid.extent)),
    )


def _figure_rows(analysed):
    """Yield the one figure-table row of a cell, selected from its field_metrics rows."""
    (d, prof_d), (u, prof_u) = analysed["omega_d"], analysed["omega_u"]
    fp, fs = analysed["omega_fp"][0], analysed["omega_fs"][0]
    yield {
        "radius": d["radius"],
        "petal_d": d["petal_count"],
        "petal_u": u["petal_count"],
        "peak_d": d["peak_angle"],
        "peak_u": u["peak_angle"],
        "spread_d": float(prof_d.intensities.max() - prof_d.intensities.min()),
        "spread_u": float(prof_u.intensities.max() - prof_u.intensities.min()),
        "winding_fs": fs["winding"],
        "winding_fp": fp["winding"],
        "ring_fp": fp["ring_radius"],
        "ring_fs": fs["ring_radius"],
    }


# Each preset: (base config, swept param, values, table columns, notes).
_FIGURES = {
    "fig3": (
        replace(default_config(), outputs=("images", "metrics")),
        "lc", (1, 2, 3),
        ("lc", "winding_fs", "winding_fp", "ring_fp", "ring_fs"),
        "charge transfer to the generated fields, flat probes, d = 100",
    ),
    "fig4": (
        _interference_base(CRESCENT_DEPTH, ("images", "metrics")),
        "delta", DETUNING_SWEEP,
        ("delta", "radius", "petal_d", "petal_u", "peak_d", "peak_u", "spread_d", "spread_u"),
        "crescent rotation under detuning, unit charges, d = 8",
    ),
    "fig5": (
        _interference_base(CRESCENT_DEPTH, ("profiles", "metrics")),
        "delta", DETUNING_SWEEP,
        ("delta", "radius", "peak_d", "peak_u", "spread_d", "spread_u"),
        "azimuthal profiles versus detuning on a common ring, d = 8",
    ),
    "fig6": (
        _interference_base(PETAL_DEPTH, ("images", "metrics")),
        "lc", (2, 3, 4),
        ("lc", "radius", "petal_d", "petal_u", "peak_d", "peak_u",
         "winding_fp", "winding_fs", "ring_fp", "ring_fs"),
        "petal interference for control charges 2..4, unit probes, d = 4",
    ),
}
FIGURE_IDS = tuple(sorted(_FIGURES))


def reproduce_figure(fig_id: str, out_dir) -> dict:
    """Run one preset into out_dir; returns the manifest payload."""
    if fig_id not in _FIGURES:
        raise InvalidConfigError(f"unknown figure id {fig_id!r}, expected one of {FIGURE_IDS}")
    base, param, values, columns, notes = _FIGURES[fig_id]
    payload = {"figure": fig_id, "notes": notes}
    return _sweep(base, param, values, out_dir, payload, columns, _figure_rows)


SWEEP_PARAMS = ("delta", "lc", "amp")


def _sweep_cell(cfg: RunConfig, param: str, value: float) -> RunConfig:
    if param == "delta":
        return replace(cfg, medium=replace(cfg.medium, delta=value))
    if param == "lc":
        if not value.is_integer():
            raise InvalidConfigError(f"lc sweep values must be integers, got {value!r}")
        return replace(cfg, control=replace(cfg.control, tc=int(value)))
    return replace(cfg, control=replace(cfg.control, epsilon=value))


def _sweep_cells(cfg: RunConfig, param: str, values) -> list[tuple[str, RunConfig]]:
    """(label, config) per value of param over cfg, labelled param_{value:g}.

    Rejects an unknown param, an empty list, values whose labels collide
    and any invalid cell, before a cell runs: building a cell checks it.
    """
    if param not in SWEEP_PARAMS:
        raise InvalidConfigError(f"sweep param must be one of {SWEEP_PARAMS}, got {param!r}")
    if not values:
        raise InvalidConfigError("sweep needs at least one value")
    labels = {}
    for v in map(float, values):
        label = f"{param}_{v:g}"
        if label in labels:
            raise InvalidConfigError(
                f"sweep values {labels[label]!r} and {v!r} share the cell label {label!r}"
            )
        labels[label] = v
    return [(label, _sweep_cell(cfg, param, v)) for label, v in labels.items()]


def _sweep(cfg: RunConfig, param: str, values, out_dir, payload, columns, rows_of):
    """Run cfg across the values of param, cells in parallel, into out_dir/<label>.

    The top metrics.csv holds rows_of(analyse result) of each cell, led by
    its value; the manifest lists it and every cell file, reusing the size
    and digest that the cell's own manifest recorded.
    """
    cells = _sweep_cells(cfg, param, values)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    def work(cell):
        label, cell_cfg = cell
        fields = compute_fields(cell_cfg)
        analysed = analyse(cell_cfg, fields)
        cell_dir = out_dir / label
        manifest = write_products(cell_cfg, cell_dir, fields, analysed)
        return analysed, [{**e, "path": f"{label}/{e['path']}"} for e in manifest["files"]]

    done = map_items(work, cells)
    rows = [{param: v, **row} for (cell, _), v in zip(done, values) for row in rows_of(cell)]
    table = out_dir / "metrics.csv"
    write_metrics_csv(rows, columns, table)
    payload = {**payload, "cells": [label for label, _ in cells]}
    hashed = [*(out_dir / label / "manifest.json" for label, _ in cells), table]
    return write_manifest(out_dir, payload, hashed, [e for _, entries in done for e in entries])


def _field_rows(analysed):
    return (row for row, _profile in analysed.values())


def run_sweep(cfg: RunConfig, param: str, values, out_dir) -> dict:
    """Re-run one base config across a parameter axis.

    param selects the knob: the shared detuning (delta), the control beam
    charge (lc), or the control peak amplitude (amp).  Each value gets its
    own cell directory of products plus a row block in the sweep-level
    metrics table (one row per output field, long format).
    """
    values = [real("sweep values", v) for v in values]
    payload = {"sweep": {"param": param, "values": values}}
    columns = (param,) + METRIC_COLUMNS
    return _sweep(cfg, param, values, out_dir, payload, columns, _field_rows)
