"""Output checks for the benchmark workloads.

Every check compares a product against a computation made here, apart
from the package, or against a property the method must have. None
compares against a stored copy of earlier output. Each function returns
a list of failure messages; an empty list means the iteration passed.
"""
from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import re
from pathlib import Path

import numpy as np

FIELD_NAMES = ("omega_d", "omega_u", "omega_fp", "omega_fs", "omega_s", "omega_p")
FIELD_TOL = 1e-9      # max |csv - reference| / max |csv| over the subsample
ANTI_PHASE_TOL = 0.01  # rad, crescent separation on resonance
SUBSAMPLE = 256       # pixels per field checked against the reference
_PNM_HEADER = re.compile(rb"(P[56])\s+(\d+)\s+(\d+)\s+(\d+)\s")

# The tolerances `verify` must meet, kept here so that loosening one in
# the package does not loosen the benchmark.
VERIFY_TOLERANCES = {
    "channel_oracle": 1e-7,
    "steady_kernel": 1e-12,
    "steady_evolution": 1e-8,
    "beta_branch": 1e-12,
    "decoupled_limits": 1e-12,
    "lossless": 1e-10,
    "probe_linearity": 1e-12,
    "sum_ripple": 1e-9,
    "anti_phase_peaks": 0.01,
}


# ------------------------------------------------------------ reference


def _lg(beam: dict, r: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """eps (r/w)^|l| exp(-(r/w)^2) exp(i l theta), as the README defines it."""
    rho = r / beam.get("waist", 1.0)
    tc = beam["tc"]
    return beam["epsilon"] * rho ** abs(tc) * np.exp(-rho * rho) * np.exp(1j * tc * theta)


def _expm2(a: np.ndarray) -> np.ndarray:
    """exp of a stack of 2x2 complex matrices by scaling and squaring."""
    norm = np.abs(a).sum(axis=-1).max(axis=-1)
    squarings = np.maximum(0, np.ceil(np.log2(np.maximum(norm, 1e-300) / 0.25))).astype(int)
    b = a / (2.0 ** squarings)[:, None, None]
    term = np.broadcast_to(np.eye(2, dtype=complex), a.shape).copy()
    total = term.copy()
    for k in range(1, 19):
        term = term @ b / k
        total = total + term
    for s in range(int(squarings.max())):
        more = squarings > s
        total[more] = total[more] @ total[more]
    return total


def reference_fields(config: dict, rows: np.ndarray, cols: np.ndarray) -> dict:
    """The six output fields at grid pixels (rows, cols) of a run config.

    Each channel's coupled-amplitude system, as stated in the docstring of
    ``vortex_twm.propagation``, is a 2x2 matrix A per pixel; the state
    after the medium length L is exp(A L) applied to (probe, 0).
    """
    med, grid = config["medium"], config["grid"]
    axis = np.linspace(-grid["extent"], grid["extent"], grid["n"])
    x, y = axis[cols], axis[rows]
    r, theta = np.hypot(x, y), np.arctan2(y, x)
    c = _lg(config["control"], r, theta)
    p0 = _lg(config["probe_p"], r, theta)
    s0 = _lg(config["probe_s"], r, theta)
    g31, g21, delta, d, length = (med[k] for k in ("gamma31", "gamma21", "delta", "d", "length"))
    y_den = g21 * (g31 + 1j * delta) + 0.25 * np.abs(c) ** 2
    pre = 0.5j * d / length / y_den
    slow, fast = 0.5j * g21 * pre, 0.5j * (g31 + 1j * delta) * pre

    def channel(a11, a12, a21, a22, b0):
        a = np.stack([np.stack([a11, a12], -1), np.stack([a21, a22], -1)], -2) * length
        state = _expm2(a)[:, :, 0] * b0[:, None]
        return state[:, 0], state[:, 1]

    omega_s, omega_fp = channel(slow, -0.25 * c * pre, -0.25 * np.conj(c) * pre, fast, s0)
    omega_p, omega_fs = channel(fast, -0.25 * np.conj(c) * pre, -0.25 * c * pre, slow, p0)
    return {
        "omega_d": p0 + omega_fp,
        "omega_u": s0 + omega_fs,
        "omega_fp": omega_fp,
        "omega_fs": omega_fs,
        "omega_s": omega_s,
        "omega_p": omega_p,
    }


def pixel_subsample(n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """SUBSAMPLE distinct pixels of an n x n grid, drawn from the seed."""
    flat = np.random.default_rng(seed).choice(n * n, size=min(SUBSAMPLE, n * n), replace=False)
    return flat // n, flat % n


# ------------------------------------------------------------ products


def _read_metrics(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _manifest_errors(run_dir: Path) -> list[str]:
    """manifest.json lists exactly the files on disk with their digests."""
    manifest = json.loads((run_dir / "manifest.json").read_text(encoding="utf-8"))
    listed = {e["path"]: e for e in manifest["files"]}
    on_disk = set()
    for root, _dirs, names in os.walk(run_dir):
        for name in names:
            on_disk.add((Path(root) / name).relative_to(run_dir).as_posix())
    on_disk.discard("manifest.json")
    errors = []
    if set(listed) != on_disk:
        errors.append(f"{run_dir.name}: manifest lists {sorted(set(listed) ^ on_disk)} wrongly")
    for rel in sorted(on_disk & set(listed)):
        data = (run_dir / rel).read_bytes()
        entry = listed[rel]
        if entry["bytes"] != len(data) or entry["sha256"] != hashlib.sha256(data).hexdigest():
            errors.append(f"{run_dir.name}: manifest entry of {rel} does not match the file")
    return errors


def _image_errors(run_dir: Path, n: int) -> list[str]:
    """Every PGM/PPM has an n x n header and a payload of that size."""
    errors = []
    for path in sorted((run_dir / "images").iterdir()):
        data = path.read_bytes()
        head = _PNM_HEADER.match(data)
        depth = {b"P5": 1, b"P6": 3}.get(head.group(1)) if head else None
        if depth is None or head.group(2, 3, 4) != (b"%d" % n, b"%d" % n, b"255"):
            errors.append(f"{path.name}: header {data[:16]!r} is not an {n}x{n} image")
        elif len(data) - head.end() != depth * n * n:
            errors.append(f"{path.name}: payload of {len(data) - head.end()} bytes for {n}x{n}")
    return errors


def _charge_errors(run_dir: Path, rows: list[dict]) -> list[str]:
    """omega_fs winds lc + lp and omega_fp winds ls - lc (charge conservation)."""
    config = json.loads((run_dir / "manifest.json").read_text(encoding="utf-8"))["config"]
    lc, lp, ls = (config[k]["tc"] for k in ("control", "probe_p", "probe_s"))
    want = {"omega_fs": lc + lp, "omega_fp": ls - lc}
    got = {r["field"]: r["winding"] for r in rows if r["field"] in want}
    return [
        f"{run_dir.name}: {name} winds {got.get(name)!r}, want {charge}"
        for name, charge in want.items()
        if got.get(name) != str(charge)
    ]


def check_run_full(run_dir: Path, config: dict, seed: int) -> list[str]:
    """Fields against the independent reference, charges, manifest, images."""
    n = config["grid"]["n"]
    axis = np.linspace(-config["grid"]["extent"], config["grid"]["extent"], n)
    rows, cols = pixel_subsample(n, seed)
    ref = reference_fields(config, rows, cols)
    errors = []
    for name in FIELD_NAMES:
        data = np.loadtxt(run_dir / "fields" / f"{name}.csv", delimiter=",", skiprows=1, ndmin=2)
        if data.shape != (n * n, 4):
            errors.append(f"{name}.csv has shape {data.shape}, want ({n * n}, 4)")
            continue
        on_grid = np.array_equal(data[:, 0], np.tile(axis, n)) and np.array_equal(
            data[:, 1], np.repeat(axis, n)
        )
        if not on_grid:
            errors.append(f"{name}.csv: x,y columns are not the grid in row-major order")
        values = data[:, 2] + 1j * data[:, 3]
        scale = float(np.max(np.abs(values)))
        err = float(np.max(np.abs(values[rows * n + cols] - ref[name]))) / scale
        if not err <= FIELD_TOL:
            errors.append(f"{name}: relative deviation {err:.3e} from the reference > {FIELD_TOL}")
    errors += _charge_errors(run_dir, _read_metrics(run_dir / "metrics.csv"))
    errors += _manifest_errors(run_dir)
    errors += _image_errors(run_dir, n)
    return errors


# ------------------------------------------------------------- figures


def _wrap_pi(a: float) -> float:
    return (a + math.pi) % (2.0 * math.pi) - math.pi


def _crescent_errors(fig: str, table: list[dict]) -> list[str]:
    """Anti-phase on resonance, counter-rotation, suppression at |delta| = 9."""
    by_delta = {float(r["delta"]): r for r in table}
    errors = []
    on_res = by_delta[0.0]
    gap = (float(on_res["peak_d"]) - float(on_res["peak_u"])) % (2.0 * math.pi)
    if not abs(gap - math.pi) <= ANTI_PHASE_TOL:
        errors.append(f"{fig}: crescents {gap:.4f} rad apart on resonance, want pi")
    for prev, cur in zip(table, table[1:]):
        move_d = _wrap_pi(float(cur["peak_d"]) - float(prev["peak_d"]))
        move_u = _wrap_pi(float(cur["peak_u"]) - float(prev["peak_u"]))
        if not move_d * move_u < 0.0:
            errors.append(
                f"{fig}: delta {prev['delta']}->{cur['delta']} moves {move_d:+.4f}, {move_u:+.4f}"
            )
    for key in ("spread_d", "spread_u"):
        for delta in (-9.0, 9.0):
            if not float(by_delta[delta][key]) < float(on_res[key]):
                errors.append(f"{fig}: {key} at delta {delta:g} not below resonance")
    return errors


def check_figure(fig: str, fig_dir: Path) -> list[str]:
    manifest = json.loads((fig_dir / "manifest.json").read_text(encoding="utf-8"))
    table = _read_metrics(fig_dir / "metrics.csv")
    errors = _manifest_errors(fig_dir)
    for cell in manifest["cells"]:
        errors += _charge_errors(fig_dir / cell, _read_metrics(fig_dir / cell / "metrics.csv"))
    if fig in ("fig3", "fig6"):
        for row in table:
            lc = int(row["lc"])
            lp = ls = 0 if fig == "fig3" else 1
            if (row["winding_fs"], row["winding_fp"]) != (str(lc + lp), str(ls - lc)):
                errors.append(
                    f"{fig} lc={lc}: windings fs={row['winding_fs']!r} fp={row['winding_fp']!r}"
                )
    if fig == "fig3":
        for key in ("ring_fp", "ring_fs"):
            radii = [float(r[key]) for r in table]
            if not all(a < b for a, b in zip(radii, radii[1:])):
                errors.append(f"fig3: {key} {radii} does not grow with lc")
    elif fig in ("fig4", "fig5"):
        errors += _crescent_errors(fig, table)
    elif fig == "fig6":
        for row in table:
            if not row["petal_d"] == row["petal_u"] == row["lc"]:
                errors.append(
                    f"fig6 lc={row['lc']}: petals d={row['petal_d']!r} u={row['petal_u']!r}"
                )
    return errors


def manifest_bytes(out_dir: Path) -> dict:
    """Every manifest.json under out_dir, by relative path."""
    paths = sorted(out_dir.rglob("manifest.json"))
    return {p.relative_to(out_dir).as_posix(): p.read_bytes() for p in paths}


# -------------------------------------------------------------- verify


def check_verify(results) -> list[str]:
    got = {r.name: r.max_error for r in results}
    if set(got) != set(VERIFY_TOLERANCES):
        return [f"verify ran suites {sorted(got)}, want {sorted(VERIFY_TOLERANCES)}"]
    return [
        f"verify {name}: max error {got[name]:.3e} > {tol:.0e}"
        for name, tol in VERIFY_TOLERANCES.items()
        if not got[name] <= tol
    ]
