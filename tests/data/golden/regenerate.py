"""Write the golden products that tests/test_golden.py compares against.

Nine runs cover every product kind: both bundled configs with every
product, the four figure presets, and three sweeps of
configs/interference.json (delta, lc and amp).  Each run's top-level
manifest.json lists the size and SHA-256 of every file it wrote; those
manifests, the text of `verify --level fast` and the environment that
produced them (Python, numpy, machine) are the goldens.

Run it only for an intended change of product bytes, with the package
importable (installed, or PYTHONPATH=src):

    python3 tests/data/golden/regenerate.py
"""
from __future__ import annotations

import io
import json
import platform
import tempfile
from pathlib import Path

import numpy as np

from vortex_twm import load_config, reproduce_figure, run_config, run_sweep, run_verify
from vortex_twm.verify import print_report

HERE = Path(__file__).resolve().parent
CONFIGS = HERE.parents[2] / "configs"
SWEEPS = {"delta": (-3, 0, 3), "lc": (-1, 2), "amp": (0.5, 2)}
VERIFY_REPORT = "verify_fast.txt"
ENVIRONMENT = "environment.json"


def environment() -> dict:
    """What the digests depend on besides the code: numpy's float kernels."""
    return {
        "machine": platform.machine(),
        "numpy": np.__version__,
        "python": platform.python_version(),
    }


def generate(out_dir) -> dict[str, bytes]:
    """Run every golden case under out_dir; returns golden file name -> bytes."""
    out_dir = Path(out_dir)
    runs = []
    for config in ("transfer", "interference"):
        runs.append(f"run_{config}")
        run_config(load_config(CONFIGS / f"{config}.json"), out_dir / runs[-1])
    for fig_id in ("fig3", "fig4", "fig5", "fig6"):
        runs.append(fig_id)
        reproduce_figure(fig_id, out_dir / fig_id)
    base = load_config(CONFIGS / "interference.json")
    for param, values in SWEEPS.items():
        runs.append(f"sweep_{param}")
        run_sweep(base, param, values, out_dir / runs[-1])
    golden = {f"{name}.manifest.json": (out_dir / name / "manifest.json").read_bytes() for name in runs}
    report = io.StringIO()
    print_report(run_verify("fast"), report)
    golden[VERIFY_REPORT] = report.getvalue().encode("utf-8")
    golden[ENVIRONMENT] = (json.dumps(environment(), indent=2, sort_keys=True) + "\n").encode()
    return golden


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        for name, data in generate(tmp).items():
            (HERE / name).write_bytes(data)
            print(f"wrote {name} ({len(data)} B)")


if __name__ == "__main__":
    main()
