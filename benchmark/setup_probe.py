"""Set-up of a benchmark run: import vortex_twm from src/ and load configs.

Run as a script, it does the set-up in a fresh interpreter and prints
"ready" when done; run.py times that from outside to get ``setup_s``.
"""
from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_program():
    """Import the package from this checkout's src/, and from nowhere else."""
    package = ROOT / "src" / "vortex_twm"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no package at {package}")
    sys.path.insert(0, str(package.parent))
    import vortex_twm

    if Path(vortex_twm.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"benchmark: imported vortex_twm from {vortex_twm.__file__}")
    return vortex_twm


def load_configs(vortex_twm) -> dict:
    """Load and validate every bundled config document, by file name."""
    paths = sorted((ROOT / "configs").glob("*.json"))
    if not paths:
        raise SystemExit(f"benchmark: no config documents under {ROOT / 'configs'}")
    return {path.name: vortex_twm.load_config(path) for path in paths}


if __name__ == "__main__":
    load_configs(load_program())
    print("ready", flush=True)
