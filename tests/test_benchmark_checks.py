"""The benchmark's field check, run on the package's fields in the tests.

benchmark/checks.py compares the fields a benchmark run writes against
its own reference, exp(A L) of each channel's 2x2 system per pixel, made
apart from the package.  The same comparison here, on the grid values and
on the order sums, makes a wrong field fail the tests before it fails a
benchmark run, as the verify tolerances stated there make a loosened one
fail them.  The benchmark file is only read.
"""
import importlib.util
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from vortex_twm.config import config_to_dict, load_config
from vortex_twm.propagation import output_rings
from vortex_twm.runner import compute_fields
from vortex_twm.verify import run_verify

ROOT = Path(__file__).resolve().parents[1]
CHECKS = ROOT / "benchmark" / "checks.py"


def _checks():
    spec = importlib.util.spec_from_file_location("benchmark_checks", CHECKS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _config(case: str):
    if case == "lc_-2":
        cfg = load_config(ROOT / "configs" / "interference.json")
        return replace(cfg, control=replace(cfg.control, tc=-2), probe_s=replace(cfg.probe_s, tc=0))
    return load_config(ROOT / "configs" / f"{case}.json")


@pytest.mark.parametrize("case", ["transfer", "interference", "lc_-2"])
def test_fields_and_order_sums_match_the_benchmark_reference(case):
    checks = _checks()
    cfg = _config(case)
    fields = compute_fields(cfg)
    rows, cols = checks.pixel_subsample(cfg.grid.n, 1)
    ref = checks.reference_fields(config_to_dict(cfg), rows, cols)
    grid = fields["omega_d"].grid
    r, theta = grid.r[rows, cols], grid.theta[rows, cols]
    # the closed form that the ring products read, at the subsample's radii
    rings = output_rings(cfg.medium, cfg.control, cfg.probe_p, cfg.probe_s)(r)
    for name in checks.FIELD_NAMES:
        field = fields[name]
        order_sum = sum(a * np.exp(1j * k * theta) for k, a in rings[name].items())
        scale = float(np.max(np.abs(field.values)))
        for got in (field.values[rows, cols], order_sum):
            err = float(np.max(np.abs(got - ref[name]))) / scale
            assert err <= checks.FIELD_TOL, (case, name, err)


def test_verify_runs_the_benchmark_suites_at_their_tolerances():
    # names, order and tolerances as the benchmark states them: one loosened in the package fails here
    got = [(r.name, r.tolerance) for r in run_verify("fast")]
    assert got == list(_checks().VERIFY_TOLERANCES.items())
