"""End-to-end acceptance gate.

Each test below checks one headline behaviour of the package at its
stated tolerance: closed-form/numeric agreement, steady-state kernel
consistency, topological-charge bookkeeping, the anti-phased crescent
pair, detuning-driven counter-rotation and suppression, the petal law,
the randomized property suites, and byte-level determinism of the CLI.
conftest.py prints one PASS/FAIL line per criterion in the terminal
summary, keyed off the test_criterion_NN_* names.
"""

import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from vortex_twm.analysis import (
    azimuthal_profile,
    peak_angle,
    petal_count,
    ring_radius,
    winding_number,
)
from vortex_twm.config import AnalysisSpec, GridSpec, LGBeamSpec, MediumParams, RunConfig
from vortex_twm.propagation import (
    integrate_channel_numeric,
    solve_channel_p,
    solve_channel_s,
)
from vortex_twm.runner import compute_fields
from vortex_twm.verify import (
    beta_branch_error,
    channel_oracle_error,
    decoupled_limit_error,
    lossless_error,
    probe_linearity_error,
    steady_evolution_error,
    steady_kernel_error,
)

SRC = str(Path(__file__).resolve().parents[1] / "src")
EXTENT = 3.0
PROBE_EPS = 0.005
CONTROL_EPS = 4.0


def _node_radius(n, target):
    # The figure presets' ring: target snapped to a whole number of grid steps.
    step = 2.0 * EXTENT / (n - 1)
    return step * round(target / step)


def _wrap_pi(a):
    return (a + math.pi) % (2.0 * math.pi) - math.pi


def _run_case(medium, lc, lp, ls, n=256, radius="auto"):
    cfg = RunConfig(
        medium=medium,
        control=LGBeamSpec(epsilon=CONTROL_EPS, tc=lc),
        probe_p=LGBeamSpec(epsilon=PROBE_EPS, tc=lp),
        probe_s=LGBeamSpec(epsilon=PROBE_EPS, tc=ls),
        grid=GridSpec(n=n),
        analysis=AnalysisSpec(radius=radius),
    )
    return compute_fields(cfg)


# ---------------------------------------------------------------- C1


def test_criterion_01_oracle_equivalence():
    """Closed form matches a 1e4-step RK4 integration pixel for pixel."""
    t0 = time.perf_counter()
    err = channel_oracle_error(n=128, steps=10_000)
    elapsed = time.perf_counter() - t0
    assert err <= 1e-7, f"max per-pixel relative error {err:.3e}"
    assert elapsed < 30.0, f"oracle comparison took {elapsed:.1f}s"

    # Scalar cross-check at the canonical operating point with the
    # control held at its peak amplitude.
    p = MediumParams(gamma31=1.0, gamma21=0.05, delta=0.0, d=100.0)
    ctrl = complex(CONTROL_EPS)
    for solver, channel in ((solve_channel_s, "s"), (solve_channel_p, "p")):
        exact = solver(p, ctrl, PROBE_EPS, p.length)
        num = integrate_channel_numeric(p, ctrl, PROBE_EPS, channel, steps=10_000)
        scale = max(abs(exact.primary), abs(exact.generated))
        assert abs(exact.primary - num.primary) / scale <= 1e-7
        assert abs(exact.generated - num.generated) / scale <= 1e-7


# ---------------------------------------------------------------- C2


def test_criterion_02_steady_state_kernel():
    """Susceptibility kernels null the steady-state optical Bloch system
    and time evolution relaxes onto them."""
    kernel = steady_kernel_error(trials=100)
    assert kernel <= 1e-12, f"steady-state residual {kernel:.3e}"
    evolved = steady_evolution_error(trials=100)
    assert evolved <= 1e-8, f"time-evolution mismatch {evolved:.3e}"


# ---------------------------------------------------------- C3 / C4


@pytest.fixture(scope="module")
def charge_transfer():
    """Output fields for a span of control charges, flat probes."""
    medium = MediumParams(gamma31=1.0, gamma21=0.05, delta=0.0, d=100.0)
    return {
        lc: _run_case(medium, lc=lc, lp=0, ls=0)
        for lc in (-2, -1, 1, 2, 3)
    }


def test_criterion_03_charge_transfer(charge_transfer):
    """Sum-frequency output inherits the control charge, the
    difference-frequency output inherits its negative."""
    for lc, fields in charge_transfer.items():
        assert winding_number(fields["omega_fs"]) == lc
        assert winding_number(fields["omega_fp"]) == -lc


def test_criterion_04_ring_growth(charge_transfer):
    """Bright-ring radius of both generated fields grows with |charge|."""
    rad_fs = [ring_radius(charge_transfer[lc]["omega_fs"]) for lc in (1, 2, 3)]
    rad_fp = [ring_radius(charge_transfer[lc]["omega_fp"]) for lc in (1, 2, 3)]
    assert rad_fs[0] < rad_fs[1] < rad_fs[2], rad_fs
    assert rad_fp[0] < rad_fp[1] < rad_fp[2], rad_fp


# ---------------------------------------------------------------- C5


def test_criterion_05_anti_phased_crescents():
    """Matched charge-1 beams on resonance: the two resultant outputs
    peak pi apart and their total intensity is ring-uniform."""
    n = 257
    medium = MediumParams(gamma31=1.0, gamma21=0.05, delta=0.0, d=8.0)
    ring = _node_radius(n, math.sqrt(0.5))
    fields = _run_case(medium, lc=1, lp=1, ls=1, n=n, radius=ring)

    prof_d = azimuthal_profile(fields["omega_d"], ring)
    prof_u = azimuthal_profile(fields["omega_u"], ring)
    gap = (peak_angle(prof_d) - peak_angle(prof_u)) % (2.0 * math.pi)
    assert abs(gap - math.pi) <= 0.01, f"crescent separation {gap:.4f}"

    # Every exact-radius pixel class must carry the same summed power.
    # Group by rounded r^2: inter-class gaps are >= step^2 ~ 5.5e-4, so
    # a 1e-10 quantum never merges distinct rings.
    grid = fields["omega_d"].grid
    total = (
        np.abs(fields["omega_d"].values) ** 2
        + np.abs(fields["omega_u"].values) ** 2
    ).ravel()
    keys = np.round((grid.x**2 + grid.y**2).ravel(), 10)
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    total = total[order]
    starts = np.r_[0, np.flatnonzero(np.diff(keys)) + 1]
    stops = np.r_[starts[1:], keys.size]
    worst = 0.0
    for lo, hi in zip(starts, stops):
        seg = total[lo:hi]
        spread = float(seg.max() - seg.min())
        if spread == 0.0:
            continue
        worst = max(worst, spread / float(seg.mean()))
    assert worst <= 1e-9, f"ring ripple {worst:.3e}"


# ---------------------------------------------------------- C6 / C7


DETUNINGS = (-9.0, -6.0, -3.0, 0.0, 3.0, 6.0, 9.0)


@pytest.fixture(scope="module")
def detuning_sweep():
    """Peak angle and angular spread of both outputs across detuning."""
    n = 257
    ring = _node_radius(n, math.sqrt(0.5))
    rows = []
    for delta in DETUNINGS:
        medium = MediumParams(gamma31=1.0, gamma21=0.05, delta=delta, d=8.0)
        fields = _run_case(medium, lc=1, lp=1, ls=1, n=n, radius=ring)
        prof_d = azimuthal_profile(fields["omega_d"], ring)
        prof_u = azimuthal_profile(fields["omega_u"], ring)
        rows.append(
            {
                "delta": delta,
                "peak_d": peak_angle(prof_d),
                "peak_u": peak_angle(prof_u),
                "spread_d": float(np.ptp(prof_d.intensities)),
                "spread_u": float(np.ptp(prof_u.intensities)),
            }
        )
    return rows


def test_criterion_06_counter_rotation(detuning_sweep):
    """Sweeping detuning rotates the two crescents in opposite senses."""
    for prev, cur in zip(detuning_sweep, detuning_sweep[1:]):
        move_d = _wrap_pi(cur["peak_d"] - prev["peak_d"])
        move_u = _wrap_pi(cur["peak_u"] - prev["peak_u"])
        assert move_d * move_u < 0.0, (
            f"delta {prev['delta']}->{cur['delta']}: "
            f"moves {move_d:+.4f}, {move_u:+.4f}"
        )


def test_criterion_07_detuning_suppression(detuning_sweep):
    """Large detuning flattens the interference pattern."""
    by_delta = {row["delta"]: row for row in detuning_sweep}
    for key in ("spread_d", "spread_u"):
        on_res = by_delta[0.0][key]
        assert by_delta[-9.0][key] < on_res, key
        assert by_delta[9.0][key] < on_res, key


# ---------------------------------------------------------------- C8


def test_criterion_08_petal_law():
    """Charge-mismatched mixing makes |lc| petals, and the two outputs'
    petal combs interleave by half a period."""
    n = 1025
    ring = _node_radius(n, math.sqrt(0.5))
    for lc in (2, 3, 4):
        medium = MediumParams(gamma31=1.0, gamma21=0.05, delta=0.0, d=4.0)
        fields = _run_case(medium, lc=lc, lp=1, ls=1, n=n, radius=ring)
        prof_d = azimuthal_profile(fields["omega_d"], ring)
        prof_u = azimuthal_profile(fields["omega_u"], ring)
        assert petal_count(prof_d) == lc
        assert petal_count(prof_u) == lc
        # Peak picking is arbitrary among identical petals, so compare
        # offsets modulo the petal period.
        period = 2.0 * math.pi / lc
        gap = (peak_angle(prof_d) - peak_angle(prof_u)) % period
        err = abs(gap - period / 2.0)
        assert err <= 0.02, f"lc={lc}: interleave off by {err:.4f}"


# ---------------------------------------------------------------- C9


def test_criterion_09_property_suites():
    """Randomized invariants: branch safety of the oscillation rate,
    lossless power flow, probe linearity, decoupled exponentials."""
    assert beta_branch_error(trials=200) <= 1e-12
    assert lossless_error(trials=200) <= 1e-10
    assert probe_linearity_error(trials=200) <= 1e-12
    assert decoupled_limit_error(trials=200) <= 1e-12


# --------------------------------------------------------------- C10


# the CLI with os.cpu_count patched, which sizes the cell thread pool
_CLI_ON_CPUS = (
    "import os, sys; os.cpu_count = lambda: {cpus}; "
    "from vortex_twm import cli; sys.exit(cli.main(sys.argv[1:]))"
)


def _cli(args, env, timeout=300, cpus=None):
    entry = ["-m", "vortex_twm"] if cpus is None else ["-c", _CLI_ON_CPUS.format(cpus=cpus)]
    # the child imports the package from this checkout, installed or not
    env = {**env, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))}
    return subprocess.run(
        [sys.executable, *entry, *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=timeout,
    )


def _tree_bytes(root):
    out = {}
    for path in sorted(root.rglob("*")):
        if path.is_file():
            out[str(path.relative_to(root))] = path.read_bytes()
    return out


def test_criterion_10_determinism(tmp_path):
    """Repeated figure runs are byte-identical regardless of worker
    count, and the fast self-check passes quickly."""
    trees = []
    for label, cpus in (("a", 2), ("b", 1)):
        out = tmp_path / label
        res = _cli(["figure", "fig4", "--out", str(out)], dict(os.environ), cpus=cpus)
        assert res.returncode == 0, res.stderr
        trees.append(_tree_bytes(out))
    assert trees[0].keys() == trees[1].keys()
    diff = [k for k in trees[0] if trees[0][k] != trees[1][k]]
    assert not diff, f"files differ between runs: {diff}"

    env = dict(os.environ)
    t0 = time.perf_counter()
    res = _cli(["verify", "--level", "fast"], env, timeout=120)
    elapsed = time.perf_counter() - t0
    assert res.returncode == 0, res.stderr
    assert elapsed < 60.0, f"fast verify took {elapsed:.1f}s"
