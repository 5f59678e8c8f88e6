"""Self-check suites: every closed form against an independent oracle.

Each suite returns its worst-case error; ``run_verify`` bundles them into a
report with fixed tolerances.  The suites are deliberately reusable with
larger trial counts (the acceptance tests call them directly), and every
randomized suite runs from a fixed seed so reports are reproducible.

The suites are sensitive by construction: corrupting any sign or factor in
the steady-state kernel, the closed-form channel solutions, or the output
composition flips at least one suite from ~1e-14 to order one.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .beams import GridSpec, LGBeamSpec, sample_lg
from .errors import InvalidConfigError, VerificationError
from .figures import CRESCENT_DEPTH, _interference_base
from .medium import (
    CoherencePair,
    MediumParams,
    beta_factor,
    evolve_coherences,
    steady_coherences,
    y_factor,
)
from .propagation import integrate_channel_numeric, solve_channel_p, solve_channel_s
from .runner import Blank, analyse, compute_fields

__all__ = ["SuiteResult", "run_verify", "print_report", "ensure_passing"]

SEED = 20260814


@dataclass(frozen=True)
class SuiteResult:
    name: str
    max_error: float
    tolerance: float

    @property
    def ok(self) -> bool:
        return self.max_error <= self.tolerance


def _rel_scale(*arrays) -> float:
    """Common normalization: the largest magnitude among all inputs."""
    return max(float(np.max(np.abs(a))) for a in arrays)


def channel_oracle_error(n: int, steps: int) -> float:
    """Closed-form channel solutions vs 4th-order numeric integration.

    Runs the canonical deep-medium cell on an n x n grid plus a small
    detuned shallow cell, both channels, and returns the worst relative
    deviation (normalized per channel by the largest field magnitude).
    """
    cells = [
        (MediumParams(1.0, 0.05, 0.0, 100.0), 1, 0, n, steps),
        (MediumParams(1.0, 0.3, 3.0, 8.0), 2, 1, 32, max(1000, steps // 4)),
    ]
    worst = 0.0
    for params, lc, lp, cell_n, cell_steps in cells:
        grid = GridSpec(cell_n, 3.0)
        control = sample_lg(LGBeamSpec(epsilon=4.0, tc=lc), grid).values
        b0 = sample_lg(LGBeamSpec(epsilon=0.005, tc=lp), grid).values
        for channel, solver in (("s", solve_channel_s), ("p", solve_channel_p)):
            analytic = solver(params, control, b0, params.length)
            numeric = integrate_channel_numeric(params, control, b0, channel, cell_steps)
            scale = _rel_scale(
                analytic.primary, analytic.generated, numeric.primary, numeric.generated, b0
            )
            err = max(
                float(np.max(np.abs(analytic.primary - numeric.primary))),
                float(np.max(np.abs(analytic.generated - numeric.generated))),
            )
            worst = max(worst, err / scale)
    return worst


def _draw_params(rng, lossless: bool = False) -> MediumParams:
    if lossless:
        return MediumParams(0.0, 0.0, 0.0, rng.uniform(2.0, 20.0))
    gamma21 = 10.0 ** rng.uniform(math.log10(0.05), 0.0)
    return MediumParams(1.0, gamma21, rng.uniform(-9.0, 9.0), rng.uniform(4.0, 100.0))


def _draw_complex(rng, scale: float = 1.0):
    return scale * complex(rng.normal(), rng.normal())


def _draw_control(rng, lo: float = 0.0, hi: float = 6.0) -> complex:
    return float(rng.uniform(lo, hi)) * np.exp(1j * rng.uniform(-np.pi, np.pi))


def steady_kernel_error(trials: int, seed: int = SEED) -> float:
    """Residual of the coherence equations of motion at the solved fixed point.

    Residuals are normalized by the largest term magnitude in each equation.
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        p = _draw_params(rng)
        c = _draw_control(rng)
        pp = _draw_complex(rng, 0.01)
        ps = _draw_complex(rng, 0.01)
        pair = steady_coherences(p, c, pp, ps)
        t1 = (-(p.gamma31 + 1j * p.delta) * pair.rho31, 0.5j * ps, 0.5j * c * pair.rho21)
        t2 = (-p.gamma21 * pair.rho21, 0.5j * pp, 0.5j * np.conj(c) * pair.rho31)
        for terms in (t1, t2):
            scale = max(abs(t) for t in terms)
            if scale == 0.0:
                continue
            worst = max(worst, abs(sum(terms)) / scale)
    return worst


def steady_evolution_error(trials: int, seed: int = SEED + 1) -> float:
    """Time-integrated coherences against the algebraic fixed point.

    Integrates from dark initial conditions for 50 slow-decay lifetimes;
    the transient is then negligible and the integrator must sit on the
    same fixed point.
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        p = MediumParams(1.0, rng.uniform(0.2, 1.0), rng.uniform(-3.0, 3.0), 1.0)
        c = _draw_control(rng, 0.0, 4.0)
        pp = _draw_complex(rng, 0.01)
        ps = _draw_complex(rng, 0.01)
        target = steady_coherences(p, c, pp, ps)
        scale = max(p.gamma31, p.gamma21, abs(p.delta), abs(c))
        evolved = evolve_coherences(
            p, c, pp, ps,
            initial=CoherencePair(0j, 0j),
            t_end=50.0 / p.gamma21,
            dt=0.099 / scale,
        )
        norm = max(abs(target.rho31), abs(target.rho21))
        err = max(abs(evolved.rho31 - target.rho31), abs(evolved.rho21 - target.rho21))
        worst = max(worst, err / norm)
    return worst


def _closed_form(p: MediumParams, control, b0, z: float, channel: str, sign: float):
    """Local re-evaluation of the channel solution with an explicit beta branch."""
    y = y_factor(p, control)
    beta = sign * beta_factor(p, control)
    x = (p.d * z) / (8.0 * y * p.length)
    bx = beta * x
    sinc = np.sin(bx) / beta
    damp = np.exp(-x * (1j * p.delta + p.gamma31 + p.gamma21))
    if channel == "s":
        coeff = p.gamma21 - p.gamma31 - 1j * p.delta
        generated = -1j * np.conj(control) * b0 * sinc * damp
    else:
        coeff = p.gamma31 + 1j * p.delta - p.gamma21
        generated = -1j * control * b0 * sinc * damp
    primary = b0 * (np.cos(bx) - coeff * sinc) * damp
    return primary, generated


def beta_branch_error(trials: int, seed: int = SEED + 2) -> float:
    """Outputs must not depend on the sqrt branch chosen for beta.

    Compares the channel solution evaluated with +beta and -beta, and both
    against the library solver (which must agree with either branch).
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        p = _draw_params(rng)
        c = _draw_control(rng, 2.0, 6.0)
        b0 = _draw_complex(rng, 0.01)
        z = float(rng.uniform(0.1, 1.0))
        plus = _closed_form(p, c, b0, z, "s", +1.0)
        minus = _closed_form(p, c, b0, z, "s", -1.0)
        lib = solve_channel_s(p, c, b0, z)
        scale = _rel_scale(plus[0], plus[1], np.asarray(b0))
        for a, b in zip(plus, minus):
            worst = max(worst, float(np.max(np.abs(a - b))) / scale)
        for a, b in zip(plus, (lib.primary, lib.generated)):
            worst = max(worst, float(np.max(np.abs(a - b))) / scale)
    return worst


def decoupled_limit_error(trials: int, seed: int = SEED + 3) -> float:
    """Zero control: each probe must follow its bare absorption exponential.

    omega_s -> s0 exp(-d z / (4 L (gamma31 + i delta))),
    omega_p -> p0 exp(-d z / (4 L gamma21)), with nothing generated.
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        p = _draw_params(rng)
        b0 = _draw_complex(rng)
        z = float(rng.uniform(0.0, 1.0))
        s = solve_channel_s(p, 0.0, b0, z)
        q = solve_channel_p(p, 0.0, b0, z)
        ref_s = b0 * np.exp(-p.d * z / (4.0 * p.length * (p.gamma31 + 1j * p.delta)))
        ref_p = b0 * np.exp(-p.d * z / (4.0 * p.length * p.gamma21))
        scale = abs(b0)
        worst = max(
            worst,
            float(np.abs(s.primary - ref_s)) / scale,
            float(np.abs(q.primary - ref_p)) / scale,
            float(np.abs(s.generated)) / scale,
            float(np.abs(q.generated)) / scale,
        )
    return worst


def lossless_error(trials: int, seed: int = SEED + 4) -> float:
    """Zero decays, zero detuning: |primary|^2 + |generated|^2 is conserved.

    Checked at 21 planes through the medium for both channels under a
    uniform control field.
    """
    rng = np.random.default_rng(seed)
    zs = np.linspace(0.0, 1.0, 21)
    worst = 0.0
    for _ in range(trials):
        p = _draw_params(rng, lossless=True)
        c = _draw_control(rng, 1.0, 6.0)
        b0 = _draw_complex(rng)
        power_in = abs(b0) ** 2
        for solver in (solve_channel_s, solve_channel_p):
            for z in zs:
                state = solver(p, c, b0, float(z))
                power = float(np.abs(state.primary) ** 2 + np.abs(state.generated) ** 2)
                worst = max(worst, abs(power - power_in) / power_in)
    return worst


def probe_linearity_error(trials: int, seed: int = SEED + 5) -> float:
    """Channel outputs are linear in the probe boundary field."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        p = _draw_params(rng)
        shape = (16, 16)
        c = rng.uniform(1.0, 5.0, shape) * np.exp(1j * rng.uniform(-np.pi, np.pi, shape))
        b1 = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        b2 = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        alpha = _draw_complex(rng)
        for solver in (solve_channel_s, solve_channel_p):
            combined = solver(p, c, alpha * b1 + b2, p.length)
            s1 = solver(p, c, b1, p.length)
            s2 = solver(p, c, b2, p.length)
            for mixed, one, two in (
                (combined.primary, s1.primary, s2.primary),
                (combined.generated, s1.generated, s2.generated),
            ):
                recombined = alpha * one + two
                scale = _rel_scale(mixed, recombined, b1, b2)
                worst = max(worst, float(np.max(np.abs(mixed - recombined))) / scale)
    return worst


def sum_ripple_error(out) -> float:
    """At delta = 0 the summed output intensity of out must be angle-independent.

    out is compute_fields of fig4's delta = 0 cell.  Measured without
    interpolation: the grid's 8-fold symmetry orbit maps each node to nodes
    of exactly equal radius, so any orbit mismatch in
    |omega_d|^2 + |omega_u|^2 is angular ripple.  The orbit keeps radii only
    because the cell's GridSpec(257, 3.0) has a bitwise antisymmetric axis
    (axis + axis[::-1] is all zero); GridSpec(256, 3.0)'s is not (4.4e-16).
    """
    s = np.abs(out["omega_d"].values) ** 2 + np.abs(out["omega_u"].values) ** 2
    peak = float(s.max())
    orbit = (
        s[::-1, :], s[:, ::-1], s[::-1, ::-1],
        s.T, s.T[::-1, :], s.T[:, ::-1], s.T[::-1, ::-1],
    )
    return max(float(np.max(np.abs(s - img))) for img in orbit) / peak


def anti_phase_peak_error(analysed) -> float:
    """At delta = 0 the two crescents of the cell of sum_ripple_error must point pi apart.

    analysed is runner.analyse of that cell: its rows' peak angles, read on the
    cell's pinned ring. A Blank angle, of a ring without structure or unread, fails.
    """
    peak_d, peak_u = (analysed[name][0]["peak_angle"] for name in ("omega_d", "omega_u"))
    if isinstance(peak_d, Blank) or isinstance(peak_u, Blank):
        return math.inf
    return abs((peak_d - peak_u) % (2.0 * np.pi) - np.pi)


_LEVELS = {
    # grid n, integrator steps, randomized trials, evolution trials
    "fast": (64, 1000, 25, 3),
    "full": (256, 10000, 100, 10),
}


def run_verify(level: str) -> list[SuiteResult]:
    """Run every suite at the given effort level and collect the results."""
    if level not in _LEVELS:
        raise InvalidConfigError(f"verify level must be 'fast' or 'full', got {level!r}")
    n, steps, trials, evolve_trials = _LEVELS[level]
    cell = _interference_base(CRESCENT_DEPTH, ())  # fig4 at delta = 0
    anti_phase = compute_fields(cell)
    return [
        SuiteResult("channel_oracle", channel_oracle_error(n, steps), 1e-7),
        SuiteResult("steady_kernel", steady_kernel_error(trials), 1e-12),
        SuiteResult("steady_evolution", steady_evolution_error(evolve_trials), 1e-8),
        SuiteResult("beta_branch", beta_branch_error(trials), 1e-12),
        SuiteResult("decoupled_limits", decoupled_limit_error(trials), 1e-12),
        SuiteResult("lossless", lossless_error(max(5, trials // 5)), 1e-10),
        SuiteResult("probe_linearity", probe_linearity_error(max(5, trials // 5)), 1e-12),
        SuiteResult("sum_ripple", sum_ripple_error(anti_phase), 1e-9),
        SuiteResult("anti_phase_peaks", anti_phase_peak_error(analyse(cell)), 0.01),
    ]


def print_report(results: list[SuiteResult], stream=None) -> None:
    stream = stream or sys.stdout
    width = max(len(r.name) for r in results)
    for r in results:
        status = "PASS" if r.ok else "FAIL"
        print(
            f"{r.name:<{width}}  max_error={r.max_error:.3e}  tol={r.tolerance:.0e}  {status}",
            file=stream,
        )
    passed = sum(r.ok for r in results)
    verdict = "PASS" if passed == len(results) else "FAIL"
    print(f"verify: {verdict} ({passed}/{len(results)} suites)", file=stream)


def ensure_passing(results: list[SuiteResult]) -> None:
    failed = [r for r in results if not r.ok]
    if failed:
        detail = ", ".join(f"{r.name} ({r.max_error:.3e} > {r.tolerance:.0e})" for r in failed)
        raise VerificationError(f"verification failed: {detail}")
