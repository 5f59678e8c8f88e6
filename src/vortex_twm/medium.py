"""Steady-state response of the symmetry-broken ladder medium.

The two driven coherences obey linear equations of motion with constant
drives,

    d rho31/dt = -(gamma31 + i delta) rho31 + (i/2) probe_s_total + (i/2) control rho21
    d rho21/dt = -gamma21 rho21        + (i/2) probe_p_total + (i/2) conj(control) rho31

where probe_p_total and probe_s_total are the summed same-frequency
amplitudes on each transition (input probe plus the mixing-generated field
it is indistinguishable from).  ``steady_coherences`` returns the exact
fixed point of this 2x2 linear system; ``evolve_coherences`` integrates the
same system in time and serves as its independent oracle.  Its classical
RK4 steps are taken all at once: for a constant-coefficient linear system
N steps are exactly R(hA)^N, the one-step matrix raised to the N-th power
by squaring (``rk4_power``, shared with the channel oracle).

All rates, detunings, and Rabi amplitudes are in units of gamma31.  Every
function accepts scalars or broadcastable numpy arrays for the drive
arguments.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import DegenerateMediumError, InvalidConfigError, StepSizeError, real

__all__ = [
    "MediumParams",
    "CoherencePair",
    "y_factor",
    "beta_factor",
    "steady_coherences",
    "evolve_coherences",
    "rk4_power",
]


@dataclass(frozen=True)
class MediumParams:
    """Decay rates, shared detuning, lumped optical depth, medium length.

    delta is the common detuning of the control and s-frequency fields; the
    p-frequency field is on resonance by construction.  d lumps the optical
    depths of both channels (depth times decay rate, one constant for both).
    The zero-decay limit is admitted for conservation tests but is only
    meaningful where the control amplitude is nonzero; the degenerate case
    is rejected when encountered downstream.
    """

    gamma31: float
    gamma21: float
    delta: float
    d: float
    length: float = 1.0

    def __post_init__(self):
        for f in fields(self):  # frozen: each typed value is set once, here
            object.__setattr__(self, f.name, real(f"medium.{f.name}", getattr(self, f.name)))
        if not math.isfinite(self.gamma31) or self.gamma31 < 0:
            raise InvalidConfigError(f"medium.gamma31 must be >= 0, got {self.gamma31!r}")
        if not math.isfinite(self.gamma21) or self.gamma21 < 0:
            raise InvalidConfigError(f"medium.gamma21 must be >= 0, got {self.gamma21!r}")
        if not math.isfinite(self.delta):
            raise InvalidConfigError(f"medium.delta must be finite, got {self.delta!r}")
        if not math.isfinite(self.d) or self.d <= 0:
            raise InvalidConfigError(f"medium.d must be > 0, got {self.d!r}")
        if self.length != 1.0:
            raise InvalidConfigError(f"medium.length is normalized to 1, got {self.length!r}")


@dataclass
class CoherencePair:
    """The two driven density-matrix elements (scalars or arrays)."""

    rho31: complex
    rho21: complex


def y_factor(p: MediumParams, control):
    """Response denominator gamma21*(gamma31 + i delta) + |control|^2 / 4.

    Depends on the control only through its magnitude.
    """
    c2 = np.abs(control) ** 2
    return p.gamma21 * (p.gamma31 + 1j * p.delta) + 0.25 * c2


def beta_factor(p: MediumParams, control):
    """Principal sqrt of |control|^2 - (i delta + gamma31 - gamma21)^2.

    Consumers must use beta only through the even combinations cos(beta x)
    and sin(beta x)/beta, so the branch choice is observationally
    irrelevant (and tested as such).  The square is a product: Python's
    complex ** raises OverflowError where g * g overflows to inf.
    """
    c2 = np.abs(control) ** 2
    g = 1j * p.delta + p.gamma31 - p.gamma21
    return np.sqrt(c2 - g * g + 0j)


def _checked_y(p: MediumParams, control):
    y = y_factor(p, control)
    if np.any(y == 0):
        raise DegenerateMediumError(
            "response denominator Y = 0 (zero decays with zero control amplitude)"
        )
    return y


def steady_coherences(p: MediumParams, control, probe_p_total, probe_s_total) -> CoherencePair:
    """Exact fixed point of the coherence equations of motion.

    rho31 = [ i gamma21 (probe_s_total)/2 - control (probe_p_total)/4 ] / Y
    rho21 = [ i (gamma31 + i delta)(probe_p_total)/2 - conj(control) (probe_s_total)/4 ] / Y

    The cross terms pair each coherence with the opposite-frequency drive
    through one control photon; this is the pairing required by the 2x2
    solve.
    """
    y = _checked_y(p, control)
    rho31 = (0.5j * p.gamma21 * probe_s_total - 0.25 * control * probe_p_total) / y
    rho21 = (
        0.5j * (p.gamma31 + 1j * p.delta) * probe_p_total
        - 0.25 * np.conj(control) * probe_s_total
    ) / y
    return CoherencePair(rho31=rho31, rho21=rho21)


def _matmul(x, y):
    """Product of two stacks of k x k matrices, as elementwise terms summed over j in order."""
    return sum(x[..., :, j, None] * y[..., None, j, :] for j in range(x.shape[-1]))


def rk4_power(a, h: float, steps: int) -> np.ndarray:
    """The matrix of `steps` classical RK4 steps of dy/dz = a y: R(h a)^steps.

    a is a stack (..., k, k) of constant coefficient matrices and steps an
    integer >= 1 (the callers' step guards ensure it).  One RK4 step of a
    linear system is exactly y -> R(h a) y with the degree-4 Taylor
    polynomial R(x) = 1 + x + x^2/2 + x^3/6 + x^4/24, built here by Horner's
    rule; the power is taken by binary squaring, so the cost grows with
    log2(steps) rather than steps.  Every product is formed elementwise
    over the stack (_matmul), never by a BLAS call, so each matrix's power
    depends only on that matrix: not on its neighbours in the stack, nor
    on the BLAS library numpy links.
    """
    ha = h * np.asarray(a, dtype=complex)
    eye = np.eye(ha.shape[-1], dtype=complex)
    step = eye + ha / 4.0
    for k in (3.0, 2.0, 1.0):
        step = eye + _matmul(ha / k, step)
    power = None
    while True:
        if steps & 1:
            power = step if power is None else _matmul(power, step)
        steps >>= 1
        if not steps:
            return power
        step = _matmul(step, step)


def evolve_coherences(
    p: MediumParams,
    control,
    probe_p_total,
    probe_s_total,
    initial: CoherencePair,
    t_end: float,
    dt: float,
) -> CoherencePair:
    """Classical 4th-order time integration of the coherence equations.

    Integrates from the given initial pair to t_end with uniform steps no
    larger than dt (the count is rounded up so t_end is hit exactly).  The
    step guard dt * max(rates, |delta|, |control|) <= 0.1 keeps the scheme
    well inside its stability region.  The constant drives ride in a third
    state component fixed at 1, so the affine system becomes the linear
    3x3 system on (rho31, rho21, 1) and all steps are one rk4_power.
    Scalar arguments give Python complex coherences.
    """
    if not dt > 0:
        raise StepSizeError(f"dt must be positive, got {dt!r}")
    if t_end < 0:
        raise StepSizeError(f"t_end must be >= 0, got {t_end!r}")
    scale = max(p.gamma31, p.gamma21, abs(p.delta), float(np.max(np.abs(control))))
    if dt * scale > 0.1:
        raise StepSizeError(
            f"dt={dt} too large for fastest rate {scale} (need dt*rate <= 0.1)"
        )
    if t_end == 0:
        return CoherencePair(rho31=initial.rho31, rho21=initial.rho21)

    steps = max(1, math.ceil(t_end / dt - 1e-12))
    drives = (control, probe_p_total, probe_s_total, initial.rho31, initial.rho21)
    shape = np.broadcast_shapes(*map(np.shape, drives))
    a = np.zeros(shape + (3, 3), dtype=complex)
    a[..., 0, 0] = -(p.gamma31 + 1j * p.delta)
    a[..., 0, 1] = 0.5j * control
    a[..., 0, 2] = 0.5j * probe_s_total
    a[..., 1, 0] = 0.5j * np.conj(control)
    a[..., 1, 1] = -p.gamma21
    a[..., 1, 2] = 0.5j * probe_p_total
    m = rk4_power(a, t_end / steps, steps)
    r31, r21 = (
        m[..., i, 0] * initial.rho31 + m[..., i, 1] * initial.rho21 + m[..., i, 2]
        for i in (0, 1)
    )
    if not shape:
        r31, r21 = complex(r31), complex(r21)
    return CoherencePair(rho31=r31, rho21=r21)
