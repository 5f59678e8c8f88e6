"""Per-pixel channel propagation and output-field composition.

Two decoupled 2x2 linear systems describe how each weak probe converts
into its frequency-mixed partner while riding the strong control field.
With the per-channel optical depths lumped into one constant d, both
systems share the prefactor i d / (2 L):

  s-channel, state (omega_s, omega_fp):
      d omega_s /dz  = (i d / 2L) [ i gamma21 omega_s / (2Y) - control omega_fp / (4Y) ]
      d omega_fp/dz  = (i d / 2L) [ i (gamma31 + i delta) omega_fp / (2Y)
                                    - conj(control) omega_s / (4Y) ]
  p-channel, state (omega_p, omega_fs): the same structure with gamma21 and
  (gamma31 + i delta) exchanged and the control conjugation on the other leg.

z is the distance travelled along each channel's own direction of
propagation, normalized to the medium length L = 1.  The two probes enter
from opposite faces, so when composing face values the s-channel quantities
evaluated at travel distance L sit at the laboratory z = 0 face and vice
versa.

``solve_channel_s`` and ``solve_channel_p`` evaluate the closed-form
solutions (matrix exponential of the constant-coefficient system);
``integrate_channel_numeric`` integrates the same systems with the classical
RK4 scheme and is the independent oracle for them; it takes their
coefficients from ``medium.steady_coherences``.  Its N steps are applied as
one matrix, R(hA)^N with R the degree-4 Taylor polynomial, formed by
squaring (``medium.rk4_power``).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .beams import ComplexField
from .errors import GridMismatchError, InvalidConfigError, StepCountError
from .medium import MediumParams, _checked_y, beta_factor, rk4_power, steady_coherences

__all__ = [
    "ChannelState",
    "solve_channel_s",
    "solve_channel_p",
    "integrate_channel_numeric",
    "output_fields",
]

# below this the direct sin(beta x)/beta quotient loses accuracy to 0/0
SERIES_SWITCH = 1e-4


@dataclass
class ChannelState:
    """Primary and generated amplitudes of one channel at travel distance z."""

    primary: np.ndarray
    generated: np.ndarray
    z: float


def _check_z(p: MediumParams, z: float) -> float:
    if not 0.0 <= z <= p.length:
        raise InvalidConfigError(f"z must lie in [0, {p.length}], got {z!r}")
    return float(z)


def _channel_factors(p: MediumParams, control, z: float):
    """Shared factors cos(beta x)*damp and (sin(beta x)/beta)*damp.

    x = d z / (8 Y L), damp = exp(-x (i delta + gamma31 + gamma21)).  Both
    factors are assembled from the two mode exponentials
    exp(+-i beta x - x Gamma), whose real exponents are non-positive for a
    passive medium; evaluating cos and damp separately instead would
    overflow (and cancel catastrophically) at large d with weak control.
    Where |beta x| < SERIES_SWITCH the sin quotient is replaced by its
    series x (1 - (beta x)^2/6 + (beta x)^4/120), which covers the
    beta -> 0 pixels exactly.
    """
    y = _checked_y(p, control)
    beta = beta_factor(p, control)
    with np.errstate(all="ignore"):  # an overflow ends in inf or nan, which ComplexField reports
        x = (p.d * z) / (8.0 * y * p.length)
        bx = beta * x
        xg = x * (1j * p.delta + p.gamma31 + p.gamma21)
        mode_plus = np.exp(1j * bx - xg)
        mode_minus = np.exp(-1j * bx - xg)
        cos_damp = 0.5 * (mode_plus + mode_minus)
        small = np.abs(bx) < SERIES_SWITCH
        sinc_damp = np.asarray((mode_plus - mode_minus) / np.where(small, 1.0, 2j * beta))
        if small.any():  # the series and its exp only where they are used
            xs, bs, gs = (np.broadcast_to(a, small.shape)[small] for a in (x, bx, xg))
            bs2 = bs * bs
            sinc_damp[small] = xs * (1.0 - bs2 / 6.0 + bs2 * bs2 / 120.0) * np.exp(-gs)
    return cos_damp, sinc_damp


def _channel_state(p: MediumParams, channel: str, control, b0, factors, z: float):
    """The closed form of solve_channel_s or solve_channel_p from their factors."""
    cos_damp, sinc_damp = factors
    if channel == "s":
        coeff, leg = p.gamma21 - p.gamma31 - 1j * p.delta, np.conj(control)
    else:
        coeff, leg = p.gamma31 + 1j * p.delta - p.gamma21, control
    primary = b0 * (cos_damp - coeff * sinc_damp)
    generated = -1j * leg * b0 * sinc_damp
    return ChannelState(primary=primary, generated=generated, z=z)


def solve_channel_s(p: MediumParams, control, s0, z: float) -> ChannelState:
    """Closed-form s-channel state at travel distance z.

    primary   = s0 [cos(beta x) - (gamma21 - gamma31 - i delta) sin(beta x)/beta] damp
    generated = -i conj(control) s0 sin(beta x)/beta damp
    """
    z = _check_z(p, z)
    return _channel_state(p, "s", control, s0, _channel_factors(p, control, z), z)


def solve_channel_p(p: MediumParams, control, p0, z: float) -> ChannelState:
    """Closed-form p-channel state at travel distance z.

    Same structure as the s-channel with the sin coefficient sign flipped,
    (gamma31 + i delta - gamma21), and the generated field carrying the
    control itself rather than its conjugate.
    """
    z = _check_z(p, z)
    return _channel_state(p, "p", control, p0, _channel_factors(p, control, z), z)


def integrate_channel_numeric(
    p: MediumParams, control, boundary, channel: str, steps: int
) -> ChannelState:
    """Classical RK4 integration of one channel from z = 0 to z = L.

    Integrates the coupled amplitude equations as stated in the module
    docstring, independently of the closed forms, starting from
    (boundary, 0).  Their per-pixel 2x2 coefficient matrix A is the medium's
    own response: its columns are medium.steady_coherences for a unit
    probe on each transition, scaled by i d / (2 L).  The `steps` uniform
    steps are R(hA)^steps.  Used as the oracle for solve_channel_*.
    """
    if channel not in ("s", "p"):
        raise InvalidConfigError(f"channel must be 's' or 'p', got {channel!r}")
    if not isinstance(steps, (int, np.integer)) or steps < 100:
        raise StepCountError(f"steps must be an integer >= 100, got {steps!r}")

    # s: (omega_s, omega_fp) = (probe_s, probe_p) moves as (rho31, rho21); p swaps both
    units, rows = ((0, 1), (1, 0)), ("rho31", "rho21")
    if channel == "p":
        units, rows = units[::-1], rows[::-1]
    pre = 0.5j * p.d / p.length
    a = np.empty(np.shape(control) + (2, 2), dtype=complex)
    for j, unit in enumerate(units):
        pair = steady_coherences(p, control, *unit)
        for i, row in enumerate(rows):
            a[..., i, j] = pre * getattr(pair, row)
    # the state starts at (boundary, 0): only the first column of the power acts
    m = rk4_power(a, p.length / steps, int(steps))
    u = np.asarray(boundary, dtype=complex)
    return ChannelState(primary=m[..., 0, 0] * u, generated=m[..., 1, 0] * u, z=p.length)


def _shared_grid(*fields: ComplexField):
    grid = fields[0].grid
    for f in fields[1:]:
        if f.grid is not grid and not f.grid.same_as(grid):
            raise GridMismatchError("control and probe fields must share one grid")
    return grid


def _exit_faces(p: MediumParams, control, probe_p, probe_s) -> dict:
    """The six output fields from the three input fields at the same points."""
    # both channels travel the full length, so they share one factor pair
    factors = _channel_factors(p, control, p.length)
    s = _channel_state(p, "s", control, probe_s, factors, p.length)
    q = _channel_state(p, "p", control, probe_p, factors, p.length)
    return {
        "omega_d": probe_p + s.generated,
        "omega_u": probe_s + q.generated,
        "omega_fp": s.generated,
        "omega_fs": q.generated,
        "omega_s": s.primary,
        "omega_p": q.primary,
    }


def _plus(a, b) -> dict:
    """Orders of the sum of two single-order terms (k, R_k); one k sums its parts."""
    (ka, ra), (kb, rb) = a, b
    return {ka: lambda r: ra(r) + rb(r)} if ka == kb else {ka: ra, kb: rb}


def _output_orders(p: MediumParams, inputs) -> dict:
    """Output orders of inputs (control, probe_p, probe_s); {} unless each has one."""
    if any(f.orders is None or len(f.orders) != 1 for f in inputs):
        return {}
    [(lc, c)], [(lp, pp)], [(ls, ps)] = (f.orders.items() for f in inputs)

    def face(name):
        return lambda r: _exit_faces(p, c(r), pp(r), ps(r))[name]

    fp, fs = face("omega_fp"), face("omega_fs")
    return {
        "omega_d": _plus((lp, pp), (ls - lc, fp)),
        "omega_u": _plus((ls, ps), (lc + lp, fs)),
        "omega_fp": {ls - lc: fp},
        "omega_fs": {lc + lp: fs},
        "omega_s": {ls: face("omega_s")},
        "omega_p": {lp: face("omega_p")},
    }


def output_fields(
    p: MediumParams,
    control_field: ComplexField,
    probe_p: ComplexField,
    probe_s: ComplexField,
) -> dict[str, ComplexField]:
    """Propagate both channels across the medium and return the six output fields.

    The resultant field at each exit face superposes the boundary probe
    entering there with the counter-propagating generated field arriving
    there after a full traversal:

        omega_d (z = 0 face) = probe_p boundary + omega_fp at travel L
        omega_u (z = L face) = probe_s boundary + omega_fs at travel L

    omega_fp, omega_fs, omega_s and omega_p are the propagated constituents
    at their exit faces, the generated fields and the transmitted probes.

    Propagation is per pixel and sees the control only through
    |control|^2, so inputs of one angular order each (lc, lp, ls) give
    outputs of the orders below, each radial part being the same formula
    applied to the inputs' radial parts (coinciding orders add):

        omega_fp {ls - lc}    omega_s {ls}    omega_d {lp, ls - lc}
        omega_fs {lc + lp}    omega_p {lp}    omega_u {ls, lc + lp}

    Otherwise the outputs have no orders.
    """
    inputs = (control_field, probe_p, probe_s)
    grid = _shared_grid(*inputs)
    values = _exit_faces(p, *(f.values for f in inputs))
    orders = _output_orders(p, inputs)
    return {name: ComplexField(grid, v, orders.get(name)) for name, v in values.items()}
