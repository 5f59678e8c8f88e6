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

``solve_channel`` evaluates either channel's closed-form solution (matrix
exponential of the constant-coefficient system);
``integrate_channel_numeric`` integrates the same systems with the classical
RK4 scheme and is the independent oracle for it; it takes their
coefficients from ``medium.steady_coherences``.  Its N steps are applied as
one matrix, R(hA)^N with R the degree-4 Taylor polynomial, formed by
squaring (``medium.rk4_power``).
``output_rings`` is the one path to the outputs: analysis reads it on
rings, and ``output_fields`` paints a grid from it.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .beams import ComplexField, GridSpec, LGBeamSpec, lg_radial
from .errors import InvalidConfigError, StepCountError
from .medium import MediumParams, _checked_y, beta_factor, rk4_power, steady_coherences

__all__ = [
    "ChannelState",
    "solve_channel",
    "integrate_channel_numeric",
    "output_fields",
]

# below this the direct sin(beta x)/beta quotient loses accuracy to 0/0
SERIES_SWITCH = 1e-4


@dataclass
class ChannelState:
    """Primary and generated amplitudes of one channel."""

    primary: np.ndarray
    generated: np.ndarray


def _check_channel(channel: str) -> None:
    if channel not in ("s", "p"):
        raise InvalidConfigError(f"channel must be 's' or 'p', got {channel!r}")


def _check_z(p: MediumParams, z: float) -> float:
    if not 0.0 <= z <= p.length:
        raise InvalidConfigError(f"z must lie in [0, {p.length}], got {z!r}")
    return float(z)


def _channel_factors(p: MediumParams, control, z: float):
    """Shared factors cos(beta x)*damp and (sin(beta x)/beta)*damp, on every element of control.

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


def _channel_state(p: MediumParams, channel: str, control, b0, factors) -> ChannelState:
    """The closed form of solve_channel from its factors."""
    cos_damp, sinc_damp = factors
    if channel == "s":
        coeff, leg = p.gamma21 - p.gamma31 - 1j * p.delta, np.conj(control)
    else:
        coeff, leg = p.gamma31 + 1j * p.delta - p.gamma21, control
    primary = b0 * (cos_damp - coeff * sinc_damp)
    generated = -1j * leg * b0 * sinc_damp
    return ChannelState(primary=primary, generated=generated)


def solve_channel(p: MediumParams, control, boundary, channel: str, z: float) -> ChannelState:
    """Closed-form state of one channel at travel distance z, from (boundary, 0).

    s: primary   = boundary [cos(beta x) - (gamma21 - gamma31 - i delta) sin(beta x)/beta] damp
       generated = -i conj(control) boundary sin(beta x)/beta damp
    p: the same with the sin coefficient's sign flipped, (gamma31 + i delta - gamma21),
       and the generated field carrying the control itself rather than its conjugate.
    """
    _check_channel(channel)
    z = _check_z(p, z)
    return _channel_state(p, channel, control, boundary, _channel_factors(p, control, z))


def integrate_channel_numeric(
    p: MediumParams, control, boundary, channel: str, steps: int
) -> ChannelState:
    """Classical RK4 integration of one channel from z = 0 to z = L.

    Integrates the coupled amplitude equations as stated in the module
    docstring, independently of the closed forms, starting from
    (boundary, 0).  Their per-pixel 2x2 coefficient matrix A is the medium's
    own response: its columns are medium.steady_coherences for a unit
    probe on each transition, scaled by i d / (2 L).  The `steps` uniform
    steps are R(hA)^steps.  Used as the oracle for solve_channel.
    """
    _check_channel(channel)
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
    return ChannelState(primary=m[..., 0, 0] * u, generated=m[..., 1, 0] * u)


def _exit_faces(p: MediumParams, control, probe_p, probe_s) -> dict:
    """The six output fields from the three input fields at the same points."""
    # both channels travel the full length, so they share one factor pair
    factors = _channel_factors(p, control, p.length)
    s = _channel_state(p, "s", control, probe_s, factors)
    q = _channel_state(p, "p", control, probe_p, factors)
    return {
        "omega_d": probe_p + s.generated,
        "omega_u": probe_s + q.generated,
        "omega_fp": s.generated,
        "omega_fs": q.generated,
        "omega_s": s.primary,
        "omega_p": q.primary,
    }


def _output_parts(lc: int, lp: int, ls: int) -> dict:
    """Each output's {k: part}, the input or exit face that is its R_k (a sum where k coincide)."""
    return {
        "omega_d": {lp: "omega_d"} if lp == ls - lc else {lp: "probe_p", ls - lc: "omega_fp"},
        "omega_u": {ls: "omega_u"} if ls == lc + lp else {ls: "probe_s", lc + lp: "omega_fs"},
        "omega_fp": {ls - lc: "omega_fp"}, "omega_fs": {lc + lp: "omega_fs"},
        "omega_s": {ls: "omega_s"}, "omega_p": {lp: "omega_p"},
    }


def output_rings(p: MediumParams, control, probe_p, probe_s):
    """rings(r): each output's {k: R_k(r)}, from the three LGBeamSpecs' lg_radial(r).

    Propagation is per pixel and sees the control only through
    |control|^2, so inputs of one angular order each (lc, lp, ls) give
    outputs of the orders below, each radial part being the same formula
    applied to the inputs' radial parts (coinciding orders add):

        omega_fp {ls - lc}    omega_s {ls}    omega_d {lp, ls - lc}
        omega_fs {lc + lp}    omega_p {lp}    omega_u {ls, lc + lp}

    One _exit_faces evaluation on the inputs' R_k(r), so a scalar r stays
    scalar; each call makes new complex arrays shaped as r, and keeps none.
    """
    c, pp, ps = lg_radial(control), lg_radial(probe_p), lg_radial(probe_s)
    table = _output_parts(control.tc, probe_p.tc, probe_s.tc)

    def rings(r) -> dict:
        b_p, b_s = pp(r), ps(r)
        faces = {**_exit_faces(p, c(r), b_p, b_s), "probe_p": b_p, "probe_s": b_s}
        parts = {name: np.asarray(v, dtype=complex) for name, v in faces.items()}
        return {name: {k: parts[part] for k, part in t.items()} for name, t in table.items()}

    return rings


def output_fields(p: MediumParams, control: LGBeamSpec, probe_p: LGBeamSpec,
                  probe_s: LGBeamSpec, grid: GridSpec) -> dict[str, ComplexField]:
    """The six output fields on grid, both channels propagated across the medium.

    Each exit face superposes the probe entering there with the generated
    field arriving there after a full traversal: omega_d (z = 0 face) is
    probe_p + omega_fp and omega_u (z = L face) is probe_s + omega_fs, while
    omega_fp, omega_fs, omega_s and omega_p are the generated fields and the
    transmitted probes.  Each field is output_rings read at the grid's
    distinct radii, gathered onto the pixels, times (cos theta + i sin theta)^k
    per order k.  Where their orders differ, omega_d is the painted probe_p
    plus omega_fp, bit for bit, and omega_u the painted probe_s plus omega_fs.
    """
    rings = output_rings(p, control, probe_p, probe_s)
    radii, where = np.unique(grid.r, return_inverse=True)
    read, where, theta = rings(radii), where.reshape(grid.n, grid.n), grid.theta
    phases = {1: np.cos(theta) + 1j * np.sin(theta)}  # exp(i m theta) by m > 0
    del theta

    def paint(k: int, ring) -> np.ndarray:
        """ring exp(i k theta) on the pixels: conj(conj(ring) exp(i |k| theta)) for k < 0."""
        out = (np.conj(ring) if k < 0 else ring)[where]
        if k:
            if abs(k) not in phases:
                phases[abs(k)] = phases[1] ** abs(k)
            out *= phases[abs(k)]
        return np.conj(out, out=out) if k < 0 else out

    fields = {name: paint(*ring) for name in ("omega_fp", "omega_fs", "omega_s", "omega_p")
              for ring in read[name].items()}
    for name, probe, partner in (("omega_d", probe_p, "omega_fp"),
                                 ("omega_u", probe_s, "omega_fs")):
        fields[name] = paint(probe.tc, read[name][probe.tc])
        if len(read[name]) == 2:  # the probe's order is not its generated partner's
            fields[name] += fields[partner]
    del where, phases  # before the fields' peak scans
    return {name: ComplexField(grid, fields[name]) for name in read}
