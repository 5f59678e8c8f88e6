"""Observables extracted from complex fields.

Ring observables read the amplitudes R_k(r) of the field's angular orders
(ComplexField.orders), never the grid, and are exact; a field without
orders raises NoClosedFormError.  All angular quantities follow the grid
convention theta = atan2(y, x) measured counterclockwise from +x.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .beams import ComplexField
from .errors import (
    AmplitudeFloorError,
    InvalidConfigError,
    NoClosedFormError,
    OutOfGridError,
    StructurelessProfileError,
    ZeroFieldError,
)

__all__ = [
    "AzimuthalProfile",
    "winding_number",
    "azimuthal_profile",
    "petal_count",
    "peak_angle",
    "ring_radius",
]

DEFAULT_M = 720          # 0.5 degree azimuthal resolution of a profile
AMPLITUDE_FLOOR = 1e-12  # fraction of the field maximum below which phase is noise
PETAL_FLOOR = 1e-6       # harmonic weight below this fraction of c_0 counts as structureless


@dataclass
class AzimuthalProfile:
    """Intensity versus azimuthal angle on a ring of fixed radius."""

    radius: float
    thetas: np.ndarray
    intensities: np.ndarray
    orders: dict[int, complex]  # order k -> ring amplitude R_k(radius)


def _check_radius(field: ComplexField, radius: float) -> float:
    radius = float(radius)
    if not np.isfinite(radius) or radius < 0 or radius > field.grid.extent:
        raise OutOfGridError(
            f"ring radius {radius!r} outside the grid (extent {field.grid.extent})"
        )
    return radius


def _amplitudes(field: ComplexField, radius) -> dict:
    """R_k at a radius or an array of radii, for each order k of the field."""
    if not field.orders:
        raise NoClosedFormError("field has no closed form (orders) to read its rings from")
    return {k: np.asarray(radial(radius), dtype=complex) for k, radial in field.orders.items()}


def winding_number(field: ComplexField, radius: float | None = None) -> int:
    """Topological charge of a ring: its dominant angular order.

    When |R_k| of one order exceeds the sum of all other |R_j| on the ring,
    the ring never vanishes and its phase winds exactly k times.  A margin
    below AMPLITUDE_FLOOR of the field maximum raises AmplitudeFloorError;
    for one or two orders that is exactly a ring that reaches zero.  By
    default the ring of maximum azimuthally averaged intensity is used.
    """
    if radius is None:
        radius = ring_radius(field)
    radius = _check_radius(field, radius)
    if field.peak == 0.0:
        raise AmplitudeFloorError("zero field has no phase to wind")
    mags = {k: float(abs(a)) for k, a in _amplitudes(field, radius).items()}
    top = max(mags, key=mags.get)
    if 2.0 * mags[top] - sum(mags.values()) < AMPLITUDE_FLOOR * field.peak:
        raise AmplitudeFloorError(
            f"no order outweighs the rest of the ring by {AMPLITUDE_FLOOR} of the field maximum"
        )
    return int(top)


def azimuthal_profile(field: ComplexField, radius: float, m: int = DEFAULT_M) -> AzimuthalProfile:
    """Intensity |field|^2 at m uniform angles of the given ring, with its orders."""
    if not isinstance(m, (int, np.integer)) or m < 16:
        raise InvalidConfigError(f"profile sample count m must be >= 16, got {m!r}")
    radius = _check_radius(field, radius)
    amps = {k: complex(a) for k, a in _amplitudes(field, radius).items()}
    thetas = 2.0 * np.pi * np.arange(m) / m
    vals = sum(a * np.exp(1j * k * thetas) for k, a in amps.items())
    return AzimuthalProfile(radius, thetas, np.abs(vals) ** 2, amps)


def _harmonics(profile: AzimuthalProfile) -> np.ndarray:
    """Intensity harmonics c_q = sum_{j-k=q} R_j conj(R_k), for q = 0 .. the order span.

    The ring intensity is sum_q c_q exp(i q theta) with c_-q = conj(c_q);
    c_0 = sum_k |R_k|^2 is its mean.
    """
    amps = profile.orders
    c = np.zeros(max(amps) - min(amps) + 1, dtype=complex)
    for j, a in amps.items():
        for k, b in amps.items():
            if j >= k:
                c[j - k] += a * np.conj(b)
    return c


def petal_count(profile: AzimuthalProfile) -> int:
    """Dominant azimuthal harmonic of the ring intensity.

    Returns argmax over q >= 1 of |c_q|, or 0 when no harmonic reaches
    PETAL_FLOOR of c_0, the ring-mean intensity (structureless ring).
    Fourier weighting is robust to unequal petal heights, unlike counting
    local maxima.
    """
    c = np.abs(_harmonics(profile))
    if c.size < 2 or c[0] == 0.0 or c[1:].max() < PETAL_FLOOR * c[0]:
        return 0
    return int(np.argmax(c[1:])) + 1


def peak_angle(profile: AzimuthalProfile) -> float:
    """First crest of the dominant harmonic k = petal_count, in [0, 2*pi/k).

    c_k = |c_k| exp(i phi) makes the harmonic cos(k theta + phi), cresting
    at -phi/k modulo 2*pi/k: the maxima of the model's a + b cos(k theta +
    phi) profiles, without ties among identical petals.
    """
    k = petal_count(profile)
    if k < 1:
        raise StructurelessProfileError("profile has no azimuthal structure")
    period = 2.0 * np.pi / k
    angle = float((-np.angle(_harmonics(profile)[k]) / k) % period)
    # % of a tiny negative angle rounds up to the modulus itself
    return 0.0 if angle == period else angle


def ring_radius(field: ComplexField) -> float:
    """Radius maximizing the azimuthally averaged intensity sum_k |R_k(r)|^2.

    Scans rings at half-pixel spacing from the axis to the grid extent.
    Ties resolve to the smallest radius (deterministic argmax).
    """
    g = field.grid
    if g.n < 2:
        raise OutOfGridError(f"a single-sample grid (n={g.n}) has no rings to scan")
    if field.peak == 0.0:
        raise ZeroFieldError("ring radius undefined for an all-zero field")
    radii = np.arange(0.0, g.extent + 0.25 * g.step, 0.5 * g.step)
    means = sum(np.abs(a) ** 2 for a in _amplitudes(field, radii).values())
    return float(radii[int(np.argmax(means))])
