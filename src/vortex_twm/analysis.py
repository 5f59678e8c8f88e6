"""Observables extracted from complex fields.

Every ring is sampled exactly, through the field's closed form
ComplexField.at, never interpolated from the grid; a field without one
raises NoClosedFormError.  All angular quantities follow the grid
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
    NonIntegerWindingError,
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

DEFAULT_M = 720          # 0.5 degree azimuthal resolution
AMPLITUDE_FLOOR = 1e-12  # fraction of the field maximum below which phase is noise
WINDING_SLACK = 0.05     # max allowed deviation of summed phase/2pi from an integer
PETAL_FLOOR = 1e-6       # harmonic weight below this fraction of F0 counts as structureless


@dataclass
class AzimuthalProfile:
    """Intensity versus azimuthal angle on a ring of fixed radius."""

    radius: float
    thetas: np.ndarray
    intensities: np.ndarray


def _check_radius(field: ComplexField, radius: float) -> float:
    radius = float(radius)
    if not np.isfinite(radius) or radius < 0 or radius > field.grid.extent:
        raise OutOfGridError(
            f"ring radius {radius!r} outside the grid (extent {field.grid.extent})"
        )
    return radius


def _ring(field: ComplexField, radius, m: int):
    """(thetas, values) at m uniform angles on the ring(s) of a radius or a column of radii."""
    if field.at is None:
        raise NoClosedFormError("field has no closed form (at) to sample its rings from")
    thetas = 2.0 * np.pi * np.arange(m) / m
    return thetas, field.at(radius, thetas)


def winding_number(field: ComplexField, radius: float | None = None, m: int = DEFAULT_M) -> int:
    """Topological charge: accumulated ring phase divided by 2*pi.

    Sums per-step phase differences, each wrapped to (-pi, pi], around m
    exact samples of the ring.  By default the ring of maximum azimuthally
    averaged intensity is used (best signal above the amplitude floor,
    away from the axis singularity and the grid tails).
    """
    if radius is None:
        radius = ring_radius(field)
    radius = _check_radius(field, radius)
    peak = float(np.max(np.abs(field.values)))
    if peak == 0.0:
        raise AmplitudeFloorError("zero field has no phase to wind")
    _, vals = _ring(field, radius, m)
    if np.min(np.abs(vals)) < AMPLITUDE_FLOOR * peak:
        raise AmplitudeFloorError(
            f"ring amplitude fell below {AMPLITUDE_FLOOR} of the field maximum"
        )
    steps = np.angle(np.roll(vals, -1) * np.conj(vals))
    total = float(steps.sum()) / (2.0 * np.pi)
    nearest = round(total)
    if abs(total - nearest) > WINDING_SLACK:
        raise NonIntegerWindingError(
            f"ring phase sum {total:.6f} is not close to an integer (under-resolved ring)"
        )
    return int(nearest)


def azimuthal_profile(field: ComplexField, radius: float, m: int = DEFAULT_M) -> AzimuthalProfile:
    """Intensity |field|^2 sampled on m uniform angles of the given ring."""
    if not isinstance(m, (int, np.integer)) or m < 16:
        raise InvalidConfigError(f"profile sample count m must be >= 16, got {m!r}")
    radius = _check_radius(field, radius)
    thetas, vals = _ring(field, radius, int(m))
    return AzimuthalProfile(radius=radius, thetas=thetas, intensities=np.abs(vals) ** 2)


def petal_count(profile: AzimuthalProfile) -> int:
    """Dominant azimuthal harmonic of the intensity profile.

    Returns argmax over k in [1, m/2) of |F_k| from the real FFT, or 0 when
    no harmonic reaches PETAL_FLOOR of |F_0| (structureless profile).
    Fourier weighting is robust to unequal petal heights, unlike counting
    local maxima.
    """
    intens = np.asarray(profile.intensities, dtype=float)
    m = intens.size
    spectrum = np.abs(np.fft.rfft(intens))
    f0 = spectrum[0]
    kmax = (m + 1) // 2  # excludes the Nyquist bin for even m
    if kmax <= 1 or f0 == 0.0:
        return 0
    band = spectrum[1:kmax]
    if band.max() < PETAL_FLOOR * f0:
        return 0
    return int(np.argmax(band)) + 1


def peak_angle(profile: AzimuthalProfile) -> float:
    """First crest of the dominant harmonic k = petal_count, in [0, 2*pi/k).

    F_k = |F_k| exp(i phi) makes the harmonic cos(k theta + phi), cresting
    at -phi/k modulo 2*pi/k: the maxima of the model's a + b cos(k theta +
    phi) profiles, without ties among identical petals.
    """
    k = petal_count(profile)
    if k < 1:
        raise StructurelessProfileError("profile has no azimuthal structure")
    f_k = np.fft.rfft(np.asarray(profile.intensities, dtype=float))[k]
    period = 2.0 * np.pi / k
    angle = float((-np.angle(f_k) / k) % period)
    # % of a tiny negative angle rounds up to the modulus itself
    return 0.0 if angle == period else angle


def ring_radius(field: ComplexField, m: int = DEFAULT_M) -> float:
    """Radius maximizing the azimuthally averaged intensity.

    Scans rings at half-pixel spacing from the axis to the grid extent,
    each sampled at m angles.  Ties resolve to the smallest radius
    (deterministic argmax).
    """
    g = field.grid
    if g.n < 2:
        raise OutOfGridError(f"a single-sample grid (n={g.n}) has no rings to scan")
    if float(np.max(np.abs(field.values))) == 0.0:
        raise ZeroFieldError("ring radius undefined for an all-zero field")
    radii = np.arange(0.0, g.extent + 0.25 * g.step, 0.5 * g.step)
    _, vals = _ring(field, radii[:, None], m)
    means = (np.abs(vals) ** 2).mean(axis=1)
    return float(radii[int(np.argmax(means))])
