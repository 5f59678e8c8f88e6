"""Observables extracted from complex fields.

Ring sampling uses bilinear interpolation on the field grid; all angular
quantities follow the grid convention theta = atan2(y, x) measured
counterclockwise from +x.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .beams import ComplexField
from .errors import (
    AmplitudeFloorError,
    InvalidConfigError,
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


def _bilinear(field: ComplexField, xq: np.ndarray, yq: np.ndarray) -> np.ndarray:
    """Bilinear interpolation of field values at query points in waist units."""
    g = field.grid
    if g.n < 2:
        raise OutOfGridError("interpolation needs a grid with at least 2x2 samples")
    fx = (np.asarray(xq, dtype=float) + g.extent) / g.step
    fy = (np.asarray(yq, dtype=float) + g.extent) / g.step
    i0 = np.clip(np.floor(fx).astype(int), 0, g.n - 2)
    j0 = np.clip(np.floor(fy).astype(int), 0, g.n - 2)
    tx = fx - i0
    ty = fy - j0
    v = field.values
    return (
        v[j0, i0] * (1.0 - tx) * (1.0 - ty)
        + v[j0, i0 + 1] * tx * (1.0 - ty)
        + v[j0 + 1, i0] * (1.0 - tx) * ty
        + v[j0 + 1, i0 + 1] * tx * ty
    )


def _check_radius(field: ComplexField, radius: float) -> float:
    radius = float(radius)
    if not np.isfinite(radius) or radius < 0 or radius > field.grid.extent:
        raise OutOfGridError(
            f"ring radius {radius!r} outside the grid (extent {field.grid.extent})"
        )
    return radius


def _ring_values(field: ComplexField, radius: float, m: int) -> np.ndarray:
    thetas = 2.0 * np.pi * np.arange(m) / m
    return _bilinear(field, radius * np.cos(thetas), radius * np.sin(thetas))


def winding_number(field: ComplexField, radius: float | None = None, m: int = DEFAULT_M) -> int:
    """Topological charge: accumulated ring phase divided by 2*pi.

    Sums per-step phase differences, each wrapped to (-pi, pi], around m
    bilinearly interpolated samples of the ring.  By default the ring of
    maximum azimuthally averaged intensity is used (best signal above the
    amplitude floor, away from the axis singularity and the grid tails).
    """
    if radius is None:
        radius = ring_radius(field)
    radius = _check_radius(field, radius)
    peak = float(np.max(np.abs(field.values)))
    if peak == 0.0:
        raise AmplitudeFloorError("zero field has no phase to wind")
    vals = _ring_values(field, radius, m)
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
    thetas = 2.0 * np.pi * np.arange(int(m)) / int(m)
    vals = _bilinear(field, radius * np.cos(thetas), radius * np.sin(thetas))
    return AzimuthalProfile(radius=radius, thetas=thetas, intensities=np.abs(vals) ** 2)


def petal_count(profile: AzimuthalProfile) -> int:
    """Dominant azimuthal harmonic of the intensity profile.

    Returns argmax over k in [1, m/2) of |F_k| from the real FFT, or 0 when
    no harmonic reaches PETAL_FLOOR of |F_0| (structureless profile).
    Fourier weighting is robust to interpolation ripple and to unequal
    petal heights, unlike counting local maxima.
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
    """Angle of the profile's global maximum, in [0, 2*pi).

    The discrete argmax is refined by a three-point quadratic fit with
    circular neighbors.  Requires azimuthal structure (petal_count >= 1).
    """
    if petal_count(profile) < 1:
        raise StructurelessProfileError("profile has no azimuthal structure")
    intens = profile.intensities
    m = intens.size
    k = int(np.argmax(intens))
    prev_i = intens[k - 1]
    next_i = intens[(k + 1) % m]
    denom = prev_i - 2.0 * intens[k] + next_i
    offset = 0.0 if denom == 0.0 else 0.5 * (prev_i - next_i) / denom
    angle = float((2.0 * np.pi * (k + offset) / m) % (2.0 * np.pi))
    # % of a tiny negative angle rounds up to the modulus itself
    return 0.0 if angle == 2.0 * np.pi else angle


def ring_radius(field: ComplexField, m: int = DEFAULT_M) -> float:
    """Radius maximizing the azimuthally averaged intensity.

    Scans rings at half-pixel spacing from the axis to the grid extent.
    Ties resolve to the smallest radius (deterministic argmax).
    """
    if float(np.max(np.abs(field.values))) == 0.0:
        raise ZeroFieldError("ring radius undefined for an all-zero field")
    g = field.grid
    radii = np.arange(0.0, g.extent + 0.25 * g.step, 0.5 * g.step)
    thetas = 2.0 * np.pi * np.arange(m) / m
    xq = radii[:, None] * np.cos(thetas)[None, :]
    yq = radii[:, None] * np.sin(thetas)[None, :]
    means = (np.abs(_bilinear(field, xq, yq)) ** 2).mean(axis=1)
    return float(radii[int(np.argmax(means))])
