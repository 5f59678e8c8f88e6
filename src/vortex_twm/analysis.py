"""Ring observables of a field, read from the amplitudes R_k(r) of its angular orders.

A field of orders k is sum_k R_k(r) exp(i k theta) at any polar point, so
each ring observable is a step on amps, the field's {k: R_k} at one ring
or at the rings scan_radii lists, and is exact; runner.analyse reads amps
from the closed form (propagation.output_rings) and runs these steps.  All
angular quantities follow the grid convention theta = atan2(y, x) measured
counterclockwise from +x.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .beams import GridSpec
from .errors import (
    AmplitudeFloorError,
    InvalidConfigError,
    NonFiniteFieldError,
    OutOfGridError,
    StructurelessProfileError,
    ZeroFieldError,
    integer,
    real,
)

__all__ = [
    "AnalysisSpec",
    "AzimuthalProfile",
    "winding_number",
    "azimuthal_profile",
    "petal_count",
    "peak_angle",
    "ring_radius",
]

DEFAULT_M = 720          # 0.5 degree azimuthal resolution of a profile
PROFILE_M_MAX = 65536
AMPLITUDE_FLOOR = 1e-12  # fraction of the field maximum below which phase is noise
PETAL_FLOOR = 1e-6       # harmonic weight below this fraction of c_0 counts as structureless


@dataclass
class AzimuthalProfile:
    """Intensity versus azimuthal angle on a ring of fixed radius."""

    radius: float
    thetas: np.ndarray
    intensities: np.ndarray
    orders: dict[int, complex]  # order k -> ring amplitude R_k(radius)


@dataclass(frozen=True)
class AnalysisSpec:
    """The analysis section of a run: the metric ring and a profile's sample count m.

    radius "auto" selects the brightest ring of each field; a number pins
    one ring for all, which RunConfig checks against the grid.
    """

    radius: float | str = "auto"
    m: int = DEFAULT_M

    def __post_init__(self):
        if not (isinstance(self.radius, str) and self.radius == "auto"):
            radius = real("analysis.radius", self.radius, "'auto' or a number")
            object.__setattr__(self, "radius", radius)  # frozen: each typed value is set once
        m = integer("analysis.m", self.m)
        if m < 16:
            raise InvalidConfigError(f"analysis.m must be an integer >= 16, got {m!r}")
        if m > PROFILE_M_MAX:
            raise InvalidConfigError(f"analysis.m = {m} exceeds the ceiling {PROFILE_M_MAX}")
        object.__setattr__(self, "m", m)


def check_radius(radius: float, extent: float) -> float:
    """The rule of analysis.radius, a ring inside a grid of that extent; returns a float."""
    radius = real("analysis.radius", radius)
    if not 0.0 <= radius <= extent:
        raise OutOfGridError(f"analysis.radius = {radius!r} outside [0, extent={extent}]")
    return radius


def winding_number(peak: float, amps: dict) -> int:
    """Topological charge of a ring: its dominant angular order.

    amps is the field's {k: R_k} on the ring and peak its radial_max over
    the scanned rings and this one.  When |R_k| of one order exceeds the
    sum of all other |R_j| on the ring, the ring never vanishes and its
    phase winds exactly k times.  A margin below AMPLITUDE_FLOOR of peak
    raises AmplitudeFloorError; for one or two orders that is exactly a
    ring that reaches zero.
    """
    if peak == 0.0:
        raise AmplitudeFloorError("zero field has no phase to wind")
    mags = {k: float(abs(a)) for k, a in amps.items()}
    top = max(mags, key=mags.get)
    if 2.0 * mags[top] - sum(mags.values()) < AMPLITUDE_FLOOR * peak:
        raise AmplitudeFloorError(
            f"no order outweighs the rest of the ring by {AMPLITUDE_FLOOR} of the field maximum"
        )
    return int(top)


def azimuthal_profile(radius: float, amps: dict, m: int) -> AzimuthalProfile:
    """Intensity |field|^2 at m uniform angles of the ring of that radius, with its orders.

    amps is the field's {k: R_k} on that ring; m and radius are checked by
    their owners, AnalysisSpec and check_radius.
    """
    amps = {k: complex(a) for k, a in amps.items()}
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


def radial_max(amps: dict) -> float:
    """The largest sum_k |R_k(r)| of amps, a field's {k: R_k} at one or more radii, which
    is its largest |field| there for one or two orders; a non-finite value raises."""
    peak = float(np.max(sum(np.abs(a) for a in amps.values())))
    if not np.isfinite(peak):
        raise NonFiniteFieldError("field contains non-finite values")
    return peak


def scan_radii(grid: GridSpec) -> np.ndarray:
    """The rings that ring_radius scans: at half the grid's step, from 0 to at most its extent."""
    step = np.diff(grid.axis[:2])[0]
    return np.minimum(np.arange(0.0, grid.extent + 0.25 * step, 0.5 * step), grid.extent)


def ring_radius(peak: float, radii: np.ndarray, amps: dict) -> float:
    """The radius of largest ring-mean intensity sum_k |R_k(r)|^2, first of ties.

    amps is the field's {k: R_k} at radii, the rings of scan_radii, and
    peak their radial_max.
    """
    if peak == 0.0:
        raise ZeroFieldError("ring radius undefined for an all-zero field")
    means = sum(np.abs(a) ** 2 for a in amps.values())
    return float(radii[int(np.argmax(means))])
