"""The transverse grid (GridSpec) and Laguerre-Gaussian beam sampling.

All transverse lengths are expressed in multiples of the beam waist, so a
beam with waist 1.0 sampled on a grid of extent 3 spans three waists from
the axis to each edge.  Amplitudes are Rabi frequencies in units of the
upper-transition decay rate.
"""
from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field, fields
from functools import partial

import numpy as np

from .errors import InvalidConfigError, NonFiniteFieldError, integer, real

GRID_N_MAX = 4096  # one 4096^2 complex field is 256 MiB
EPSILON_MAX = 1e100  # every product of a run at this amplitude stays finite


@dataclass(frozen=True)
class GridSpec:
    """The grid section of a run: n points per axis over [-extent, extent] waists.

    It is also the transverse grid itself.  The same 1-D axis serves both
    axes, and the polar rasters r and theta are indexed [row, col] = [y
    index, x index], both ascending: pixel (j, i) lies at x = axis[i],
    y = axis[j].  theta = atan2(y, x) lies in (-pi, pi] because the axis
    holds +0.0, never -0.0.  Each array is computed afresh on each read,
    so a spec holds only n and extent.
    """

    n: int = 256
    extent: float = 3.0

    def __post_init__(self):
        n, extent = integer("grid.n", self.n), real("grid.extent", self.extent)
        if n < 2:
            raise InvalidConfigError(f"grid.n must be an integer >= 2, got {n!r}")
        if n > GRID_N_MAX:
            raise InvalidConfigError(f"grid.n = {n} exceeds the ceiling {GRID_N_MAX}")
        if not math.isfinite(extent) or extent <= 0:
            raise InvalidConfigError(f"grid.extent must be finite and positive, got {extent!r}")
        object.__setattr__(self, "n", n)  # frozen: each typed value is set once, here
        object.__setattr__(self, "extent", extent)

    @property
    def axis(self) -> np.ndarray:
        return np.linspace(-self.extent, self.extent, self.n)

    @property
    def r(self) -> np.ndarray:
        axis = self.axis
        return np.hypot(axis, axis[:, None])

    @property
    def theta(self) -> np.ndarray:
        axis = self.axis
        return np.arctan2(axis[:, None], axis)


@dataclass(frozen=True)
class LGBeamSpec:
    """One Laguerre-Gaussian input: amplitude, topological charge, waist (keys beam.*)."""

    epsilon: float
    tc: int
    waist: float = 1.0

    def __post_init__(self):
        for f in fields(self):  # frozen: each typed value is set once, here
            typed = integer if f.name == "tc" else real
            object.__setattr__(self, f.name, typed(f"beam.{f.name}", getattr(self, f.name)))
        if not math.isfinite(self.epsilon) or self.epsilon < 0:
            raise InvalidConfigError(f"beam.epsilon must be >= 0, got {self.epsilon!r}")
        if self.epsilon > EPSILON_MAX:
            raise InvalidConfigError(
                f"beam.epsilon = {self.epsilon!r} exceeds the ceiling {EPSILON_MAX!r}"
            )
        if not math.isfinite(self.waist) or self.waist <= 0:
            raise InvalidConfigError(f"beam.waist must be positive, got {self.waist!r}")


@dataclass(eq=False)
class ComplexField:
    """Complex amplitude per grid pixel, same units as the beam amplitude.

    peak is the largest amplitude |value| on the grid.  A value with a NaN
    or infinite part, or with finite parts whose modulus overflows, is
    rejected, so peak is finite.
    """

    grid: GridSpec
    values: np.ndarray
    peak: float = field(init=False)

    def __post_init__(self):
        self.values = np.ascontiguousarray(self.values, dtype=complex)
        if self.values.shape != (self.grid.n, self.grid.n):
            raise InvalidConfigError(
                f"field shape {self.values.shape} does not match grid n={self.grid.n}"
            )
        self.peak = float(np.max(np.abs(self.values)))  # NaN or inf if any value is
        if not math.isfinite(self.peak):
            raise NonFiniteFieldError("field contains non-finite values")


@np.errstate(over="ignore", invalid="ignore")  # an overflow ends in inf or nan
def _lg(spec: LGBeamSpec, r, theta):
    rho = r / spec.waist
    try:
        radial = rho ** abs(spec.tc) * np.exp(-rho * rho)
    except OverflowError:  # a Python float's power raises where an array's is inf
        raise NonFiniteFieldError("field contains non-finite values") from None
    unit = radial * np.exp(1j * spec.tc * theta)
    # epsilon multiplies last so amplitude scaling is exact, not just close
    return spec.epsilon * unit


def lg_radial(spec: LGBeamSpec) -> Callable[[np.ndarray], np.ndarray]:
    """R(r), the radial part of the beam's one order spec.tc: the beam at theta = 0."""
    return partial(_lg, spec, theta=0.0)


def sample_lg(spec: LGBeamSpec, grid: GridSpec) -> ComplexField:
    """Sample eps * (r/w)^|l| * exp(-(r/w)^2) * exp(i*l*theta) on the grid.

    The r = 0 pixel is evaluated exactly: 0**0 == 1 gives eps for l = 0,
    and the radial factor is exactly zero for l != 0, so the phase
    singularity needs no epsilon offset.  Its radial part is lg_radial.
    """
    return ComplexField(grid, _lg(spec, grid.r, grid.theta))
