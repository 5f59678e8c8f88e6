"""Transverse grid construction and Laguerre-Gaussian beam sampling.

All transverse lengths are expressed in multiples of the beam waist, so a
beam with waist 1.0 sampled on a grid of extent 3 spans three waists from
the axis to each edge.  Amplitudes are Rabi frequencies in units of the
upper-transition decay rate.
"""
from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property, partial

import numpy as np

from .errors import InvalidConfigError


@dataclass(eq=False)
class Grid2D:
    """Square transverse grid centered on the beam axis.

    The same 1-D coordinate array is used for both axes.  Derived per-pixel
    coordinate arrays are indexed [row, col] = [y index, x index] with both
    axes ascending; theta = atan2(y, x) lies in (-pi, pi] because the axis
    contains +0.0, never -0.0.
    """

    axis: np.ndarray
    extent: float
    x: np.ndarray = field(init=False, repr=False)
    y: np.ndarray = field(init=False, repr=False)
    r: np.ndarray = field(init=False, repr=False)
    theta: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.axis = np.asarray(self.axis, dtype=float)
        self.x, self.y = np.meshgrid(self.axis, self.axis)
        self.r = np.hypot(self.x, self.y)
        self.theta = np.arctan2(self.y, self.x)

    @property
    def n(self) -> int:
        return self.axis.size

    @property
    def step(self) -> float:
        """Grid spacing; 0.0 for a degenerate single-sample grid."""
        return float(self.axis[1] - self.axis[0]) if self.n > 1 else 0.0

    def same_as(self, other: "Grid2D") -> bool:
        return (
            self.n == other.n
            and self.extent == other.extent
            and np.array_equal(self.axis, other.axis)
        )


def make_grid(n: int, extent: float = 3.0) -> Grid2D:
    """Uniform symmetric n x n grid with axis endpoints at +-extent."""
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool) or n < 2:
        raise InvalidConfigError(f"grid.n must be an integer >= 2, got {n!r}")
    if not np.isfinite(extent) or extent <= 0:
        raise InvalidConfigError(f"grid.extent must be finite and positive, got {extent!r}")
    return Grid2D(axis=np.linspace(-extent, extent, int(n)), extent=float(extent))


@dataclass(frozen=True)
class LGBeamSpec:
    """One Laguerre-Gaussian input: amplitude, topological charge, waist."""

    epsilon: float
    tc: int
    waist: float = 1.0

    def __post_init__(self):
        if not np.isfinite(self.epsilon) or self.epsilon < 0:
            raise InvalidConfigError(f"beam epsilon must be >= 0, got {self.epsilon!r}")
        if isinstance(self.tc, bool) or int(self.tc) != self.tc:
            raise InvalidConfigError(f"beam tc must be a signed integer, got {self.tc!r}")
        if not np.isfinite(self.waist) or self.waist <= 0:
            raise InvalidConfigError(f"beam waist must be positive, got {self.waist!r}")


@dataclass(eq=False)
class ComplexField:
    """Complex amplitude per grid pixel, same units as the beam amplitude.

    orders, if set, maps each angular order k to its radial part R_k(r):
    the field is sum_k R_k(r) exp(i k theta) at any polar point, and values
    is that sum on the grid up to rounding.  A bare array has none.
    """

    grid: Grid2D
    values: np.ndarray
    orders: dict[int, Callable[[np.ndarray], np.ndarray]] | None = None

    def __post_init__(self):
        self.values = np.ascontiguousarray(self.values, dtype=complex)
        if self.values.shape != (self.grid.n, self.grid.n):
            raise InvalidConfigError(
                f"field shape {self.values.shape} does not match grid n={self.grid.n}"
            )
        if not np.all(np.isfinite(self.values.view(float))):
            raise InvalidConfigError("field contains non-finite values")

    @cached_property
    def peak(self) -> float:
        """Largest amplitude |value| on the grid, scanned once per field."""
        return float(np.max(np.abs(self.values)))


def _lg(spec: LGBeamSpec, r, theta):
    rho = r / spec.waist
    radial = rho ** abs(spec.tc) * np.exp(-rho * rho)
    unit = radial * np.exp(1j * spec.tc * theta)
    # epsilon multiplies last so amplitude scaling is exact, not just close
    return spec.epsilon * unit


def sample_lg(spec: LGBeamSpec, grid: Grid2D) -> ComplexField:
    """Sample eps * (r/w)^|l| * exp(-(r/w)^2) * exp(i*l*theta) on the grid.

    The r = 0 pixel is evaluated exactly: 0**0 == 1 gives eps for l = 0,
    and the radial factor is exactly zero for l != 0, so the phase
    singularity needs no epsilon offset.  The field has the one order l,
    whose radial part is the formula at theta = 0.
    """
    orders = {spec.tc: partial(_lg, spec, theta=0.0)}
    return ComplexField(grid, _lg(spec, grid.r, grid.theta), orders)
