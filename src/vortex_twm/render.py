"""Bit-exact serialization: PGM intensity maps, PPM phase maps, CSV tables.

All writers are byte-deterministic for identical inputs: no timestamps,
fixed header formatting, locale-independent number formatting, and
round-half-up quantization (intensities are nonnegative, so floor(x + 0.5)
has no ties-toward-zero ambiguity).
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np

from .analysis import AMPLITUDE_FLOOR, AzimuthalProfile
from .beams import ComplexField

__all__ = [
    "write_intensity_pgm",
    "write_phase_ppm",
    "write_field_csv",
    "write_profile_csv",
    "write_metrics_csv",
]


def _write_pnm(path, magic: str, pixels: np.ndarray) -> None:
    """Binary PNM with maxval 255; file rows run top to bottom, grid rows with ascending y."""
    n = pixels.shape[0]
    with open(path, "wb") as fh:
        fh.write(f"{magic}\n{n} {n}\n255\n".encode("ascii"))
        fh.write(pixels[::-1].tobytes())


def _quantize(level: np.ndarray) -> np.ndarray:
    """floor(255 level + 0.5) as uint8, computed in level's own buffer."""
    level *= 255.0
    level += 0.5
    return np.floor(level, out=level).astype(np.uint8)


def write_intensity_pgm(field: ComplexField, path) -> None:
    """Binary PGM (P5) of |field|^2 scaled to the image's own maximum; a zero field is black."""
    peak = field.peak * field.peak  # squaring is monotone, so this is max |field|^2
    ratio = np.abs(field.values)
    ratio **= 2
    if peak > 0.0:
        ratio /= peak
    _write_pnm(path, "P5", _quantize(ratio))


def write_phase_ppm(field: ComplexField, path) -> None:
    """Binary PPM (P6) phase map.

    hue = (arg + pi) / (2 pi) through the standard hue wheel; pixels whose
    amplitude is below analysis.AMPLITUDE_FLOOR of the field maximum are
    black (phase there is noise), and so is every pixel of a zero field.
    The arithmetic runs in three reused float buffers, never in field.values.
    """
    threshold = AMPLITUDE_FLOOR * field.peak
    h6 = np.abs(field.values)
    dark = (h6 < threshold) | (h6 == 0.0)
    # arg lies in [-pi, pi] and rounding is monotone, so hue lies in [0, 1];
    # its one value outside the wheel's [0, 1), 1, is mapped to 0
    np.arctan2(field.values.imag, field.values.real, out=h6)  # np.angle
    h6 += np.pi
    h6 /= 2.0 * np.pi
    h6[h6 == 1.0] = 0.0
    h6 *= 6.0
    # piecewise-linear wheel, full saturation and brightness: each segment
    # is an exact (Sterbenz) difference of h6, clipped to [0, 1]
    level, other = np.empty_like(h6), np.empty_like(h6)
    rgb = np.empty(h6.shape + (3,), dtype=np.uint8)

    def put(k: int, wheel: np.ndarray) -> None:
        rgb[..., k] = _quantize(np.clip(wheel, 0.0, 1.0, out=wheel))

    put(0, np.maximum(np.subtract(2.0, h6, out=level), np.subtract(h6, 4.0, out=other), out=level))
    put(1, np.minimum(h6, np.subtract(4.0, h6, out=other), out=level))
    put(2, np.minimum(np.subtract(h6, 2.0, out=level), np.subtract(6.0, h6, out=other), out=level))
    rgb[dark] = 0
    _write_pnm(path, "P6", rgb)


_CELL = "%.17g"  # round-trips any finite double exactly


def _write_csv(path, header: str, rows) -> None:
    """Header line, then each (template, values) row as one `%` call, streamed."""
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(header + "\n")
        for template, values in rows:
            fh.write(template % tuple(values))


def write_field_csv(field: ComplexField, path) -> None:
    """Header "x,y,re,im", one row per pixel in row-major grid order.

    Each axis value is formatted once; a grid row's x,y text is baked into
    its template, which takes that row's interleaved re,im doubles.
    """
    axis = [_CELL % a for a in field.grid.axis.tolist()]
    reim = field.values.view(np.float64)

    def rows():
        for y, row in zip(axis, reim):
            sep = f",{y},{_CELL},{_CELL}\n"
            yield sep.join(axis) + sep, row.tolist()

    _write_csv(path, "x,y,re,im", rows())


@lru_cache(maxsize=4)
def _profile_template(thetas: bytes) -> str:
    """The rows of a profile with these float64 thetas, each intensity left as _CELL."""
    return "".join(f"{_CELL % t},{_CELL}\n" for t in np.frombuffer(thetas).tolist())


def write_profile_csv(profile: AzimuthalProfile, path) -> None:
    """Header "theta,intensity", one row per azimuthal sample; a thetas array is formatted once."""
    template = _profile_template(np.asarray(profile.thetas, dtype=float).tobytes())
    _write_csv(path, "theta,intensity", [(template, profile.intensities.tolist())])


def write_metrics_csv(rows: list[dict], columns, path) -> None:
    """Header of the column names, then one line per row dict; a missing column is blank.

    A float cell (numpy's too) is written as _CELL, any other as str().
    """

    def lines():
        for row in rows:
            cells = [row.get(c, "") for c in columns]
            yield ",".join(_CELL if isinstance(v, float) else "%s" for v in cells) + "\n", cells

    _write_csv(path, ",".join(columns), lines())
