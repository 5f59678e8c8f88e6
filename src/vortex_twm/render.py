"""Bit-exact serialization: PGM intensity maps, PPM phase maps, CSV tables.

All writers are byte-deterministic for identical inputs: no timestamps,
fixed header formatting, locale-independent number formatting, and
round-half-up quantization (intensities are nonnegative, so floor(x + 0.5)
has no ties-toward-zero ambiguity).
"""
from __future__ import annotations

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


def write_intensity_pgm(field: ComplexField, path) -> None:
    """Binary PGM (P5) of |field|^2 scaled to the image's own maximum; a zero field is black."""
    inten = np.abs(field.values) ** 2
    peak = field.peak * field.peak  # squaring is monotone, so this is inten.max()
    ratio = inten / peak if peak > 0.0 else inten
    _write_pnm(path, "P5", np.floor(255.0 * ratio + 0.5).astype(np.uint8))


def write_phase_ppm(field: ComplexField, path) -> None:
    """Binary PPM (P6) phase map.

    hue = (arg + pi) / (2 pi) through the standard hue wheel; pixels whose
    amplitude is below analysis.AMPLITUDE_FLOOR of the field maximum are
    black (phase there is noise), and so is every pixel of a zero field.
    """
    amp = np.abs(field.values)
    h6 = ((np.angle(field.values) + np.pi) / (2.0 * np.pi) % 1.0) * 6.0
    # piecewise-linear wheel, full saturation and brightness: each segment
    # is an exact (Sterbenz) difference of h6, clipped to [0, 1]
    wheel = np.maximum(2.0 - h6, h6 - 4.0), np.minimum(h6, 4.0 - h6), np.minimum(h6 - 2.0, 6.0 - h6)
    rgb = np.empty(h6.shape + (3,), dtype=np.uint8)
    for k, level in enumerate(wheel):
        rgb[..., k] = np.floor(255.0 * np.clip(level, 0.0, 1.0) + 0.5)
    rgb[(amp < AMPLITUDE_FLOOR * field.peak) | (amp == 0.0)] = 0
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


def write_profile_csv(profile: AzimuthalProfile, path) -> None:
    """Header "theta,intensity", one row per azimuthal sample."""
    pairs = np.column_stack([profile.thetas, profile.intensities])
    template = f"{_CELL},{_CELL}\n" * len(pairs)
    _write_csv(path, "theta,intensity", [(template, pairs.ravel().tolist())])


def write_metrics_csv(rows: list[dict], columns, path) -> None:
    """Header of the column names, then one line per row dict; a missing column is blank.

    A float cell (numpy's too) is written as _CELL, any other as str().
    """

    def lines():
        for row in rows:
            cells = [row.get(c, "") for c in columns]
            yield ",".join(_CELL if isinstance(v, float) else "%s" for v in cells) + "\n", cells

    _write_csv(path, ",".join(columns), lines())
