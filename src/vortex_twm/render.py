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


# ------------------------------------------------- _CELL for blocks of doubles
# A double v != 0 prints as D = round(|v| 10**(16 - E)), E = floor(log10 |v|):
# its 17 significant digits, laid out by %g's rules. The kernel forms the
# product as a double-double within 2**-46 of the exact one, so the rounding
# is certain unless the fraction lies within _NEAR_HALF of 1/2. Those values,
# every |v| within about 1e-10 (relative) of a power of ten or outside
# [_FAST_MIN, _FAST_MAX], and non-finite ones take `%`; zeros stay on the
# kernel as "0" and "-0".

# every product below stays a normal double; |v| < 10 keeps the point after the first digit
_FAST_MIN, _FAST_MAX = 3e-280, 9.999999999
_E_MIN, _E_MAX = -281, 1  # exponents E of that range, with room for log10 to miss by one
_NEAR_HALF = 2.0**-24
_DEKKER = 134217729.0  # 2**27 + 1 splits a double into two halves of 26 bits
_LANE = np.dtype("<u8")  # 8 bytes of text, the first in the low byte
_SLOT = 32  # one double in a line buffer: 29 bytes of text, NUL-padded, 2 NULs, its separator


def _split(a):
    """Dekker's split a = high + low, each half with at most 26 significant bits."""
    big = _DEKKER * a
    high = big - (big - a)
    return high, a - high


@lru_cache(maxsize=1)
def _g17_tables():
    """The kernel's lookup tables, built from exact integers on first use.

    tens: per E in [_E_MIN, _E_MAX], the halves of the double nearest
    10**(16 - E) and the double nearest the remainder (float of an int
    rounds correctly). quads: the four characters of g < 10**4 as a
    uint32, then at g + 10**4 the same with trailing zeros NUL. heads,
    tails: lanes 0 and 3 of a slot (see _format_g17), per E, sign and
    one-digit mantissa, and per E.
    """
    powers = [10 ** (16 - e) for e in range(_E_MIN, _E_MAX + 1)]
    nearest = [float(p) for p in powers]
    tens = (*_split(np.array(nearest)), np.array([float(p - int(f)) for p, f in zip(powers, nearest)]))
    digits = np.arange(10**4, dtype=np.int32)[:, None] // np.array([1000, 100, 10, 1], np.int32) % 10
    chars = (digits + ord("0")).astype(np.uint8)
    trailing = np.logical_and.accumulate(digits[:, ::-1] == 0, axis=1)[:, ::-1]
    quads = np.concatenate([chars, np.where(trailing, 0, chars).astype(np.uint8)])
    heads, tails = [], []
    for e in range(_E_MIN, _E_MAX + 1):
        fixed = e >= -4
        tails.append((b"" if fixed else b"e%+03d" % e).ljust(8, b"\0"))
        lead = b"0." + b"0" * (-e - 1) if fixed and e < 0 else b""
        for sign in (b"", b"-"):
            for single in (False, True):
                point = b"\0" if single or lead else b"."
                heads.append((sign + lead).ljust(7, b"\0") + point)
    quads = quads.view(np.uint32).ravel()
    for table in (*tens, quads):
        table.flags.writeable = False  # shared by every caller, threads included
    return tens, quads, np.frombuffer(b"".join(heads), _LANE), np.frombuffer(b"".join(tails), _LANE)


def _scaled(a, at, tens):
    """(h, s): a 10**(16 - E) ~ h + s with |s| <= ulp(h) / 2, where E = at + _E_MIN.

    a (high + low + rest) is Dekker's exact two-product of a and high + low,
    plus a rounded a * rest; for products below 2**57 the sum misses the
    exact product by less than 2**-46.
    """
    high, low, rest = (np.take(t, at, mode="clip") for t in tens)
    a_high, a_low = _split(a)
    p = high + low  # the double nearest the power, exactly
    p *= a
    err = a_high * high
    err -= p
    err += a_high * low
    err += a_low * high
    err += a_low * low
    err += a * rest
    h = p + err
    p -= h
    p += err
    return h, p


def _format_g17(x: np.ndarray, slots: np.ndarray) -> int:
    """Write _CELL % v of each double v of x into its slot; return how many took `%`.

    slots is uint8 of shape x.shape + (_SLOT,). A slot gets its text in its
    first 29 bytes, NUL-padded; its last byte is left as it is. In 8-byte
    lanes: 0 holds the sign, a leading "0." with its zeros, the first digit
    and the point; 1 and 2 the other 16 digits, four to a quad, all quads
    in one table lookup, trailing zeros NUL; 3 the exponent. Nothing is
    scanned for `%` when every value took the kernel.
    """
    tens, quads, heads, tails = _g17_tables()
    a = np.abs(x)
    zero = a == 0.0  # "0" or "-0", on this path
    # out-of-range and non-finite values get a stand-in, so that no step warns
    c = np.fmin(np.fmax(a, _FAST_MIN), _FAST_MAX)
    fast = c == a
    at = np.log10(c)
    at -= _E_MIN
    at = at.astype(np.intp)  # E - _E_MIN: truncation is floor, as at > 0
    h, s = _scaled(c, at, tens)
    # beside a power of ten E may be one off and D may round up to 10**17
    fast &= (h >= 1.0000000001e16) & (h <= 0.9999999999e17)
    r = np.rint(s)
    s -= r
    fast &= np.abs(s, out=s) < 0.5 - _NEAR_HALF
    d = h.astype(np.int64)
    d += r.astype(np.int64)
    d[zero] = 0
    at[zero] = -_E_MIN

    # D = first 10**16 + high 10**8 + low; high and low make two quads each
    ten4 = np.uint32(10**4)
    high = (d // 10**8).astype(np.uint32)
    d -= high * np.int64(10**8)
    low = d.astype(np.uint32)
    first = high // np.uint32(10**8)
    high -= first * np.uint32(10**8)
    quad = np.empty((4,) + x.shape, np.uint32)  # each quad contiguous: no strided arithmetic
    np.divmod(high, ten4, out=(quad[0], quad[1]))
    np.divmod(low, ten4, out=(quad[2], quad[3]))
    trim2 = low == 0  # a quad with only zeros after it is looked up trimmed
    single = trim2 & (high == 0)
    quad[0] += (trim2 & (quad[1] == 0)) * ten4
    quad[1] += trim2 * ten4
    quad[2] += (quad[3] == 0) * ten4
    quad[3] += ten4
    np.moveaxis(slots.view(np.uint32)[..., 2:6], -1, 0)[...] = np.take(quads, quad, mode="clip")

    lanes = slots.view(_LANE)
    head = at * 4
    head += np.signbit(x) * 2
    head += single
    head = np.take(heads, head, mode="clip")
    first += ord("0")
    head |= first.astype(_LANE) << np.uint64(48)
    lanes[..., 0] = head
    lanes[..., 3] &= np.uint64(0xFF << 56)
    lanes[..., 3] |= np.take(tails, at, mode="clip")

    fast |= zero
    if fast.all():
        return 0
    scalar = np.nonzero(~fast)
    for i, v in zip(zip(*scalar), x[scalar].tolist()):
        text = (_CELL % v).encode("ascii")
        slots[i][: _SLOT - 1] = 0
        slots[i][: len(text)] = np.frombuffer(text, np.uint8)
    return len(scalar[0])


_BLOCK = 2048  # pixels formatted at once: whole grid rows, at least one


def write_field_csv(field: ComplexField, path) -> None:
    """Header "x,y,re,im", one row per pixel in row-major grid order, each number _CELL.

    A block of grid rows at a time is laid out in one reused buffer of
    fixed-width, NUL-padded lines: the axis text, formatted once, and the
    re,im slots of _format_g17, which reads the block through its float64
    view. Its lines are written 1024 at a time, their NULs dropped by
    bytes.translate. A block is copied only when its rows are strided.
    """
    n = field.grid.n
    axis = np.array([(_CELL % a).encode("ascii") for a in field.grid.axis.tolist()])
    text = axis.view(np.uint8).reshape(n, -1)  # NUL-padded
    w = text.shape[1]
    head = -(-(2 * w + 2) // 8) * 8  # x, y and their commas, to a whole lane
    rows = min(n, max(1, _BLOCK // n))
    lines = np.zeros((rows, n, head + 2 * _SLOT), np.uint8)
    lines[..., :w] = text
    lines[..., w] = lines[..., 2 * w + 1] = lines[..., head + _SLOT - 1] = ord(",")
    lines[..., -1] = ord("\n")
    slots = lines[..., head:].reshape(rows, n, 2, _SLOT)
    with open(path, "wb") as fh:
        fh.write(b"x,y,re,im\n")
        for top in range(0, n, rows):
            block = np.ascontiguousarray(field.values[top : top + rows])
            m = len(block)
            lines[:m, :, w + 1 : 2 * w + 1] = text[top : top + m, None]
            _format_g17(block.view(np.float64).reshape(m, n, 2), slots[:m])
            # 1024 lines of at most 120 bytes to a write: at any n each copy stays under
            # glibc's 128 KiB mmap threshold, so no block maps and unmaps fresh pages
            flat = lines[:m].reshape(m * n, -1)
            for start in range(0, m * n, _BLOCK // 2):
                fh.write(flat[start : start + _BLOCK // 2].tobytes().translate(None, b"\0"))


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
