import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from vortex_twm.beams import ComplexField, GridSpec, sample_lg, LGBeamSpec, lg_radial
from vortex_twm import render
from vortex_twm.render import (
    write_field_csv,
    write_intensity_pgm,
    write_metrics_csv,
    write_phase_ppm,
    write_profile_csv,
)
from vortex_twm.analysis import AMPLITUDE_FLOOR, DEFAULT_M, AzimuthalProfile, azimuthal_profile
from vortex_twm.config import load_config
from vortex_twm.errors import StructurelessProfileError
from vortex_twm.runner import Blank, compute_fields

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def _lg_profile(tc, radius, m=DEFAULT_M):
    """The profile of a unit Laguerre-Gaussian beam of charge tc on the ring of that radius."""
    return azimuthal_profile(radius, {tc: lg_radial(LGBeamSpec(1.0, tc))(radius)}, m)


def _field_2x2(values):
    g = GridSpec(2, 1.0)
    return ComplexField(g, np.asarray(values, dtype=complex))


def _read_pgm(path):
    raw = path.read_bytes()
    assert raw.startswith(b"P5\n")
    _, dims, maxval, rest = raw.split(b"\n", 3)
    w, h = (int(t) for t in dims.split())
    assert maxval == b"255"
    return np.frombuffer(rest, dtype=np.uint8).reshape(h, w)


def _read_ppm(path):
    raw = path.read_bytes()
    assert raw.startswith(b"P6\n")
    _, dims, maxval, rest = raw.split(b"\n", 3)
    w, h = (int(t) for t in dims.split())
    assert maxval == b"255"
    return np.frombuffer(rest, dtype=np.uint8).reshape(h, w, 3)


def test_pgm_quantization_levels(tmp_path):
    # |values|^2 of {0, 1, 0.5, 0.25}, scaled to the image maximum
    f = _field_2x2([[0.0, 1.0], [np.sqrt(0.5), 0.5]])
    p = tmp_path / "a.pgm"
    write_intensity_pgm(f, p)
    img = _read_pgm(p)
    # file top row is the max-y grid row
    assert img[1, 0] == 0 and img[1, 1] == 255
    assert img[0, 0] == 128 and img[0, 1] == 64


def test_pgm_row_order_top_is_max_y(tmp_path):
    g = GridSpec(3, 1.0)
    vals = np.zeros((3, 3))
    vals[2, 0] = 1.0  # grid row 2 = y maximum
    f = ComplexField(g, vals)
    p = tmp_path / "b.pgm"
    write_intensity_pgm(f, p)
    img = _read_pgm(p)
    assert img[0, 0] == 255
    assert img.sum() == 255


def test_pgm_zero_field_all_black(tmp_path):
    f = _field_2x2(np.zeros((2, 2)))
    p = tmp_path / "z.pgm"
    write_intensity_pgm(f, p)
    assert not _read_pgm(p).any()


def test_ppm_constant_real_field_is_cyan(tmp_path):
    f = _field_2x2(np.full((2, 2), 2.5))
    p = tmp_path / "e.ppm"
    write_phase_ppm(f, p)
    img = _read_ppm(p)
    assert np.array_equal(img.reshape(-1, 3), np.tile([0, 255, 255], (4, 1)))


def test_ppm_zero_field_black(tmp_path):
    f = _field_2x2(np.zeros((2, 2)))
    p = tmp_path / "f.ppm"
    write_phase_ppm(f, p)
    assert not _read_ppm(p).any()


def test_ppm_floor_pixels_black(tmp_path):
    # one floor for "phase is noise": the one winding_number refuses below
    f = _field_2x2([[1.0, 0.5 * AMPLITUDE_FLOOR], [AMPLITUDE_FLOOR * 1j, -1.0]])
    p = tmp_path / "g.ppm"
    write_phase_ppm(f, p)
    img = _read_ppm(p)
    assert not img[1, 1].any()          # below the floor -> black
    assert img[1, 0].any() and img[0, 0].any() and img[0, 1].any()


def test_ppm_vortex_hue_winds(tmp_path):
    g = GridSpec(65, 3.0)
    f = sample_lg(LGBeamSpec(1.0, 1), g)
    p = tmp_path / "h.ppm"
    write_phase_ppm(f, p)
    img = _read_ppm(p)
    mid = 32
    east = img[64 - mid, 60]   # theta ~ 0 -> arg 0 -> cyan
    west = img[64 - mid, 4]    # theta ~ pi -> arg pi -> red
    assert tuple(east) == (0, 255, 255)
    assert west[0] == 255 and west[1] == 0
    # colors around the ring cover all six hue sectors
    ring = [img[64 - mid + dy, mid + dx] for dx, dy in
            [(20, 0), (14, 14), (0, 20), (-14, 14), (-20, 0), (-14, -14), (0, -20), (14, -14)]]
    assert len({tuple(c) for c in ring}) == 8


def test_field_csv_two_by_two(tmp_path):
    # the smallest grid: rows y outer, x inner, both ascending; every value %.17g
    f = _field_2x2([[1.0 + 2.0j, 0.5 - 0.25j], [complex(-3.0, -0.0), 0.1 + 1e-20j]])
    p = tmp_path / "two.csv"
    write_field_csv(f, p)
    assert p.read_text() == (
        "x,y,re,im\n"
        "-1,-1,1,2\n"
        "1,-1,0.5,-0.25\n"
        "-1,1,-3,-0\n"
        "1,1,0.10000000000000001,9.9999999999999995e-21\n"
    )


def test_field_csv_line_count(tmp_path):
    g = GridSpec(256, 3.0)
    f = ComplexField(g, np.zeros((256, 256)))
    p = tmp_path / "big.csv"
    write_field_csv(f, p)
    assert sum(1 for _ in p.open()) == 256 * 256 + 1


@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],  # seed-unique filenames
)
def test_field_csv_round_trip_exact(tmp_path, seed):
    rng = np.random.default_rng(seed)
    g = GridSpec(8, 2.0)
    vals = rng.normal(size=(8, 8)) * 10.0 ** rng.integers(-12, 12) + 1j * rng.normal(size=(8, 8))
    f = ComplexField(g, vals)
    p = tmp_path / f"rt{seed}.csv"
    write_field_csv(f, p)
    data = np.loadtxt(p, delimiter=",", skiprows=1)
    x, y = np.meshgrid(g.axis, g.axis)
    assert np.array_equal(data[:, 0], x.ravel())
    assert np.array_equal(data[:, 1], y.ravel())
    assert np.array_equal(data[:, 2] + 1j * data[:, 3], vals.ravel())


def test_profile_csv_round_trip(tmp_path):
    prof = _lg_profile(1, 0.7, m=32)
    p = tmp_path / "prof.csv"
    write_profile_csv(prof, p)
    lines = p.read_text().splitlines()
    assert lines[0] == "theta,intensity"
    assert len(lines) == 33
    data = np.loadtxt(p, delimiter=",", skiprows=1)
    assert np.array_equal(data[:, 0], prof.thetas)
    assert np.array_equal(data[:, 1], prof.intensities)


def test_profile_csv_keeps_each_profiles_own_thetas(tmp_path):
    # the theta column is formatted once per thetas array: same-length profiles share none
    prof = _lg_profile(1, 0.7, m=32)
    shifted = AzimuthalProfile(prof.radius, prof.thetas + 0.1, prof.intensities[::-1], prof.orders)
    for tag, want in enumerate((prof, shifted, prof)):
        path = tmp_path / f"prof{tag}.csv"
        write_profile_csv(want, path)
        data = np.loadtxt(path, delimiter=",", skiprows=1)
        assert np.array_equal(data[:, 0], want.thetas)
        assert np.array_equal(data[:, 1], want.intensities)


def test_metrics_csv_cells(tmp_path):
    # a float cell is %.17g, which equals format(v, ".17g") for every double
    rng = np.random.default_rng(14)
    doubles = rng.integers(0, 2**64, 10_000, dtype=np.uint64).view(np.float64).tolist()
    doubles += [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -1.7976931348623157e308]
    rows = [{"v": v, "k": "omega_d"} for v in doubles] + [{"v": np.float64(0.1), "k": 3}, {}]
    path = tmp_path / "metrics.csv"
    write_metrics_csv(rows, ("k", "v"), path)
    want = [f"omega_d,{v:.17g}" for v in doubles] + ["3,0.10000000000000001", ","]
    assert path.read_bytes().decode("ascii").split("\n") == ["k,v", *want, ""]


def test_a_blank_cell_is_written_empty(tmp_path):
    # a Blank keeps its reason in .why and prints it, and the file sees only ""
    blank = Blank(StructurelessProfileError("profile has no azimuthal structure"))
    assert repr(blank) == "Blank(StructurelessProfileError('profile has no azimuthal structure'))"
    assert blank == "" and str(blank) == "" and f"{blank}" == ""
    path = tmp_path / "metrics.csv"
    write_metrics_csv([{"k": blank, "v": 0.5}, {"k": "omega_d", "v": blank}], ("k", "v"), path)
    assert path.read_bytes() == b"k,v\n,0.5\nomega_d,\n"


def test_writers_byte_deterministic(tmp_path):
    g = GridSpec(32, 3.0)
    f = sample_lg(LGBeamSpec(1.0, 2), g)
    prof = _lg_profile(2, 1.0)
    pairs = []
    for tag in ("1", "2"):
        pgm = tmp_path / f"i{tag}.pgm"
        ppm = tmp_path / f"p{tag}.ppm"
        csv = tmp_path / f"c{tag}.csv"
        pcsv = tmp_path / f"q{tag}.csv"
        write_intensity_pgm(f, pgm)
        write_phase_ppm(f, ppm)
        write_field_csv(f, csv)
        write_profile_csv(prof, pcsv)
        pairs.append(tuple(q.read_bytes() for q in (pgm, ppm, csv, pcsv)))
    assert pairs[0] == pairs[1]


# ---------------------------------------------------------------- byte oracle
# The writers' former np.savetxt call, kept as the reference for their bytes.


def _savetxt(path, header, columns):
    np.savetxt(path, np.column_stack(columns), fmt="%.17g", delimiter=",", header=header, comments="")


def _assert_field_matches_oracle(f, tmp_path, tag=""):
    v = f.values
    x, y = np.meshgrid(f.grid.axis, f.grid.axis)
    ref, got = tmp_path / f"ref{tag}.csv", tmp_path / f"got{tag}.csv"
    _savetxt(ref, "x,y,re,im", [x.ravel(), y.ravel(), v.real.ravel(), v.imag.ravel()])
    write_field_csv(f, got)
    assert got.read_bytes() == ref.read_bytes()


# -0.0, the smallest subnormal, +-1e300 and integers, which print without a point
EDGE_VALUES = [-0.0, 5e-324, 1e300, -1e300, 1.0, -7.0, 2.0**53, 0.1]


@pytest.mark.parametrize("n", [2, 8, 201, 257])
def test_field_csv_matches_savetxt(tmp_path, n):
    g = GridSpec(n, 3.0)
    rng = np.random.default_rng(n)
    flat = rng.normal(size=2 * n * n) * 10.0 ** rng.integers(-20, 20, size=2 * n * n)
    k = min(len(EDGE_VALUES), flat.size)
    flat[:k] = EDGE_VALUES[:k]
    flat[-k:] = EDGE_VALUES[::-1][:k]
    vals = flat.view(complex).reshape(n, n).T  # values need not be C-contiguous
    _assert_field_matches_oracle(ComplexField(g, vals), tmp_path)


def test_field_csv_real_array_matches_savetxt(tmp_path):
    g = GridSpec(8, 2.0)
    vals = np.arange(64, dtype=np.float64).reshape(8, 8) - 31.5
    vals[0, 0] = -0.0
    _assert_field_matches_oracle(ComplexField(g, vals), tmp_path)


def test_field_csv_transfer_products_match_savetxt(tmp_path):
    fields = compute_fields(load_config(CONFIGS / "transfer.json"))
    assert len(fields) == 6
    for name, f in fields.items():
        _assert_field_matches_oracle(f, tmp_path, name)


@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],  # seed-unique filenames
)
def test_field_csv_matches_savetxt_random(tmp_path, seed):
    rng = np.random.default_rng(seed)
    g = GridSpec(8, 2.0)
    vals = rng.normal(size=(8, 8)) * 10.0 ** rng.integers(-12, 12) + 1j * rng.normal(size=(8, 8))
    _assert_field_matches_oracle(ComplexField(g, vals), tmp_path, seed)


@pytest.mark.parametrize("m", [32, 720])
def test_profile_csv_matches_savetxt(tmp_path, m):
    prof = _lg_profile(2, 0.9, m=m)
    ref, got = tmp_path / "ref.csv", tmp_path / "got.csv"
    _savetxt(ref, "theta,intensity", [prof.thetas, prof.intensities])
    write_profile_csv(prof, got)
    assert got.read_bytes() == ref.read_bytes()


def test_field_csv_streams_rows(tmp_path):
    # a 256^2 CSV is ~5 MiB of text; writing row by row keeps Python memory far under it
    f = sample_lg(LGBeamSpec(1.0, 1), GridSpec(256, 3.0))
    tracemalloc.start()
    try:
        write_field_csv(f, tmp_path / "stream.csv")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


# ---------------------------------------------------------- phase-map oracle
# The former np.select hue wheel, kept as the reference for write_phase_ppm's bytes.


def _select_wheel_ppm(field: ComplexField) -> bytes:
    amp = np.abs(field.values)
    hue = (np.angle(field.values) + np.pi) / (2.0 * np.pi)
    h6 = (hue % 1.0) * 6.0
    sector = np.floor(h6).astype(int) % 6
    frac = h6 - np.floor(h6)
    one, zero = np.ones_like(frac), np.zeros_like(frac)
    sel = [sector == k for k in range(5)]
    r = np.select(sel, [one, 1.0 - frac, zero, zero, frac], default=one)
    g = np.select(sel, [frac, one, one, 1.0 - frac, zero], default=zero)
    b = np.select(sel, [zero, zero, frac, one, one], default=1.0 - frac)
    rgb = np.stack((r, g, b), axis=-1)
    rgb[(amp < AMPLITUDE_FLOOR * amp.max()) | (amp == 0.0)] = 0.0
    pixels = np.floor(255.0 * rgb + 0.5).astype(np.uint8)
    n = field.grid.n
    return f"P6\n{n} {n}\n255\n".encode("ascii") + pixels[::-1].tobytes()


def _assert_ppm_matches_oracle(field, path):
    write_phase_ppm(field, path)
    assert path.read_bytes() == _select_wheel_ppm(field)


@pytest.mark.parametrize("name", ["transfer.json", "interference.json"])
def test_phase_ppm_matches_select_wheel_on_products(tmp_path, name):
    fields = compute_fields(load_config(CONFIGS / name))
    assert len(fields) == 6
    for key, f in fields.items():
        _assert_ppm_matches_oracle(f, tmp_path / f"{key}.ppm")


def _angles_near(angles, ulps=3):
    """Each angle and its nearest ulps neighbours either side."""
    out = []
    for a in angles:
        lo = hi = a
        for _ in range(ulps):
            lo, hi = np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf)
            out += [lo, hi]
        out.append(a)
    return np.array(out)


def test_phase_ppm_matches_select_wheel_at_sector_boundaries(tmp_path):
    # arg = 2 pi k / 6 - pi puts h6 on the integer k, where two sectors meet
    angles = _angles_near([2.0 * np.pi * k / 6.0 - np.pi for k in range(7)] + [0.0])
    values = list(np.exp(1j * angles)) + [-1.0 + 0.0j, complex(-1.0, -0.0), 1.0, 1j, -1j]
    h6 = ((np.angle(values) + np.pi) / (2.0 * np.pi) % 1.0) * 6.0
    assert set(range(6)) <= set(h6[h6 == np.floor(h6)].astype(int))  # exact boundaries hit
    n = int(np.ceil(np.sqrt(len(values))))
    grid = np.zeros(n * n, dtype=complex)
    grid[: len(values)] = values
    f = ComplexField(GridSpec(n, 1.0), grid.reshape(n, n))
    _assert_ppm_matches_oracle(f, tmp_path / "boundaries.ppm")


def test_phase_ppm_matches_select_wheel_at_the_amplitude_floor(tmp_path):
    phases = np.exp(1j * np.linspace(-np.pi, np.pi, 16))
    levels = [1.0, AMPLITUDE_FLOOR, 0.5 * AMPLITUDE_FLOOR, np.nextafter(AMPLITUDE_FLOOR, 0.0), 0.0]
    vals = np.array([lvl * phases for lvl in levels] + [np.zeros(16)] * 11)
    f = ComplexField(GridSpec(16, 1.0), vals)
    _assert_ppm_matches_oracle(f, tmp_path / "floor.ppm")
    img = _read_ppm(tmp_path / "floor.ppm")
    assert img[15].any() and img[14].any()  # full amplitude, and exactly at the floor
    assert not img[:14].any()  # half the floor, just below it, and zero
    _assert_ppm_matches_oracle(_field_2x2(np.zeros((2, 2))), tmp_path / "zero.ppm")


@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],  # seed-unique filenames
)
def test_phase_ppm_matches_select_wheel_random(tmp_path, seed):
    rng = np.random.default_rng(seed)
    vals = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
    vals *= 10.0 ** rng.integers(-14, 0, size=(9, 9))
    _assert_ppm_matches_oracle(ComplexField(GridSpec(9, 2.0), vals), tmp_path / f"r{seed}.ppm")


# ------------------------------------------------------ former image writers
# The two writers as they were before they worked in reused buffers, kept as
# the reference for their bytes.


def _former_pnm(magic: str, pixels: np.ndarray) -> bytes:
    n = pixels.shape[0]
    return f"{magic}\n{n} {n}\n255\n".encode("ascii") + pixels[::-1].tobytes()


def _former_pgm(field: ComplexField) -> bytes:
    inten = np.abs(field.values) ** 2
    peak = field.peak * field.peak
    ratio = inten / peak if peak > 0.0 else inten
    return _former_pnm("P5", np.floor(255.0 * ratio + 0.5).astype(np.uint8))


def _former_ppm(field: ComplexField) -> bytes:
    amp = np.abs(field.values)
    hue = (np.angle(field.values) + np.pi) / (2.0 * np.pi)
    hue[hue == 1.0] = 0.0
    h6 = hue * 6.0
    wheel = np.maximum(2.0 - h6, h6 - 4.0), np.minimum(h6, 4.0 - h6), np.minimum(h6 - 2.0, 6.0 - h6)
    rgb = np.empty(h6.shape + (3,), dtype=np.uint8)
    for k, level in enumerate(wheel):
        rgb[..., k] = np.floor(255.0 * np.clip(level, 0.0, 1.0) + 0.5)
    rgb[(amp < AMPLITUDE_FLOOR * field.peak) | (amp == 0.0)] = 0
    return _former_pnm("P6", rgb)


def _assert_writers_match_former(field: ComplexField, tmp_path) -> None:
    before = field.values.tobytes()
    write_intensity_pgm(field, tmp_path / "i.pgm")
    write_phase_ppm(field, tmp_path / "p.ppm")
    assert (tmp_path / "i.pgm").read_bytes() == _former_pgm(field)
    assert (tmp_path / "p.ppm").read_bytes() == _former_ppm(field)
    assert field.values.tobytes() == before


@pytest.mark.parametrize("seed", range(6))
def test_writers_match_former_on_random_phases(tmp_path, seed):
    rng = np.random.default_rng(seed)
    amp = rng.random((33, 33)) * 10.0 ** rng.integers(-6, 3, size=(33, 33))
    phase = rng.uniform(-np.pi, np.pi, size=(33, 33))
    _assert_writers_match_former(ComplexField(GridSpec(33, 2.0), amp * np.exp(1j * phase)), tmp_path)


def test_writers_match_former_at_angle_pi(tmp_path):
    # arg(-1 + 0j) is pi exactly, so hue is 1.0, the one value mapped to 0
    assert (np.angle(-1.0 + 0.0j) + np.pi) / (2.0 * np.pi) == 1.0
    values = [-1.0 + 0.0j, complex(-1.0, -0.0), -3.0 + 0.0j, 1.0, 1j, -1j]
    _assert_writers_match_former(_field_2x2(np.reshape(values[:4], (2, 2))), tmp_path)
    _assert_writers_match_former(_field_2x2(np.reshape(values[2:], (2, 2))), tmp_path)


def test_writers_match_former_at_the_amplitude_floor(tmp_path):
    at = 2.0 * AMPLITUDE_FLOOR  # exactly AMPLITUDE_FLOOR * peak for the peak 2.0
    values = np.array([[2.0, at * 1j], [np.nextafter(at, 0.0) * -1j, -at]])
    _assert_writers_match_former(_field_2x2(values), tmp_path)
    img = _read_ppm(tmp_path / "p.ppm")
    assert img[0].any(axis=-1).tolist() == [False, True]  # file row 0 is grid row 1
    assert img[1].any(axis=-1).tolist() == [True, True]


def test_writers_match_former_on_a_zero_field(tmp_path):
    _assert_writers_match_former(_field_2x2(np.zeros((2, 2))), tmp_path)
    assert not _read_pgm(tmp_path / "i.pgm").any() and not _read_ppm(tmp_path / "p.ppm").any()


def test_writers_leave_read_only_values_unchanged(tmp_path):
    values = sample_lg(LGBeamSpec(1.0, 2), GridSpec(32, 3.0)).values.copy()
    values.flags.writeable = False
    field = ComplexField(GridSpec(32, 3.0), values)
    assert field.values is values
    _assert_writers_match_former(field, tmp_path)


@pytest.mark.parametrize("writer, rasters", [(write_intensity_pgm, 2.0), (write_phase_ppm, 5.0)])
def test_image_writers_hold_few_rasters(tmp_path, writer, rasters):
    n = 512
    rng = np.random.default_rng(7)
    field = ComplexField(GridSpec(n, 3.0), rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    tracemalloc.start()
    try:
        writer(field, tmp_path / "image")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= rasters * 8 * n * n  # in float64 rasters, the peak scan included


# ------------------------------------------------------------ %.17g kernel
# write_field_csv formats re,im by render._format_g17, a numpy kernel whose
# every result must equal _CELL % v; values it cannot round with certainty
# take `%` itself.


def _kernel_text(values):
    """(texts, count sent to `%`) of render._format_g17 on a list of doubles."""
    x = np.array(values, dtype=np.float64)
    slots = np.full(x.shape + (render._SLOT,), 0xFF, np.uint8)  # every text byte must be written
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # not one warning, of any kind
        scalar = render._format_g17(x, slots)
    assert (slots[:, -1] == 0xFF).all()  # the separator byte is left alone
    return [bytes(s[:-1][s[:-1] != 0]).decode("ascii") for s in slots], scalar


def _assert_kernel_exact(values):
    texts, _ = _kernel_text(values)
    assert texts == ["%.17g" % v for v in values]


@given(
    bits=st.lists(st.integers(min_value=0, max_value=2**64 - 1), min_size=1, max_size=64),
    floats=st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True), max_size=64),
)
@settings(max_examples=300, deadline=None)
def test_g17_kernel_matches_percent_on_any_bit_pattern(bits, floats):
    doubles = np.array(bits, dtype=np.uint64).view(np.float64).tolist()
    _assert_kernel_exact(doubles + floats)


@given(
    a=st.floats(min_value=render._FAST_MIN, max_value=render._FAST_MAX),
    off=st.sampled_from([-1, 0, 1]),
)
@settings(max_examples=300, deadline=None)
def test_g17_product_is_within_its_bound(a, off):
    # h + s misses a 10**(16 - E) by less than 2**-46, for E = floor(log10 a) and its neighbours
    e = math.floor(math.log10(a)) + off
    at = np.array([e - render._E_MIN])
    h, s = render._scaled(np.array([a]), at, render._g17_tables()[0])
    exact = Fraction(a) * Fraction(10) ** (16 - e)
    assert abs(Fraction(float(h[0])) + Fraction(float(s[0])) - exact) < Fraction(1, 2**46)
    assert abs(float(s[0])) <= math.ulp(float(h[0])) / 2


def _near(v):
    return [np.nextafter(v, -np.inf), v, np.nextafter(v, np.inf)]


def test_g17_kernel_matches_percent_on_a_fixed_corpus():
    corpus = [0.0, -0.0, 5e-324, 99999999999999999.0, 9999999999999999.0, 0.1, 1.0, 100.0]
    corpus += [v for k in range(-323, 309) for v in _near(10.0**k)]
    corpus += [2.0**k for k in range(-1074, 1024)]
    corpus += [k / 8 for k in range(-4000, 4001)]  # exact ties among them
    corpus += [v for s in (1e-5, 1e-4, 1e16, 1e17) for v in _near(s)]  # %g's switch points
    rng = np.random.default_rng(24)
    # every layout: a point after each of the integer digits, and integers
    corpus += (rng.normal(size=4000) * 10.0 ** rng.integers(-8, 18, size=4000)).tolist()
    corpus += rng.integers(-(10**17), 10**17, size=2000).astype(float).tolist()
    _assert_kernel_exact(corpus + [-v for v in corpus])


def test_g17_kernel_keeps_zeros_on_its_own_path():
    texts, scalar = _kernel_text([0.0, -0.0, 2.0, -2.5, 3e-7])
    assert texts == ["0", "-0", "2", "-2.5", "2.9999999999999999e-07"]
    assert scalar == 0


def test_g17_kernel_sends_only_what_fields_do_not_hold_to_percent():
    # |v| >= 10 and the neighbours of a power of ten take `%`, every one
    declined = [10.0, 12.5, 1e16, 99999999999999999.0]
    declined += [np.nextafter(10.0**k, t) for k in range(-279, 1) for t in (-np.inf, np.inf)]
    declined += [-v for v in declined]
    texts, scalar = _kernel_text(declined)
    assert texts == ["%.17g" % v for v in declined]
    assert scalar == len(declined)
    # values like the painted fields' take none: log-uniform, signed, away from powers of ten
    rng = np.random.default_rng(25)
    u = rng.uniform(-44.0, -2.0, size=10_100)
    u = u[np.abs(u - np.rint(u)) > 1e-6][:10_000]
    traffic = (10.0**u * rng.choice([-1.0, 1.0], size=len(u))).tolist() + [0.0, -0.0]
    texts, scalar = _kernel_text(traffic)
    assert texts == ["%.17g" % v for v in traffic]
    assert (len(traffic), scalar) == (10_002, 0)


def _near_ties():
    """Doubles v whose digit fraction v 10**(16 - E) mod 1 lies within 2**-24 of 1/2.

    v = m 2**-60 with 10**19 v in [1e16, 1e17): the fraction is
    1/2 + u 2**-41 when m 5**19 = 2**40 + u (mod 2**41); u = 0 is an exact tie.
    """
    inverse = pow(5**19, -1, 2**41)
    ties = []
    for u in (0, 1, -1, 3, 2**16, -(2**16)):
        m = (2**40 + u) * inverse % 2**41
        m += (2**52 - m + 2**41 - 1) // 2**41 * 2**41  # the smallest such m of 53 bits
        v = m / 2.0**60
        p, q = v.as_integer_ratio()
        frac = p * 10**19 % q
        assert abs(2 * frac - q) < q * 2.0**-23  # within 2**-24 of 1/2
        ties += [v, -v]
    return ties + [2.0**-25, 1 / 2**20 * 1049]  # exact ties: 18 digits ending in 5


def test_g17_near_ties_and_range_ends_take_percent():
    near = _near_ties()
    outside = [1e-300, 5e-324, 2.5e-280, 1e300, -1.7976931348623157e308, 3.5e279, np.inf, -np.inf, np.nan]
    texts, scalar = _kernel_text(near + outside)
    assert texts == ["%.17g" % v for v in near + outside]
    assert scalar == len(near) + len(outside)


def test_field_csv_near_ties_and_range_ends_match_savetxt(tmp_path):
    # the scalar path's text lands in the same bytes as the kernel's
    values = _near_ties() + [1e-300, -5e-324, 1e300, 2.5e-280, 3.5e279, 1.5, -0.0]
    n = 5
    flat = np.resize(np.array(values), 2 * n * n)
    _assert_field_matches_oracle(ComplexField(GridSpec(n, 2.0), flat.view(complex).reshape(n, n)), tmp_path)


@pytest.mark.parametrize("name", ["transfer.json", "interference.json"])
def test_g17_scalar_path_is_rare_on_painted_fields(name):
    fields = compute_fields(load_config(CONFIGS / name))
    doubles = scalar = 0
    for f in fields.values():
        x = f.values.view(np.float64).reshape(f.grid.n, f.grid.n, 2)
        scalar += render._format_g17(x, np.zeros(x.shape + (render._SLOT,), np.uint8))
        doubles += x.size
    assert scalar < 1e-3 * doubles


def test_field_csv_streams_blocks_of_a_transposed_field(tmp_path):
    f = sample_lg(LGBeamSpec(1.0, 1), GridSpec(257, 3.0))
    f.values = f.values.T  # a view: rows of the field are strided in memory
    assert not f.values.flags.c_contiguous
    write_field_csv(_field_2x2(np.ones((2, 2))), tmp_path / "warm.csv")  # tables are built once
    tracemalloc.start()
    try:
        write_field_csv(f, tmp_path / "stream.csv")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < min(2 * 2**20, f.values.nbytes)  # no copy of the whole field
    _assert_field_matches_oracle(f, tmp_path)


def test_import_builds_no_kernel_table():
    # the tables come from exact integers on first use, without fractions or decimal
    probe = (
        "import sys, vortex_twm; from vortex_twm import render; "
        "assert not {'fractions', 'decimal'} & set(sys.modules), sorted(sys.modules); "
        "assert render._g17_tables.cache_info().currsize == 0; "
        "render._g17_tables(); "
        "assert not {'fractions', 'decimal'} & set(sys.modules)"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
