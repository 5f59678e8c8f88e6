import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from vortex_twm.beams import ComplexField, Grid2D, make_grid, sample_lg, LGBeamSpec
from vortex_twm.render import (
    write_field_csv,
    write_intensity_pgm,
    write_metrics_csv,
    write_phase_ppm,
    write_profile_csv,
)
from vortex_twm.analysis import AMPLITUDE_FLOOR, azimuthal_profile
from vortex_twm.config import load_config
from vortex_twm.runner import compute_fields

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def _field_2x2(values):
    g = make_grid(2, 1.0)
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
    g = make_grid(3, 1.0)
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
    g = make_grid(65, 3.0)
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


def test_field_csv_single_pixel(tmp_path):
    g = Grid2D(axis=np.array([0.0]), extent=0.0)
    f = ComplexField(g, np.array([[1.0 + 2.0j]]))
    p = tmp_path / "one.csv"
    write_field_csv(f, p)
    assert p.read_text() == "x,y,re,im\n0,0,1,2\n"


def test_field_csv_line_count(tmp_path):
    g = make_grid(256, 3.0)
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
    g = make_grid(8, 2.0)
    vals = rng.normal(size=(8, 8)) * 10.0 ** rng.integers(-12, 12) + 1j * rng.normal(size=(8, 8))
    f = ComplexField(g, vals)
    p = tmp_path / f"rt{seed}.csv"
    write_field_csv(f, p)
    data = np.loadtxt(p, delimiter=",", skiprows=1)
    assert np.array_equal(data[:, 0], g.x.ravel())
    assert np.array_equal(data[:, 1], g.y.ravel())
    assert np.array_equal(data[:, 2] + 1j * data[:, 3], vals.ravel())


def test_profile_csv_round_trip(tmp_path):
    prof = azimuthal_profile(sample_lg(LGBeamSpec(1.0, 1), make_grid(64, 3.0)), 0.7, m=32)
    p = tmp_path / "prof.csv"
    write_profile_csv(prof, p)
    lines = p.read_text().splitlines()
    assert lines[0] == "theta,intensity"
    assert len(lines) == 33
    data = np.loadtxt(p, delimiter=",", skiprows=1)
    assert np.array_equal(data[:, 0], prof.thetas)
    assert np.array_equal(data[:, 1], prof.intensities)


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


def test_writers_byte_deterministic(tmp_path):
    g = make_grid(32, 3.0)
    f = sample_lg(LGBeamSpec(1.0, 2), g)
    prof = azimuthal_profile(f, 1.0)
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
    ref, got = tmp_path / f"ref{tag}.csv", tmp_path / f"got{tag}.csv"
    _savetxt(ref, "x,y,re,im", [f.grid.x.ravel(), f.grid.y.ravel(), v.real.ravel(), v.imag.ravel()])
    write_field_csv(f, got)
    assert got.read_bytes() == ref.read_bytes()


# -0.0, the smallest subnormal, +-1e300 and integers, which print without a point
EDGE_VALUES = [-0.0, 5e-324, 1e300, -1e300, 1.0, -7.0, 2.0**53, 0.1]


@pytest.mark.parametrize("n", [1, 2, 8, 257])
def test_field_csv_matches_savetxt(tmp_path, n):
    g = Grid2D(axis=np.array([0.0]), extent=0.0) if n == 1 else make_grid(n, 3.0)
    rng = np.random.default_rng(n)
    flat = rng.normal(size=2 * n * n) * 10.0 ** rng.integers(-20, 20, size=2 * n * n)
    k = min(len(EDGE_VALUES), flat.size)
    flat[:k] = EDGE_VALUES[:k]
    flat[-k:] = EDGE_VALUES[::-1][:k]
    vals = flat.view(complex).reshape(n, n).T  # values need not be C-contiguous
    _assert_field_matches_oracle(ComplexField(g, vals), tmp_path)


def test_field_csv_real_array_matches_savetxt(tmp_path):
    g = make_grid(8, 2.0)
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
    g = make_grid(8, 2.0)
    vals = rng.normal(size=(8, 8)) * 10.0 ** rng.integers(-12, 12) + 1j * rng.normal(size=(8, 8))
    _assert_field_matches_oracle(ComplexField(g, vals), tmp_path, seed)


@pytest.mark.parametrize("m", [32, 720])
def test_profile_csv_matches_savetxt(tmp_path, m):
    prof = azimuthal_profile(sample_lg(LGBeamSpec(1.0, 2), make_grid(64, 3.0)), 0.9, m=m)
    ref, got = tmp_path / "ref.csv", tmp_path / "got.csv"
    _savetxt(ref, "theta,intensity", [prof.thetas, prof.intensities])
    write_profile_csv(prof, got)
    assert got.read_bytes() == ref.read_bytes()


def test_field_csv_streams_rows(tmp_path):
    # a 256^2 CSV is ~5 MiB of text; writing row by row keeps Python memory far under it
    f = sample_lg(LGBeamSpec(1.0, 1), make_grid(256, 3.0))
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
    f = ComplexField(make_grid(n, 1.0), grid.reshape(n, n))
    _assert_ppm_matches_oracle(f, tmp_path / "boundaries.ppm")


def test_phase_ppm_matches_select_wheel_at_the_amplitude_floor(tmp_path):
    phases = np.exp(1j * np.linspace(-np.pi, np.pi, 16))
    levels = [1.0, AMPLITUDE_FLOOR, 0.5 * AMPLITUDE_FLOOR, np.nextafter(AMPLITUDE_FLOOR, 0.0), 0.0]
    vals = np.array([lvl * phases for lvl in levels] + [np.zeros(16)] * 11)
    f = ComplexField(make_grid(16, 1.0), vals)
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
    _assert_ppm_matches_oracle(ComplexField(make_grid(9, 2.0), vals), tmp_path / f"r{seed}.ppm")
