import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vortex_twm.beams import (
    ComplexField,
    GridSpec,
    LGBeamSpec,
    _lg,
    lg_radial,
    sample_lg,
)
from vortex_twm.config import load_config
from vortex_twm.errors import InvalidConfigError
from vortex_twm.runner import compute_fields


# test_make_grid_*: making a grid is building a GridSpec and reading its arrays
def test_make_grid_small_axis():
    g = GridSpec(3, 1.0)
    assert np.array_equal(g.axis, [-1.0, 0.0, 1.0])
    assert g.axis[1] - g.axis[0] == 1.0


def test_make_grid_default_production():
    g = GridSpec(256, 3.0)
    assert g.n == 256
    assert g.axis[0] == -3.0 and g.axis[-1] == 3.0
    # symmetric about zero
    assert np.allclose(g.axis + g.axis[::-1], 0.0, atol=1e-15)


@pytest.mark.parametrize("bad", [1, 0, -4, 2.5, True])
def test_make_grid_rejects_bad_n(bad):
    with pytest.raises(InvalidConfigError):
        GridSpec(bad)


@pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
def test_make_grid_rejects_bad_extent(bad):
    with pytest.raises(InvalidConfigError):
        GridSpec(64, bad)


def test_theta_range_and_orientation():
    g = GridSpec(65, 2.0)
    assert g.theta.max() <= np.pi
    assert g.theta.min() > -np.pi
    c = g.n // 2
    assert g.theta[c, -1] == 0.0          # +x axis
    assert g.theta[-1, c] == pytest.approx(np.pi / 2)   # +y axis
    assert g.theta[c, 0] == pytest.approx(np.pi)        # -x axis maps to +pi


def test_lg_on_axis_values():
    g = GridSpec(65, 2.0)  # odd n puts a node exactly at r = 0
    c = g.n // 2
    flat = sample_lg(LGBeamSpec(1.0, 0), g)
    assert flat.values[c, c] == 1.0 + 0.0j
    vortex = sample_lg(LGBeamSpec(1.0, 1), g)
    assert vortex.values[c, c] == 0.0 + 0.0j


def test_lg_hand_value():
    # l=2 at r=w on the +y axis: e^{-1} e^{2i(pi/2)} = -e^{-1}
    g = GridSpec(257, 2.0)
    f = sample_lg(LGBeamSpec(1.0, 2), g)
    c = g.n // 2
    j = c + 64  # y = 1.0 exactly (step = 4/256)
    _, y = np.meshgrid(g.axis, g.axis)
    assert y[j, c] == 1.0
    assert f.values[j, c] == pytest.approx(-np.exp(-1.0), abs=1e-15)


def test_lg_waist_rescales_radius():
    g = GridSpec(129, 3.0)
    wide = sample_lg(LGBeamSpec(1.0, 1, waist=2.0), g)
    narrow = sample_lg(LGBeamSpec(1.0, 1, waist=1.0), g)
    # same profile sampled at r/w: value of wide at 2r equals narrow at r
    c = g.n // 2
    k = 16
    assert wide.values[c, c + 2 * k] == pytest.approx(narrow.values[c, c + k], rel=1e-12)


@pytest.mark.parametrize("l", [-3, -1, 0, 2, 5])
def test_conjugation_flips_charge(l):
    g = GridSpec(64, 3.0)
    plus = sample_lg(LGBeamSpec(0.7, l), g)
    minus = sample_lg(LGBeamSpec(0.7, -l), g)
    assert np.array_equal(minus.values, np.conj(plus.values))


@given(
    l=st.integers(min_value=-4, max_value=4),
    c=st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
)
@settings(max_examples=40, deadline=None)
def test_amplitude_scaling_property(l, c):
    g = GridSpec(32, 3.0)
    base = sample_lg(LGBeamSpec(1.0, l), g)
    scaled = sample_lg(LGBeamSpec(c, l), g)
    assert np.array_equal(scaled.values, c * base.values)


@given(l=st.integers(min_value=-4, max_value=4))
@settings(max_examples=20, deadline=None)
def test_magnitude_azimuthally_symmetric(l):
    # n = 33 gives a power-of-two step, so the axis is exactly antisymmetric
    # and the y-flip hits identical (r, |theta|) pairs: |value| matches
    # bitwise there.  The other orbit ops re-evaluate the trig at a shifted
    # angle and may move the last bit.
    g = GridSpec(33, 3.0)
    mag = np.abs(sample_lg(LGBeamSpec(1.0, l), g).values)
    assert np.array_equal(mag, mag[::-1, :])
    for other in (mag[:, ::-1], mag.T):
        assert np.allclose(mag, other, rtol=0.0, atol=1e-15)


def test_peak_ring_radius_matches_charge():
    g = GridSpec(513, 3.0)
    for l in (1, 2, 3, 4):
        mag = np.abs(sample_lg(LGBeamSpec(1.0, l), g).values)
        peak_r = g.r.ravel()[np.argmax(mag.ravel())]
        assert abs(peak_r - np.sqrt(l / 2.0)) < g.axis[1] - g.axis[0]


def test_beam_spec_validation():
    with pytest.raises(InvalidConfigError):
        LGBeamSpec(-1.0, 0)
    with pytest.raises(InvalidConfigError):
        LGBeamSpec(1.0, 0.5)
    with pytest.raises(InvalidConfigError):
        LGBeamSpec(1.0, 0, waist=0.0)


def test_complex_field_validation():
    g = GridSpec(8, 1.0)
    with pytest.raises(InvalidConfigError):
        ComplexField(g, np.zeros((4, 4), dtype=complex))
    bad = np.zeros((8, 8), dtype=complex)
    bad[2, 2] = complex(np.nan, 0.0)
    with pytest.raises(InvalidConfigError):
        ComplexField(g, bad)


@pytest.mark.parametrize(
    "bad",
    [complex(np.nan, 0.0), complex(0.0, np.nan), complex(np.inf, 0.0), complex(-np.inf, 0.0),
     complex(0.0, np.inf), complex(0.0, -np.inf), complex(1.5e308, 1.5e308)],
    ids=["nan_re", "nan_im", "inf_re", "-inf_re", "inf_im", "-inf_im", "modulus_overflows"],
)
def test_complex_field_rejects_a_non_finite_amplitude(bad):
    values = np.ones((8, 8), dtype=complex)
    values[2, 5] = bad
    with pytest.raises(InvalidConfigError, match="^field contains non-finite values$"):
        ComplexField(GridSpec(8, 1.0), values)
    values[2, 5] = complex(1e308, 1e308)  # both parts near the float limit, modulus finite
    assert ComplexField(GridSpec(8, 1.0), values).peak == abs(complex(1e308, 1e308))


@pytest.mark.parametrize("n", [2, 3, 16, 256, 257, 1024])
@pytest.mark.parametrize("extent", [0.5, 3.0, 7.25])
def test_grid_polar_rasters_match_meshgrid(n, extent):
    g = GridSpec(n, extent)
    x, y = np.meshgrid(g.axis, g.axis)
    assert g.r.shape == g.theta.shape == (n, n)
    assert g.r.tobytes() == np.hypot(x, y).tobytes()  # bitwise, signed zeros included
    assert g.theta.tobytes() == np.arctan2(y, x).tobytes()


def test_make_grid_builds_only_its_two_rasters():
    n = 512
    g = GridSpec(n, 3.0)
    tracemalloc.start()
    try:
        r, theta = g.r, g.theta
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    raster = n * n * 8
    assert r.nbytes == theta.nbytes == raster
    assert peak <= 2.5 * raster, f"reading r and theta peaked at {peak / raster:.2f} rasters"


def test_a_narrow_high_charge_beam_overflows_into_one_error():
    # (r/w)**|l| overflows where exp(-(r/w)**2) is already 0: a Python float's
    # power raises OverflowError, an array's warns; both end in the field's one error
    with pytest.raises(InvalidConfigError, match="^field contains non-finite values$"):
        _lg(LGBeamSpec(0.005, 130, 0.01), 2.9, theta=0.0)
    with pytest.raises(InvalidConfigError, match="^field contains non-finite values$"):
        sample_lg(LGBeamSpec(4.0, 120, 0.01), GridSpec(1024, 3.0))
    # the array read of the same radial part is non-finite, without a RuntimeWarning
    assert np.isnan(lg_radial(LGBeamSpec(0.005, 130, 0.01))(np.array([2.9]))).all()
    # below the overflow the beam is exactly 0 there
    assert lg_radial(LGBeamSpec(0.005, 130, 0.01))(2.0) == 0.0


def test_peak_is_the_largest_amplitude_of_each_output():
    cfg = load_config(Path(__file__).resolve().parents[1] / "configs" / "transfer.json")
    fields = compute_fields(cfg)
    assert len(fields) == 6
    for field in fields.values():
        want = np.max(np.abs(field.values))
        assert field.peak == want and type(field.peak) is float
        assert field.peak is field.peak  # scanned once, then cached
