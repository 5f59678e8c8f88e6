import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vortex_twm.analysis import (
    DEFAULT_M,
    AzimuthalProfile,
    azimuthal_profile,
    peak_angle,
    petal_count,
    ring_radius,
    winding_number,
)
from vortex_twm.beams import ComplexField, Grid2D, LGBeamSpec, make_grid, sample_lg
from vortex_twm.config import default_config
from vortex_twm.errors import (
    AmplitudeFloorError,
    InvalidConfigError,
    NoClosedFormError,
    OutOfGridError,
    StructurelessProfileError,
    ZeroFieldError,
)
from vortex_twm.runner import field_metrics

GRID = make_grid(257, 3.0)


def _lg(tc, epsilon=1.0, grid=GRID):
    return sample_lg(LGBeamSpec(epsilon, tc), grid)


def _constant(value):
    """Evaluator of a field that is value at every point."""
    return lambda r, theta: np.full(np.broadcast(r, theta).shape, value, dtype=complex)


def _uniform_profile(level=1.0, m=DEFAULT_M):
    thetas = 2.0 * np.pi * np.arange(m) / m
    return AzimuthalProfile(1.0, thetas, np.full(m, level))


@pytest.mark.parametrize("tc", [-3, -1, 0, 1, 2, 4])
def test_winding_recovers_lg_charge(tc):
    assert winding_number(_lg(tc)) == tc


def test_winding_at_explicit_radius():
    f = _lg(2)
    assert winding_number(f, radius=1.0) == 2
    assert winding_number(f, radius=2.5) == 2


def test_conjugation_flips_winding():
    f = _lg(3)
    flipped = ComplexField(GRID, np.conj(f.values), lambda r, theta: np.conj(f.at(r, theta)))
    assert winding_number(flipped) == -3


def test_winding_coarse_sampling_still_exact():
    assert winding_number(_lg(2), m=64) == 2


@given(
    mag=st.floats(min_value=1e-6, max_value=1e6),
    phase=st.floats(min_value=0.0, max_value=2.0 * np.pi),
)
@settings(max_examples=40, deadline=None)
def test_winding_scale_invariant(mag, phase):
    g = make_grid(65, 3.0)
    base = sample_lg(LGBeamSpec(1.0, 2), g)
    scale = mag * np.exp(1j * phase)
    scaled = ComplexField(g, scale * base.values, lambda r, theta: scale * base.at(r, theta))
    assert winding_number(scaled, radius=1.0, m=180) == 2


def test_winding_amplitude_floor_on_nulled_ring():
    # radius 0 ring of a charged beam samples the axis null everywhere
    with pytest.raises(AmplitudeFloorError):
        winding_number(_lg(1), radius=0.0)


def test_winding_zero_field():
    zero = ComplexField(GRID, np.zeros((GRID.n, GRID.n)), _constant(0.0))
    with pytest.raises(AmplitudeFloorError):
        winding_number(zero, radius=1.0)
    with pytest.raises(ZeroFieldError):
        winding_number(zero)  # default radius scans the rings first


def test_profile_of_uniform_field_is_constant():
    g = make_grid(64, 3.0)
    f = ComplexField(g, np.full((64, 64), 0.7 - 0.2j), _constant(0.7 - 0.2j))
    prof = azimuthal_profile(f, 1.3)
    assert prof.intensities == pytest.approx(np.full(DEFAULT_M, abs(0.7 - 0.2j) ** 2), rel=1e-12)
    assert petal_count(prof) == 0


def test_profile_metadata():
    prof = azimuthal_profile(_lg(1), 0.8, m=90)
    assert prof.radius == 0.8
    assert prof.thetas.shape == (90,)
    assert prof.thetas[0] == 0.0
    assert np.all(np.diff(prof.thetas) > 0)
    assert prof.thetas[-1] < 2.0 * np.pi
    assert np.all(prof.intensities >= 0.0)


def test_profile_sample_count_validated():
    f = _lg(1)
    for bad in (15, 0, -4, 64.0):
        with pytest.raises(InvalidConfigError):
            azimuthal_profile(f, 1.0, m=bad)


def test_profile_radius_validated():
    f = _lg(1)
    for bad in (-0.1, 3.5, np.inf, np.nan):
        with pytest.raises(OutOfGridError):
            azimuthal_profile(f, bad)


def test_painted_three_petal_ring_round_trip():
    # intensity 1 + cos(3 theta) painted as an amplitude pattern; profile
    # sampling must give it back
    g = make_grid(513, 3.0)

    def painted(r, theta):
        return np.broadcast_to(np.sqrt(1.0 + np.cos(3.0 * theta)), np.broadcast(r, theta).shape)

    f = ComplexField(g, painted(g.r, g.theta), painted)
    prof = azimuthal_profile(f, 1.5)
    expect = 1.0 + np.cos(3.0 * prof.thetas)
    assert np.max(np.abs(prof.intensities - expect)) <= 1e-3
    assert petal_count(prof) == 3
    peak = peak_angle(prof)
    lobe = 2.0 * np.pi / 3.0
    assert min(peak % lobe, lobe - peak % lobe) < 0.01


def test_petal_count_synthetic_harmonics():
    thetas = 2.0 * np.pi * np.arange(DEFAULT_M) / DEFAULT_M
    for k in (1, 2, 5, 9):
        prof = AzimuthalProfile(1.0, thetas, 1.0 + 0.4 * np.cos(k * thetas))
        assert petal_count(prof) == k


def test_petal_count_constant_profile():
    assert petal_count(_uniform_profile()) == 0
    assert petal_count(_uniform_profile(level=0.0)) == 0


def test_petal_count_rotation_invariant():
    thetas = 2.0 * np.pi * np.arange(DEFAULT_M) / DEFAULT_M
    intens = 1.0 + np.cos(4.0 * thetas)
    for shift in (1, 17, 333):
        prof = AzimuthalProfile(1.0, thetas, np.roll(intens, shift))
        assert petal_count(prof) == 4


def test_peak_angle_between_samples():
    thetas = 2.0 * np.pi * np.arange(DEFAULT_M) / DEFAULT_M
    prof = AzimuthalProfile(1.0, thetas, 1.0 + np.cos(thetas - 1.0))
    assert abs(peak_angle(prof) - 1.0) <= 2.0 * np.pi / DEFAULT_M


@given(phi=st.floats(min_value=0.0, max_value=2.0 * np.pi - 1e-9))
@settings(max_examples=60, deadline=None)
def test_peak_angle_tracks_shift(phi):
    thetas = 2.0 * np.pi * np.arange(360) / 360
    prof = AzimuthalProfile(1.0, thetas, 2.0 + np.cos(thetas - phi))
    err = abs(peak_angle(prof) - phi)
    assert min(err, 2.0 * np.pi - err) <= 2.0 * np.pi / 360


def test_peak_angle_just_below_zero_folds_to_zero():
    m = DEFAULT_M
    intens = np.ones(m)
    intens[0] = 2.0
    intens[-1] = np.nextafter(1.0, 2.0)  # left neighbour brighter by one ulp
    prof = AzimuthalProfile(1.0, 2.0 * np.pi * np.arange(m) / m, intens)
    # the first harmonic dominates and its crest sits a hair below 0,
    # where `% 2pi` rounds up to 2pi
    assert petal_count(prof) == 1
    crest = -np.angle(np.fft.rfft(intens)[1])
    assert -1e-15 < crest < 0.0
    assert crest % (2.0 * np.pi) == 2.0 * np.pi
    assert peak_angle(prof) == 0.0


def test_peak_angle_needs_structure():
    with pytest.raises(StructurelessProfileError):
        peak_angle(_uniform_profile())


def test_ring_radius_gaussian_peaks_on_axis():
    for n in (64, 257):
        g = make_grid(n, 3.0)
        assert ring_radius(sample_lg(LGBeamSpec(1.0, 0), g)) == 0.0


@pytest.mark.parametrize("tc", [1, 2, 3])
def test_ring_radius_lg_law(tc):
    g = make_grid(513, 3.0)
    r = ring_radius(sample_lg(LGBeamSpec(1.0, tc), g))
    assert abs(r - np.sqrt(tc / 2.0)) <= 0.5 * g.step


def test_ring_radius_waist_scales():
    g = make_grid(513, 3.0)
    r = ring_radius(sample_lg(LGBeamSpec(1.0, 2, waist=1.4), g))
    assert abs(r - 1.4 * np.sqrt(1.0)) <= 0.5 * g.step


def test_ring_radius_zero_field():
    with pytest.raises(ZeroFieldError):
        ring_radius(ComplexField(GRID, np.zeros((GRID.n, GRID.n)), _constant(0.0)))


def test_single_sample_grid_has_no_ring_to_scan():
    # Grid2D admits one sample per axis (make_grid does not); its scan step is 0
    g = Grid2D(axis=np.array([0.0]), extent=0.0)
    f = ComplexField(g, np.array([[1.0]]), _constant(1.0))
    for read in (ring_radius, winding_number):
        with pytest.raises(OutOfGridError, match="single-sample grid"):
            read(f)


def test_winding_radius_default_matches_explicit():
    f = _lg(2)
    assert winding_number(f) == winding_number(f, radius=ring_radius(f))


@pytest.mark.parametrize("n", [256, 257])
@pytest.mark.parametrize("tc", [1, 3])
def test_ring_uniform_lg_has_no_petals(n, tc):
    f = _lg(tc, grid=make_grid(n, 3.0))
    for radius in (ring_radius(f), 0.5, 1.7):
        prof = azimuthal_profile(f, radius)
        assert petal_count(prof) == 0
        with pytest.raises(StructurelessProfileError):
            peak_angle(prof)


def test_field_without_closed_form_is_not_interpolated():
    bare = ComplexField(GRID, _lg(2).values)
    for read in (ring_radius, winding_number, lambda f: azimuthal_profile(f, 1.0)):
        with pytest.raises(NoClosedFormError, match="no closed form"):
            read(bare)
    cfg = default_config()
    for radius in (None, 1.0):
        cfg.ring_radius = radius
        row, profile = field_metrics("omega_fs", bare, cfg)
        assert profile is None
        assert row["ring_radius"] == row["winding"] == row["petal_count"] == row["peak_angle"] == ""
        assert row["radius"] == ("" if radius is None else radius)
