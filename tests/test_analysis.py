import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from vortex_twm import analysis
from vortex_twm.analysis import (
    AMPLITUDE_FLOOR,
    DEFAULT_M,
    PETAL_FLOOR,
    AnalysisSpec,
    azimuthal_profile,
    check_radius,
    peak_angle,
    petal_count,
    radial_max,
    ring_radius,
    scan_radii,
    winding_number,
)
from vortex_twm.beams import GridSpec, LGBeamSpec, lg_radial
from vortex_twm.errors import (
    AmplitudeFloorError,
    InvalidConfigError,
    OutOfGridError,
    StructurelessProfileError,
    ZeroFieldError,
)
from vortex_twm.runner import Blank, field_metrics

GRID = GridSpec(257, 3.0)


def _lg(tc, epsilon=1.0, waist=1.0):
    """The one order {tc: R} of a Laguerre-Gaussian beam, R its radial part."""
    return {tc: lg_radial(LGBeamSpec(epsilon, tc, waist))}


def _constant(value):
    """Radial part that is value at every radius."""
    return lambda r: np.full(np.shape(r), value, dtype=complex)


def _read(orders, r):
    """The amplitudes {k: R_k(r)} of the field whose radial parts are orders."""
    return {k: np.asarray(radial(r), dtype=complex) for k, radial in orders.items()}


def _scan(orders, grid=GRID):
    """The field's radial_max, the scanned radii and its amplitudes there."""
    radii = scan_radii(grid)
    scan = _read(orders, radii)
    return radial_max(scan), radii, scan


def _ring(orders, grid=GRID):
    """The brightest ring of the field, as runner.analyse finds it."""
    return ring_radius(*_scan(orders, grid))


def _winding(orders, radius=None, grid=GRID):
    """The winding of a ring of the field, the brightest by default, as runner.analyse reads it."""
    peak, radii, scan = _scan(orders, grid)
    if radius is None:
        radius = ring_radius(peak, radii, scan)
    amps = _read(orders, check_radius(radius, grid.extent))
    return winding_number(max(peak, radial_max(amps)), amps)


def _profile(amps, m=DEFAULT_M):
    """Profile of the ring at radius 1 whose amplitudes are amps, {k: a_k}."""
    return azimuthal_profile(1.0, amps, m)


def _uniform_profile(level=1.0):
    return _profile({0: np.sqrt(level)})


def _samples(amps, m):
    """The ring sum_k a_k exp(i k theta) at m uniform angles, summed here."""
    thetas = 2.0 * np.pi * np.arange(m) / m
    return (np.exp(1j * np.outer(thetas, list(amps))) * list(amps.values())).sum(axis=1)


@pytest.mark.parametrize("tc", [-3, -1, 0, 1, 2, 4])
def test_winding_recovers_lg_charge(tc):
    assert _winding(_lg(tc)) == tc


def test_winding_at_explicit_radius():
    f = _lg(2)
    assert _winding(f, radius=1.0) == 2
    assert _winding(f, radius=2.5) == 2


def test_conjugation_flips_winding():
    [(k, radial)] = _lg(3).items()
    assert _winding({-k: lambda r: np.conj(radial(r))}) == -3


def test_winding_coarse_sampling_still_exact():
    # a 16-point grid scans few rings; the amplitudes are still exact
    for tc in (-2, 2, 5):
        assert _winding(_lg(tc), grid=GridSpec(16, 3.0)) == tc


@given(
    mag=st.floats(min_value=1e-6, max_value=1e6),
    phase=st.floats(min_value=0.0, max_value=2.0 * np.pi),
)
@settings(max_examples=40, deadline=None)
def test_winding_scale_invariant(mag, phase):
    [radial] = _lg(2).values()
    scale = mag * np.exp(1j * phase)
    scaled = {2: lambda r: scale * radial(r)}
    assert _winding(scaled, radius=1.0, grid=GridSpec(65, 3.0)) == 2


def test_winding_amplitude_floor_on_nulled_ring():
    # radius 0 ring of a charged beam samples the axis null everywhere
    with pytest.raises(AmplitudeFloorError):
        _winding(_lg(1), radius=0.0)


def test_winding_zero_field():
    zero = {1: 0.0}
    with pytest.raises(AmplitudeFloorError):
        winding_number(radial_max(zero), zero)
    with pytest.raises(ZeroFieldError):
        _winding({1: _constant(0.0)})  # default radius scans the rings first


def test_profile_of_uniform_field_is_constant():
    prof = azimuthal_profile(1.3, {0: 0.7 - 0.2j}, DEFAULT_M)
    assert prof.intensities == pytest.approx(np.full(DEFAULT_M, abs(0.7 - 0.2j) ** 2), rel=1e-12)
    assert petal_count(prof) == 0


def test_profile_metadata():
    prof = azimuthal_profile(0.8, _read(_lg(1), 0.8), 90)
    assert prof.radius == 0.8
    assert prof.thetas.shape == (90,)
    assert prof.thetas[0] == 0.0
    assert np.all(np.diff(prof.thetas) > 0)
    assert prof.thetas[-1] < 2.0 * np.pi
    assert np.all(prof.intensities >= 0.0)


def test_profile_sample_count_validated():
    # a profile's m has one owner, AnalysisSpec
    for bad in (15, 0, -4, 64.0):
        with pytest.raises(InvalidConfigError):
            AnalysisSpec(m=bad)


def test_profile_radius_validated():
    # a profile's ring has one owner, check_radius
    for bad in (-0.1, 3.5, np.inf, np.nan):
        with pytest.raises(OutOfGridError):
            check_radius(bad, GRID.extent)


def test_painted_three_petal_ring_round_trip():
    # orders 0 and 3 in step give the intensity 1.25 + cos(3 theta); the
    # profile must give it back, crest on the x axis
    envelope = {0: lambda r: np.exp(-r * r), 3: lambda r: 0.5 * np.exp(-r * r)}
    prof = azimuthal_profile(1.5, _read(envelope, 1.5), DEFAULT_M)
    expect = np.exp(-4.5) * (1.25 + np.cos(3.0 * prof.thetas))
    assert np.max(np.abs(prof.intensities - expect)) <= 1e-15
    assert petal_count(prof) == 3
    assert peak_angle(prof) == 0.0


def test_petal_count_synthetic_harmonics():
    for k in (1, 2, 5, 9):
        prof = _profile({0: 1.0, k: 0.2})  # intensity 1.04 + 0.4 cos(k theta)
        assert petal_count(prof) == k


def test_petal_count_constant_profile():
    assert petal_count(_uniform_profile()) == 0
    assert petal_count(_uniform_profile(level=0.0)) == 0


def test_petal_count_rotation_invariant():
    for shift in (0.01, 0.3, 2.9):
        assert petal_count(_profile({0: 1.0, 4: np.exp(1j * shift)})) == 4


def test_peak_angle_between_samples():
    # crest at 1 rad, between two of the 720 samples; the harmonic places it exactly
    prof = _profile({0: 1.0, 1: 0.3 * np.exp(-1j)})
    assert abs(peak_angle(prof) - 1.0) <= 1e-15


@given(phi=st.floats(min_value=0.0, max_value=2.0 * np.pi - 1e-9))
@settings(max_examples=60, deadline=None)
def test_peak_angle_tracks_shift(phi):
    err = abs(peak_angle(_profile({0: 2.0, 1: np.exp(-1j * phi)}, m=360)) - phi)
    assert min(err, 2.0 * np.pi - err) <= 1e-12


def test_peak_angle_just_below_zero_folds_to_zero():
    prof = _profile({0: 1.0, 1: 1.0 + 1e-17j})
    # the first harmonic c_1 = 1 + 1e-17 i crests a hair below 0, where
    # `% 2pi` rounds up to 2pi
    assert petal_count(prof) == 1
    crest = -np.angle(1.0 + 1e-17j)
    assert -1e-15 < crest < 0.0
    assert crest % (2.0 * np.pi) == 2.0 * np.pi
    assert peak_angle(prof) == 0.0


def test_peak_angle_needs_structure():
    with pytest.raises(StructurelessProfileError):
        peak_angle(_uniform_profile())


def test_ring_radius_gaussian_peaks_on_axis():
    for n in (64, 257):
        assert _ring(_lg(0), GridSpec(n, 3.0)) == 0.0


@pytest.mark.parametrize("tc", [1, 2, 3])
def test_ring_radius_lg_law(tc):
    g = GridSpec(513, 3.0)
    r = _ring(_lg(tc), g)
    assert abs(r - np.sqrt(tc / 2.0)) <= 0.5 * (g.axis[1] - g.axis[0])


def test_ring_radius_waist_scales():
    g = GridSpec(513, 3.0)
    r = _ring(_lg(2, waist=1.4), g)
    assert abs(r - 1.4 * np.sqrt(1.0)) <= 0.5 * (g.axis[1] - g.axis[0])


def test_ring_radius_zero_field():
    with pytest.raises(ZeroFieldError):
        _ring({0: _constant(0.0)})


@pytest.mark.parametrize("n", [2, 257, 1000])
@pytest.mark.parametrize("extent", [0.5, 3.0, 7.25])
def test_a_grid_spec_scans_the_rings_of_its_grid(n, extent):
    # n half-pixel rings from the axis to the extent, at the step of the grid's own axis
    grid = GridSpec(n, extent)
    step = float(grid.axis[1] - grid.axis[0])
    radii = analysis.scan_radii(grid)
    assert radii.dtype == np.float64 and radii.shape == (n,) and radii[0] == 0.0
    assert np.allclose(np.diff(radii), 0.5 * step, rtol=1e-9, atol=0.0)
    assert radii[-1] <= extent and radii[-1] == pytest.approx(extent, rel=1e-12)


@pytest.mark.parametrize("extent", [0.5, 3.0, 7.25])
def test_no_scanned_ring_passes_the_extent(extent):
    # half-step arange overshoots the extent by an ulp at many n (n = 39 at 3.0)
    for n in range(2, 4097):
        radii = analysis.scan_radii(GridSpec(n, extent))
        assert radii.shape == (n,) and radii.max() <= extent, n


def test_winding_radius_default_matches_explicit():
    f = _lg(2)
    assert _winding(f) == _winding(f, radius=_ring(f))


@pytest.mark.parametrize("n", [256, 257])
@pytest.mark.parametrize("tc", [1, 3])
def test_ring_uniform_lg_has_no_petals(n, tc):
    f = _lg(tc)
    for radius in (_ring(f, GridSpec(n, 3.0)), 0.5, 1.7):
        prof = azimuthal_profile(radius, _read(f, radius), DEFAULT_M)
        assert petal_count(prof) == 0
        with pytest.raises(StructurelessProfileError):
            peak_angle(prof)


def test_a_row_without_a_ring_read_keeps_only_its_radius():
    blank = Blank(ZeroFieldError("ring radius undefined for an all-zero field"))
    for radius in (blank, 1.0):  # a row without a ring read keeps only its radius
        row, profile = field_metrics("omega_fs", 0.0, blank, radius, blank, DEFAULT_M)
        assert profile is None
        assert row["ring_radius"] == row["winding"] == row["petal_count"] == row["peak_angle"] == ""
        assert row["radius"] == radius
        # the read's Blank, and with it its reason, is each of the ring's metrics
        assert all(row[c] is blank for c in ("winding", "petal_count", "peak_angle"))


# ------------------------------------------- exact ring reads against sampling

_RINGS = st.dictionaries(
    st.integers(-6, 6),
    st.builds(
        lambda mag, phase: mag * np.exp(1j * phase),
        st.floats(0.05, 2.0),
        st.floats(0.0, 2.0 * np.pi),
    ),
    min_size=1,
    max_size=3,
)


@given(amps=_RINGS)
@settings(max_examples=80, deadline=None)
def test_parseval_ring_mean_is_the_sampled_mean(amps):
    sampled = float(np.mean(np.abs(_samples(amps, 4096)) ** 2))
    assert analysis._harmonics(_profile(amps))[0] == pytest.approx(sampled, rel=1e-12)


@given(amps=_RINGS, centres=st.lists(st.floats(0.0, 3.0), min_size=3, max_size=3))
@settings(max_examples=60, deadline=None)
def test_ring_radius_is_the_brightest_sampled_ring(amps, centres):
    # each order is a gaussian band around its own radius, so the brightest ring moves
    g = GridSpec(33, 3.0)

    def band(a, centre):
        return lambda r: a * np.exp(-((r - centre) ** 2))

    orders = {k: band(a, c) for (k, a), c in zip(amps.items(), centres)}
    step = float(g.axis[1] - g.axis[0])
    radii = np.arange(0.0, g.extent + 0.25 * step, 0.5 * step)
    thetas = 2.0 * np.pi * np.arange(4096) / 4096
    rings = sum(R(radii)[:, None] * np.exp(1j * k * thetas) for k, R in orders.items())
    sampled = np.mean(np.abs(rings) ** 2, axis=1)
    chosen = int(np.flatnonzero(radii == _ring(orders, g))[0])
    assert sampled[chosen] >= sampled.max() * (1.0 - 1e-12)


def _fft_petals(intens):
    """petal count and crest of a sampled profile by the real FFT of its samples."""
    spectrum = np.fft.rfft(intens)
    band = np.abs(spectrum[1 : (intens.size + 1) // 2])
    if band.max() < PETAL_FLOOR * abs(spectrum[0]):
        return 0, None
    k = int(np.argmax(band)) + 1
    return k, float((-np.angle(spectrum[k]) / k) % (2.0 * np.pi / k))


@given(amps=_RINGS)
@settings(max_examples=150, deadline=None)
def test_petals_and_crest_are_the_fft_answer(amps):
    intens = np.abs(_samples(amps, DEFAULT_M)) ** 2
    prof = _profile(amps)
    harmonics = np.sort(np.abs(analysis._harmonics(prof)[1:]))[::-1]
    floor = PETAL_FLOOR * np.mean(intens)
    # the two rules agree wherever rounding cannot decide: no near-tie, not at the floor
    assume(harmonics.size < 2 or harmonics[0] - harmonics[1] > 1e-9 * harmonics[0])
    assume(harmonics.size < 1 or abs(harmonics[0] - floor) > 1e-9 * floor)
    k, crest = _fft_petals(intens)
    assert petal_count(prof) == k
    if k:
        period = 2.0 * np.pi / k
        err = abs(peak_angle(prof) - crest) % period
        assert min(err, period - err) <= 1e-9


@given(amps=_RINGS)
@settings(max_examples=150, deadline=None)
def test_winding_is_the_sampled_phase_sum(amps):
    mags = sorted(np.abs(list(amps.values())), reverse=True)
    assume(mags[0] - sum(mags[1:]) >= 0.1 * sum(mags))  # one order dominates clearly
    vals = _samples(amps, 4096)
    steps = np.angle(np.roll(vals, -1) * np.conj(vals))
    assert winding_number(radial_max(amps), amps) == round(steps.sum() / (2.0 * np.pi))


def test_two_equal_orders_leave_the_winding_blank():
    # |R_1| = |R_-1|: the ring passes through zero twice and has no winding
    amps = {1: 0.5, -1: 0.5 * np.exp(0.3j)}
    with pytest.raises(AmplitudeFloorError):
        winding_number(radial_max(amps), amps)
    # just above the floor, the larger order wins
    tilted = {1: 0.5 + 3.0 * AMPLITUDE_FLOOR, -1: 0.5 * np.exp(0.3j)}
    assert winding_number(radial_max(tilted), tilted) == 1
    row, profile = field_metrics("omega_d", analysis.radial_max(amps), "", 1.0, amps, DEFAULT_M)
    assert row["winding"] == ""
    assert isinstance(row["winding"], Blank) and isinstance(row["winding"].why, AmplitudeFloorError)
    assert profile is not None and petal_count(profile) == 2
