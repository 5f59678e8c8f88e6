from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from vortex_twm import analysis
from vortex_twm.analysis import (
    AMPLITUDE_FLOOR,
    DEFAULT_M,
    PETAL_FLOOR,
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
    """Radial part that is value at every radius."""
    return lambda r: np.full(np.shape(r), value, dtype=complex)


def _ring_field(amps, grid=GRID):
    """The field sum_k a_k exp(i k theta): order k has the constant radial part a_k."""
    values = sum(a * np.exp(1j * k * grid.theta) for k, a in amps.items())
    return ComplexField(grid, values, {k: _constant(a) for k, a in amps.items()})


def _profile(amps, m=DEFAULT_M):
    """Profile of the ring of _ring_field(amps) at radius 1."""
    return azimuthal_profile(_ring_field(amps, make_grid(16, 3.0)), 1.0, m)


def _uniform_profile(level=1.0):
    return _profile({0: np.sqrt(level)})


def _samples(amps, m):
    """The ring sum_k a_k exp(i k theta) at m uniform angles, summed here."""
    thetas = 2.0 * np.pi * np.arange(m) / m
    return (np.exp(1j * np.outer(thetas, list(amps))) * list(amps.values())).sum(axis=1)


@pytest.mark.parametrize("tc", [-3, -1, 0, 1, 2, 4])
def test_winding_recovers_lg_charge(tc):
    assert winding_number(_lg(tc)) == tc


def test_winding_at_explicit_radius():
    f = _lg(2)
    assert winding_number(f, radius=1.0) == 2
    assert winding_number(f, radius=2.5) == 2


def test_conjugation_flips_winding():
    f = _lg(3)
    [(k, radial)] = f.orders.items()
    flipped = ComplexField(GRID, np.conj(f.values), {-k: lambda r: np.conj(radial(r))})
    assert winding_number(flipped) == -3


def test_winding_coarse_sampling_still_exact():
    # a 16-point grid samples the beam coarsely; its orders are still exact
    for tc in (-2, 2, 5):
        assert winding_number(_lg(tc, grid=make_grid(16, 3.0))) == tc


@given(
    mag=st.floats(min_value=1e-6, max_value=1e6),
    phase=st.floats(min_value=0.0, max_value=2.0 * np.pi),
)
@settings(max_examples=40, deadline=None)
def test_winding_scale_invariant(mag, phase):
    g = make_grid(65, 3.0)
    base = sample_lg(LGBeamSpec(1.0, 2), g)
    scale = mag * np.exp(1j * phase)
    scaled = ComplexField(g, scale * base.values, {2: lambda r: scale * base.orders[2](r)})
    assert winding_number(scaled, radius=1.0) == 2


def test_winding_amplitude_floor_on_nulled_ring():
    # radius 0 ring of a charged beam samples the axis null everywhere
    with pytest.raises(AmplitudeFloorError):
        winding_number(_lg(1), radius=0.0)


def test_winding_zero_field():
    zero = _ring_field({1: 0.0})
    with pytest.raises(AmplitudeFloorError):
        winding_number(zero, radius=1.0)
    with pytest.raises(ZeroFieldError):
        winding_number(zero)  # default radius scans the rings first


def test_profile_of_uniform_field_is_constant():
    g = make_grid(64, 3.0)
    f = ComplexField(g, np.full((64, 64), 0.7 - 0.2j), {0: _constant(0.7 - 0.2j)})
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
    # orders 0 and 3 in step paint the intensity 1.25 + cos(3 theta); the
    # profile must give it back, crest on the x axis
    g = make_grid(513, 3.0)
    envelope = {0: lambda r: np.exp(-r * r), 3: lambda r: 0.5 * np.exp(-r * r)}
    values = sum(radial(g.r) * np.exp(1j * k * g.theta) for k, radial in envelope.items())
    prof = azimuthal_profile(ComplexField(g, values, envelope), 1.5)
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
        ring_radius(_ring_field({0: 0.0}))


def test_single_sample_grid_has_no_ring_to_scan():
    # Grid2D admits one sample per axis (make_grid does not); its scan step is 0
    g = Grid2D(axis=np.array([0.0]), extent=0.0)
    f = ComplexField(g, np.array([[1.0]]), {0: _constant(1.0)})
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
    for radius in ("auto", 1.0):
        cfg = replace(default_config(), analysis=replace(default_config().analysis, radius=radius))
        row, profile = field_metrics("omega_fs", bare, cfg)
        assert profile is None
        assert row["ring_radius"] == row["winding"] == row["petal_count"] == row["peak_angle"] == ""
        assert row["radius"] == ("" if radius == "auto" else radius)


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
    g = make_grid(33, 3.0)

    def band(a, centre):
        return lambda r: a * np.exp(-((r - centre) ** 2))

    orders = {k: band(a, c) for (k, a), c in zip(amps.items(), centres)}
    values = sum(R(g.r) * np.exp(1j * k * g.theta) for k, R in orders.items())
    field = ComplexField(g, values, orders)
    radii = np.arange(0.0, g.extent + 0.25 * g.step, 0.5 * g.step)
    thetas = 2.0 * np.pi * np.arange(4096) / 4096
    rings = sum(R(radii)[:, None] * np.exp(1j * k * thetas) for k, R in orders.items())
    sampled = np.mean(np.abs(rings) ** 2, axis=1)
    chosen = int(np.flatnonzero(radii == ring_radius(field))[0])
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
    assert winding_number(_ring_field(amps), radius=1.0) == round(steps.sum() / (2.0 * np.pi))


def test_two_equal_orders_leave_the_winding_blank():
    # |R_1| = |R_-1|: the ring passes through zero twice and has no winding
    field = _ring_field({1: 0.5, -1: 0.5 * np.exp(0.3j)})
    with pytest.raises(AmplitudeFloorError):
        winding_number(field, radius=1.0)
    # just above the floor, the larger order wins
    tilted = _ring_field({1: 0.5 + 3.0 * AMPLITUDE_FLOOR, -1: 0.5 * np.exp(0.3j)})
    assert winding_number(tilted, radius=1.0) == 1
    cfg = replace(default_config(), analysis=replace(default_config().analysis, radius=1.0))
    row, profile = field_metrics("omega_d", field, cfg)
    assert row["winding"] == ""
    assert profile is not None and petal_count(profile) == 2
