import gc
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vortex_twm import medium, propagation, verify
from vortex_twm.beams import LGBeamSpec, lg_radial, sample_lg
from vortex_twm.config import GridSpec, RunConfig, load_config
from vortex_twm.errors import (
    DegenerateMediumError,
    InvalidConfigError,
    StepCountError,
)
from vortex_twm.medium import CoherencePair, MediumParams, beta_factor, y_factor
from vortex_twm.figures import _FIGURES, _sweep_cells
from vortex_twm.propagation import (
    SERIES_SWITCH,
    ChannelState,
    integrate_channel_numeric,
    output_fields,
    output_rings,
    solve_channel_p,
    solve_channel_s,
)
from vortex_twm.runner import analyse, compute_fields

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
CANON = MediumParams(gamma31=1.0, gamma21=0.05, delta=0.0, d=100.0)


def test_boundary_condition_at_zero_distance():
    for solver in (solve_channel_s, solve_channel_p):
        state = solver(CANON, 3.0 + 1.0j, 0.005, 0.0)
        assert state.primary == pytest.approx(0.005, rel=1e-15)
        assert state.generated == 0.0


def test_z_range_validated():
    with pytest.raises(InvalidConfigError):
        solve_channel_s(CANON, 1.0, 0.005, -0.1)
    with pytest.raises(InvalidConfigError):
        solve_channel_p(CANON, 1.0, 0.005, 1.1)


def test_decoupled_exponentials():
    # moderate gamma31/gamma21 imbalance keeps the fast channel above the
    # cancellation floor of the shared cos/sinc evaluation
    p = MediumParams(1.0, 0.8, 0.5, 30.0)
    s0 = 0.004 - 0.001j
    for z in (0.2, 0.7, 1.0):
        s = solve_channel_s(p, 0.0, s0, z)
        q = solve_channel_p(p, 0.0, s0, z)
        assert s.primary == pytest.approx(
            s0 * np.exp(-p.d * z / (4.0 * (p.gamma31 + 1j * p.delta))), rel=1e-10
        )
        assert q.primary == pytest.approx(s0 * np.exp(-p.d * z / (4.0 * p.gamma21)), rel=1e-10)
        assert s.generated == 0.0
        assert q.generated == 0.0


def test_degenerate_medium_propagates():
    lossless = MediumParams(0.0, 0.0, 0.0, 10.0)
    with pytest.raises(DegenerateMediumError):
        solve_channel_s(lossless, 0.0, 0.005, 1.0)


def test_numeric_oracle_validation():
    with pytest.raises(InvalidConfigError):
        integrate_channel_numeric(CANON, 1.0, 0.005, "x", 1000)
    with pytest.raises(StepCountError):
        integrate_channel_numeric(CANON, 1.0, 0.005, "s", 99)
    with pytest.raises(StepCountError):
        integrate_channel_numeric(CANON, 1.0, 0.005, "s", 1000.0)


def test_numeric_zero_control_keeps_generated_dark():
    state = integrate_channel_numeric(CANON, 0.0, 0.005, "s", 200)
    assert state.generated == 0.0


def test_numeric_fourth_order_convergence():
    p = MediumParams(1.0, 0.3, 2.0, 20.0)
    c, b0 = 3.0 + 0.5j, 0.004
    exact = solve_channel_s(p, c, b0, 1.0)

    def err(steps):
        got = integrate_channel_numeric(p, c, b0, "s", steps)
        return abs(got.primary - exact.primary) + abs(got.generated - exact.generated)

    e1, e2 = err(400), err(800)
    assert 10.0 < e1 / e2 < 22.0


@pytest.mark.parametrize("channel,solver", [("s", solve_channel_s), ("p", solve_channel_p)])
def test_analytic_matches_numeric_scalar(channel, solver):
    p = MediumParams(1.0, 0.11, -4.0, 55.0)
    c = 2.5 * np.exp(0.4j)
    b0 = 0.005 * np.exp(-1.1j)
    exact = solver(p, c, b0, 1.0)
    num = integrate_channel_numeric(p, c, b0, channel, 4000)
    scale = max(abs(b0), abs(exact.primary), abs(exact.generated))
    assert abs(exact.primary - num.primary) / scale < 1e-9
    assert abs(exact.generated - num.generated) / scale < 1e-9


def _rk4_channel_loop(p, control, boundary, channel, steps):
    """Literal per-step RK4 of the channel equations in the propagation docstring."""
    y = y_factor(p, control)
    pre = 0.5j * p.d / p.length
    slow = 0.5j * p.gamma21 / y
    fast = 0.5j * (p.gamma31 + 1j * p.delta) / y
    if channel == "s":  # state (omega_s, omega_fp)
        (a11, a12), (a21, a22) = (slow, -0.25 * control / y), (-0.25 * np.conj(control) / y, fast)
    else:  # state (omega_p, omega_fs)
        (a11, a12), (a21, a22) = (fast, -0.25 * np.conj(control) / y), (-0.25 * control / y, slow)

    def rhs(u, v):
        return pre * (a11 * u + a12 * v), pre * (a21 * u + a22 * v)

    h = p.length / steps
    u = np.asarray(boundary, dtype=complex) + np.zeros(np.shape(control))
    v = np.zeros_like(u)
    for _ in range(steps):
        k1 = rhs(u, v)
        k2 = rhs(u + 0.5 * h * k1[0], v + 0.5 * h * k1[1])
        k3 = rhs(u + 0.5 * h * k2[0], v + 0.5 * h * k2[1])
        k4 = rhs(u + h * k3[0], v + h * k3[1])
        u = u + (h / 6.0) * (k1[0] + 2.0 * (k2[0] + k3[0]) + k4[0])
        v = v + (h / 6.0) * (k1[1] + 2.0 * (k2[1] + k3[1]) + k4[1])
    return u, v


@pytest.mark.parametrize("steps", [100, 101, 127, 128, 1000])
@pytest.mark.parametrize("channel", ["s", "p"])
def test_numeric_oracle_is_stepwise_rk4(channel, steps):
    # the powered one-step matrix must reproduce the step-by-step scheme,
    # for odd and even exponents, pixel arrays and scalars alike
    p = MediumParams(1.0, 0.11, -4.0, 55.0)
    grid = GridSpec(16, 3.0)
    cases = [
        (2.5 * np.exp(0.4j), 0.005 * np.exp(-1.1j)),
        (sample_lg(LGBeamSpec(4.0, 1), grid).values, sample_lg(LGBeamSpec(0.005, 0), grid).values),
    ]
    for control, boundary in cases:
        got = integrate_channel_numeric(p, control, boundary, channel, steps)
        ref = _rk4_channel_loop(p, control, boundary, channel, steps)
        assert np.shape(got.primary) == np.shape(ref[0])
        scale = max(float(np.max(np.abs(ref[0]))), float(np.max(np.abs(ref[1]))))
        err = max(
            float(np.max(np.abs(got.primary - ref[0]))),
            float(np.max(np.abs(got.generated - ref[1]))),
        )
        assert err / scale <= 1e-12


def test_channel_oracle_catches_sign_flip(monkeypatch):
    # the automated form of the README mutation check: a flipped sign on the
    # generated s-channel field must drive the oracle suite far out of tolerance
    original = verify.solve_channel_s

    def flipped(*args):
        state = original(*args)
        return ChannelState(primary=state.primary, generated=-state.generated, z=state.z)

    assert verify.channel_oracle_error(64, 1000) <= 1e-7
    monkeypatch.setattr(verify, "solve_channel_s", flipped)
    assert verify.channel_oracle_error(64, 1000) >= 1e-3


@pytest.mark.parametrize("coherence", ["rho31", "rho21"])
def test_flipped_cross_term_fails_kernel_and_channel_oracle(monkeypatch, coherence):
    # the oracle's coefficients come from the medium: a sign flipped on one
    # cross term of steady_coherences must fail both the kernel and the oracle
    original = medium.steady_coherences

    def flipped(p, control, probe_p_total, probe_s_total):
        pair = original(p, control, probe_p_total, probe_s_total)
        y = y_factor(p, control)
        if coherence == "rho31":  # - control probe_p / 4Y becomes + control probe_p / 4Y
            return CoherencePair(pair.rho31 + 0.5 * control * probe_p_total / y, pair.rho21)
        return CoherencePair(pair.rho31, pair.rho21 + 0.5 * np.conj(control) * probe_s_total / y)

    assert verify.steady_kernel_error(25) <= 1e-12
    assert verify.channel_oracle_error(64, 1000) <= 1e-7
    monkeypatch.setattr(verify, "steady_coherences", flipped)
    monkeypatch.setattr(propagation, "steady_coherences", flipped)
    assert verify.steady_kernel_error(25) >= 1e-3
    assert verify.channel_oracle_error(64, 1000) >= 1e-3


def test_sum_ripple_grid_has_a_bitwise_antisymmetric_axis():
    # verify.sum_ripple_error's orbit maps nodes to nodes of equal radius only on such an axis
    axis = _FIGURES["fig4"][0].grid.axis
    assert not np.any(axis + axis[::-1])


@given(
    gamma21=st.floats(min_value=0.01, max_value=1.0),
    delta=st.floats(min_value=-9.0, max_value=9.0),
    amp=st.floats(min_value=0.0, max_value=6.0),
    d=st.floats(min_value=1.0, max_value=200.0),
)
@settings(max_examples=25, deadline=None)
def test_oracle_equivalence_random_draws(gamma21, delta, amp, d):
    p = MediumParams(1.0, gamma21, delta, d)
    c = amp * np.exp(0.7j)
    b0 = 0.005
    for channel, solver in (("s", solve_channel_s), ("p", solve_channel_p)):
        exact = solver(p, c, b0, 1.0)
        num = integrate_channel_numeric(p, c, b0, channel, 2000)
        scale = max(abs(b0), abs(exact.primary), abs(exact.generated), 1e-300)
        assert abs(exact.primary - num.primary) / scale < 1e-7
        assert abs(exact.generated - num.generated) / scale < 1e-7


def test_series_switch_continuity():
    # pixels near beta*x = 0 must join the direct quotient smoothly
    p = MediumParams(1.0, 1.0, 0.0, 1.0)  # gamma31 = gamma21 -> beta = |control|
    b0 = 1.0
    tiny = solve_channel_s(p, 1e-6, b0, 1.0)     # series branch
    small = solve_channel_s(p, 2e-3, b0, 1.0)    # direct branch
    zero = solve_channel_s(p, 0.0, b0, 1.0)
    assert abs(tiny.primary - zero.primary) < 1e-9
    assert abs(small.primary - zero.primary) < 1e-4


def test_winding_arithmetic_of_generated_fields():
    # fs carries control + p-probe charge; fp carries s-probe - control charge
    p = MediumParams(1.0, 0.05, 0.0, 8.0)
    for lc, lp, ls in ((1, 0, 0), (2, 1, 1), (-1, 1, 0), (3, 0, 1)):
        cfg = RunConfig(
            medium=p,
            control=LGBeamSpec(4.0, lc),
            probe_p=LGBeamSpec(0.005, lp),
            probe_s=LGBeamSpec(0.005, ls),
            grid=GridSpec(128, 3.0),
        )
        rows = {name: row for name, (row, _profile) in analyse(cfg).items()}
        assert rows["omega_fs"]["winding"] == lc + lp
        assert rows["omega_fp"]["winding"] == ls - lc


def _probe_error(field, spec, grid) -> float:
    """The largest distance of a painted field from the probe's own sample, over its peak."""
    probe = sample_lg(spec, grid).values
    return float(np.max(np.abs(field.values - probe))) / float(np.max(np.abs(probe)))


def test_output_fields_zero_control_passthrough():
    g = GridSpec(32, 3.0)
    dark, spec_p, spec_s = LGBeamSpec(0.0, 0), LGBeamSpec(0.004, 1), LGBeamSpec(0.003, 0)
    out = output_fields(CANON, dark, spec_p, spec_s, g)
    # the probes pass to the rounding of their phase rasters, and generate nothing
    assert _probe_error(out["omega_d"], spec_p, g) <= 1e-15
    assert _probe_error(out["omega_u"], spec_s, g) <= 1e-15
    assert not np.any(out["omega_fp"].values) and not np.any(out["omega_fs"].values)
    # each output keeps its probe's order and gains a dark generated one
    r = np.linspace(0.0, 3.0, 7)
    rings = output_rings(CANON, dark, spec_p, spec_s)(r)
    assert sorted(rings["omega_d"]) == [0, 1]
    assert np.array_equal(rings["omega_d"][1], lg_radial(spec_p)(r))
    assert np.array_equal(rings["omega_u"][0], lg_radial(spec_s)(r))
    assert not np.any(rings["omega_d"][0]) and not np.any(rings["omega_u"][1])


def _order_sum(amps, grid):
    return sum(a * np.exp(1j * k * grid.theta) for k, a in amps.items())


@pytest.mark.parametrize("n", [256, 257])
def test_values_are_the_closed_form_on_the_grid(n):
    # the painted values are output_rings' order sum at grid.r, to rounding; the
    # last two charge sets make orders coincide (lp = ls - lc and ls = lc + lp)
    g = GridSpec(n, 3.0)
    p = MediumParams(1.0, 0.05, 1.5, 8.0)
    for lc, lp, ls in ((2, 1, 0), (-2, -1, 1), (-3, 2, -1), (1, 0, 1), (-1, 1, 0)):
        specs = dict(zip(("control", "probe_p", "probe_s"), (
            LGBeamSpec(4.0, lc), LGBeamSpec(0.005, lp), LGBeamSpec(0.003, ls)
        )))
        inputs = {name: sample_lg(spec, g) for name, spec in specs.items()}
        fields = {**inputs, **output_fields(p, *specs.values(), g)}
        rings = {
            **{name: {spec.tc: lg_radial(spec)(g.r)} for name, spec in specs.items()},
            **output_rings(p, *specs.values())(g.r),
        }
        want = {
            "control": {lc}, "probe_p": {lp}, "probe_s": {ls},
            "omega_d": {lp, ls - lc}, "omega_u": {ls, lc + lp}, "omega_fp": {ls - lc},
            "omega_fs": {lc + lp}, "omega_s": {ls}, "omega_p": {lp},
        }
        for name, f in fields.items():
            assert set(rings[name]) == want[name]
            peak = float(np.max(np.abs(f.values)))
            err = float(np.max(np.abs(_order_sum(rings[name], g) - f.values)))
            assert err <= 1e-12 * peak, (lc, lp, ls, name, err / peak)


def test_output_fields_composition_identities():
    g = GridSpec(48, 3.0)
    # (1, 1, 0): each probe's order differs from its partner's; (1, 0, 1): they coincide
    for lc, lp, ls in ((1, 1, 0), (1, 0, 1)):
        probes = LGBeamSpec(0.005, lp), LGBeamSpec(0.005, ls)
        out = output_fields(CANON, LGBeamSpec(4.0, lc), *probes, g)
        dark = output_fields(CANON, LGBeamSpec(0.0, lc), *probes, g)  # the painted probes
        assert list(out) == ["omega_d", "omega_u", "omega_fp", "omega_fs", "omega_s", "omega_p"]
        for name, partner in (("omega_d", "omega_fp"), ("omega_u", "omega_fs")):
            composed = dark[name].values + out[partner].values
            if lp == 1:  # bit for bit
                assert np.array_equal(out[name].values, composed)
            else:  # one order: the radial parts add before their phase multiplies them
                assert np.max(np.abs(out[name].values - composed)) <= 1e-15 * out[name].peak
        for name, spec in (("omega_d", probes[0]), ("omega_u", probes[1])):
            assert _probe_error(dark[name], spec, g) <= 1e-15


def _ring_reads():
    """The radial parts of inputs of orders lc = 1, lp = 1, ls = 0, and their outputs' rings."""
    specs = (LGBeamSpec(4.0, 1), LGBeamSpec(0.005, 1), LGBeamSpec(0.005, 0))
    radials = [lg_radial(spec) for spec in specs]
    return radials, output_rings(CANON, *specs)


def test_ring_reads_equal_an_uncached_evaluation():
    radials, rings = _ring_reads()
    # (field, the order that carries an exit face, that face) for lc = lp = 1, ls = 0
    parts = [("omega_d", -1, "omega_fp"), ("omega_u", 2, "omega_fs"), ("omega_fp", -1, "omega_fp"),
             ("omega_fs", 2, "omega_fs"), ("omega_s", 0, "omega_s"), ("omega_p", 1, "omega_p")]
    radii = [0.5, np.array(0.5), 0.0, -0.0, np.array([0.0, -0.0, 1.25]),
             np.array([-0.0, 0.0, 1.25]), 0.5, np.linspace(0.0, 3.0, 7), 0.0,
             np.array([[0.25, 1.0]]), -0.0]
    signed = []
    for r in radii:
        want = propagation._exit_faces(CANON, *(radial(r) for radial in radials))
        signed.append(np.asarray(want["omega_p"]).tobytes())
        for name, k, face in parts:
            got = rings(r)[name][k]
            assert np.shape(got) == np.shape(want[face])
            assert np.asarray(got).tobytes() == np.asarray(want[face]).tobytes(), (name, r)
    assert signed[2] != signed[3]  # the signs of zero radii reach the bits


def _fp_reader():
    _radials, rings = _ring_reads()
    return lambda r: rings(r)["omega_fp"][-1]


def test_ring_reads_are_the_callers_own():
    fp = _fp_reader()
    for r in (np.linspace(0.0, 3.0, 5), 0.5, -0.0, np.array([[0.25, 1.0]])):
        want = fp(r).tobytes()
        fp(r)[...] = np.nan  # a write into one read reaches no other
        assert fp(r).tobytes() == want, r


def test_ring_reads_keep_no_array_alive():
    fp = _fp_reader()
    held = [weakref.ref(fp(np.array([0.01 * i, 1.0]))) for i in range(100)]
    gc.collect()
    assert not any(ref() is not None for ref in held)


def test_probe_scaling_scales_outputs():
    g = GridSpec(24, 3.0)
    ctrl = LGBeamSpec(4.0, 1)
    one = output_fields(CANON, ctrl, LGBeamSpec(0.002, 1), LGBeamSpec(0.003, 0), g)
    three = output_fields(CANON, ctrl, LGBeamSpec(0.006, 1), LGBeamSpec(0.009, 0), g)
    assert np.allclose(three["omega_d"].values, 3.0 * one["omega_d"].values, rtol=1e-12, atol=0)
    assert np.allclose(three["omega_u"].values, 3.0 * one["omega_u"].values, rtol=1e-12, atol=0)


def test_on_axis_damping_monotone():
    # overdamped on-axis dynamics (|control| < gamma31 - gamma21, delta = 0):
    # |omega_s| decays monotonically; stronger control would Rabi-null and revive
    for amp in (0.0, 0.3, 0.5, 0.9):
        mag_prev = np.inf
        for z in np.linspace(0.0, 1.0, 41):
            s = solve_channel_s(CANON, amp, 0.005, float(z))
            mag = abs(s.primary)
            assert mag <= mag_prev * (1.0 + 1e-14)
            mag_prev = mag


def test_channel_power_decays_at_zero_detuning():
    # delta = 0 makes Y real, so |primary|^2 + |generated|^2 is strictly
    # dissipated regardless of control strength
    for amp in (0.0, 1.0, 4.0):
        power_prev = np.inf
        for z in np.linspace(0.0, 1.0, 41):
            s = solve_channel_s(CANON, amp, 0.005, float(z))
            power = abs(s.primary) ** 2 + abs(s.generated) ** 2
            assert power <= power_prev * (1.0 + 1e-14)
            power_prev = power


# ------------------------------------------------------- channel factor oracle


def _full_array_factors(p, control, z):
    """The former _channel_factors: the series and its exp on every pixel."""
    y = y_factor(p, control)
    beta = beta_factor(p, control)
    x = (p.d * z) / (8.0 * y * p.length)
    bx = beta * x
    xg = x * (1j * p.delta + p.gamma31 + p.gamma21)
    mode_plus = np.exp(1j * bx - xg)
    mode_minus = np.exp(-1j * bx - xg)
    cos_damp = 0.5 * (mode_plus + mode_minus)
    small = np.abs(bx) < SERIES_SWITCH
    bx2 = bx * bx
    series = x * (1.0 - bx2 / 6.0 + bx2 * bx2 / 120.0) * np.exp(-xg)
    with np.errstate(invalid="ignore", divide="ignore"):
        direct = (mode_plus - mode_minus) / np.where(small, 1.0, 2j * beta)
    return cos_damp, np.where(small, series, direct)


def _near_switch_controls(p, z):
    """Control amplitudes whose |beta x| lands just either side of SERIES_SWITCH."""
    amps = np.geomspace(1e-6, 1e-2, 4001)
    bx = np.abs(beta_factor(p, amps) * p.d * z / (8.0 * y_factor(p, amps) * p.length))
    edge = int(np.argmax(bx >= SERIES_SWITCH))
    return amps[edge - 3 : edge + 3]


@pytest.mark.parametrize(
    "p",
    [
        MediumParams(1.0, 1.0, 0.0, 1.0),   # beta = |control|: zero at zero control
        MediumParams(1.0, 1.0, 0.0, 40.0),
        MediumParams(1.0, 0.05, 0.0, 8.0),  # beta = 0 on the ring |control| = 0.95
        MediumParams(1.0, 0.05, 1.5, 100.0),
    ],
)
@pytest.mark.parametrize("z", [0.0, 0.3, 1.0])
def test_channel_factors_match_full_array_formula(p, z):
    z = z * p.length
    near = _near_switch_controls(p, z) if p.gamma31 == p.gamma21 and z > 0 else np.array([])
    ring = 0.95 * np.exp(1j * np.linspace(0.0, 6.0, 5))
    ordinary = np.array([0.0, 0.0, 1e-3j, 0.3 - 0.2j, 1.0, 4.0, 4.0j, 12.0 + 5.0j])
    control = np.concatenate([near, near * 1j, ring, ring * (1.0 + 1e-9), ordinary])
    if p.gamma31 == p.gamma21 and z > 0:
        bx = np.abs(beta_factor(p, near) * p.d * z / (8.0 * y_factor(p, near) * p.length))
        assert (bx < SERIES_SWITCH).any() and (bx >= SERIES_SWITCH).any()
    for c in (control, control.reshape(3, -1)[:, ::2], *control[::3], 0.0, 0.95, 4.0):
        got = propagation._channel_factors(p, c, z)
        want = _full_array_factors(p, c, z)
        for g, w in zip(got, want):
            assert np.shape(g) == np.shape(w)
            assert np.asarray(g).tobytes() == np.asarray(w).tobytes()


# ------------------------------------------- factors per distinct |control|


def _preset_controls():
    """(id, medium, control raster) of fig3 (lc 1-3), fig4 (delta -9, 9) and fig6 (lc 4)."""
    cases = []
    for fig, values in (("fig3", (1, 2, 3)), ("fig4", (-9.0, 9.0)), ("fig6", (4,))):
        base, param = _FIGURES[fig][:2]
        for label, cfg in _sweep_cells(base, param, values):
            cases.append((f"{fig}-{label}", cfg.medium, sample_lg(cfg.control, cfg.grid).values))
    return cases


def _assert_factors_match_full_array(p, control):
    got = propagation._channel_factors(p, control, p.length)
    want = _full_array_factors(p, control, p.length)
    for g, w in zip(got, want):
        assert np.shape(g) == np.shape(w)
        assert np.asarray(g).tobytes() == np.asarray(w).tobytes()


@pytest.mark.parametrize("case", _preset_controls(), ids=lambda case: case[0])
def test_factors_of_preset_controls_match_full_array_formula(case):
    _id, p, control = case
    rng = np.random.default_rng(0)
    _assert_factors_match_full_array(p, control)
    permuted = rng.permutation(control.ravel()).reshape(control.shape)
    for c in (permuted, control[::3, 1::2], control.T, control[::-1, ::-2], permuted[:, 5]):
        _assert_factors_match_full_array(p, c)


def _nan(payload: int) -> float:
    return np.array([0x7FF8000000000000 | payload], dtype=np.uint64).view(np.float64)[0]


def test_factors_of_non_finite_controls_match_full_array_formula(monkeypatch):
    seen = []
    real = propagation.beta_factor
    monkeypatch.setattr(propagation, "beta_factor", lambda p, c: seen.append(c) or real(p, c))
    amps = np.array([np.inf, -np.inf, _nan(1), _nan(2), 1.0, 0.0, _nan(1), -4.0, np.inf])
    with np.errstate(all="ignore"):
        for control in (amps, amps * 1j, amps.astype(complex).reshape(3, 3).T):
            _assert_factors_match_full_array(CANON, control)
    # every distinct bit pattern of |control| is evaluated once: the two NaNs stay apart
    distinct = [np.inf, _nan(1), _nan(2), 1.0, 0.0, 4.0]
    assert sorted(v.tobytes() for v in seen[0]) == sorted(np.float64(a).tobytes() for a in distinct)


def test_factors_of_integer_and_float32_controls_match_full_array_formula():
    # magnitudes that are not float64 cannot be told apart by float64 bits
    for control in (np.array([0, 1, 4, -4, 1]), np.array([[0.5, 4.0], [0.5, 1.0]], np.float32)):
        _assert_factors_match_full_array(CANON, control)


def test_fig4_control_is_evaluated_once_per_distinct_magnitude(monkeypatch):
    sizes = []
    real = propagation.beta_factor
    monkeypatch.setattr(propagation, "beta_factor", lambda p, c: sizes.append(np.size(c)) or real(p, c))
    cfg = _FIGURES["fig4"][0]
    compute_fields(cfg)
    assert cfg.grid.n**2 == 66049
    assert sizes == [5939]  # the grid's distinct radii, not its 66049 pixels


def test_channel_factors_hold_few_rasters():
    n = 512
    control = sample_lg(LGBeamSpec(4.0, 1), GridSpec(n, 3.0)).values
    tracemalloc.start()
    try:
        propagation._channel_factors(CANON, control, CANON.length)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 6 * 16 * n * n  # two complex factor rasters and the magnitude classes


@pytest.mark.parametrize("case", ["transfer", "fig4"])
def test_painting_holds_few_rasters(case):
    cfg = load_config(CONFIGS / "transfer.json") if case == "transfer" else _FIGURES["fig4"][0]
    n = cfg.grid.n
    tracemalloc.start()
    try:
        compute_fields(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the six outputs, the pixels' radius index, a phase raster per |order|, the rings
    assert peak <= 9.5 * 16 * n * n
