import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vortex_twm.errors import DegenerateMediumError, InvalidConfigError, StepSizeError
from vortex_twm.medium import (
    CoherencePair,
    MediumParams,
    beta_factor,
    evolve_coherences,
    rk4_power,
    steady_coherences,
    y_factor,
)

CANON = MediumParams(gamma31=1.0, gamma21=0.05, delta=0.0, d=100.0)


def _rhs(p, c, pp, ps, pair):
    r31 = -(p.gamma31 + 1j * p.delta) * pair.rho31 + 0.5j * ps + 0.5j * c * pair.rho21
    r21 = -p.gamma21 * pair.rho21 + 0.5j * pp + 0.5j * np.conj(c) * pair.rho31
    return r31, r21


def test_params_validation():
    with pytest.raises(InvalidConfigError):
        MediumParams(-1.0, 0.05, 0.0, 100.0)
    with pytest.raises(InvalidConfigError):
        MediumParams(1.0, -0.05, 0.0, 100.0)
    with pytest.raises(InvalidConfigError):
        MediumParams(1.0, 0.05, float("nan"), 100.0)
    with pytest.raises(InvalidConfigError):
        MediumParams(1.0, 0.05, 0.0, 0.0)
    with pytest.raises(InvalidConfigError):
        MediumParams(1.0, 0.05, 0.0, 100.0, length=2.0)


def test_y_factor_hand_values():
    assert y_factor(MediumParams(1.0, 0.05, 0.0, 1.0), 0.0) == pytest.approx(0.05)
    assert y_factor(CANON, 4.0) == pytest.approx(4.05)
    p9 = MediumParams(1.0, 0.05, 9.0, 1.0)
    assert y_factor(p9, 4.0) == pytest.approx(4.05 + 0.45j)


def test_y_factor_phase_blind():
    rng = np.random.default_rng(7)
    for _ in range(20):
        phi = rng.uniform(-np.pi, np.pi)
        c = 3.0 * np.exp(1j * phi)
        assert y_factor(CANON, c) == pytest.approx(y_factor(CANON, 3.0), rel=1e-14)


def test_beta_factor_hand_values():
    sym = MediumParams(1.0, 1.0, 0.0, 1.0)
    assert beta_factor(sym, 4.0) == pytest.approx(4.0)
    assert beta_factor(CANON, 0.0) == pytest.approx(0.95j)
    assert beta_factor(CANON, 4.0) == pytest.approx(np.sqrt(16.0 - 0.9025))
    assert beta_factor(CANON, 4.0) == pytest.approx(3.885551, abs=1e-5)


def test_steady_zero_probes_is_dark():
    pair = steady_coherences(CANON, 4.0, 0.0, 0.0)
    assert pair.rho31 == 0.0 and pair.rho21 == 0.0


def test_steady_decoupled_control_limit():
    p = MediumParams(1.0, 0.05, 3.0, 1.0)
    pp, ps = 0.01, 0.02j
    pair = steady_coherences(p, 0.0, pp, ps)
    assert pair.rho31 == pytest.approx(0.5j * ps / (p.gamma31 + 1j * p.delta), rel=1e-14)
    assert pair.rho21 == pytest.approx(0.5j * pp / p.gamma21, rel=1e-14)


def test_degenerate_medium_rejected():
    lossless = MediumParams(0.0, 0.0, 0.0, 1.0)
    with pytest.raises(DegenerateMediumError):
        steady_coherences(lossless, 0.0, 0.01, 0.01)
    # fine with nonzero control
    steady_coherences(lossless, 2.0, 0.01, 0.01)


@given(
    gamma21=st.floats(min_value=0.01, max_value=1.0),
    delta=st.floats(min_value=-9.0, max_value=9.0),
    amp=st.floats(min_value=0.0, max_value=6.0),
    phi=st.floats(min_value=-3.14, max_value=3.14),
)
@settings(max_examples=60, deadline=None)
def test_steady_matches_direct_linear_solve(gamma21, delta, amp, phi):
    p = MediumParams(1.0, gamma21, delta, 1.0)
    c = amp * np.exp(1j * phi)
    pp, ps = 0.013 - 0.002j, 0.004 + 0.009j
    pair = steady_coherences(p, c, pp, ps)
    a = np.array([[-(p.gamma31 + 1j * delta), 0.5j * c], [0.5j * np.conj(c), -gamma21]])
    sol = np.linalg.solve(a, [-0.5j * ps, -0.5j * pp])
    assert pair.rho31 == pytest.approx(sol[0], rel=1e-12, abs=1e-15)
    assert pair.rho21 == pytest.approx(sol[1], rel=1e-12, abs=1e-15)


def test_evolve_pure_decay():
    p = MediumParams(1.0, 0.5, 0.0, 1.0)
    out = evolve_coherences(p, 0.0, 0.0, 0.0, CoherencePair(1.0, 1.0), t_end=60.0, dt=0.05)
    assert abs(out.rho31) < 1e-10
    assert abs(out.rho21) < 1e-10


def test_evolve_reaches_fixed_point():
    p = MediumParams(1.0, 0.05, 3.0, 1.0)
    c = 2.0 + 1.0j
    pp, ps = 0.01, 0.02j
    target = steady_coherences(p, c, pp, ps)
    out = evolve_coherences(
        p, c, pp, ps, CoherencePair(0.0, 0.0), t_end=50.0 / p.gamma21, dt=0.03
    )
    assert out.rho31 == pytest.approx(target.rho31, abs=1e-8)
    assert out.rho21 == pytest.approx(target.rho21, abs=1e-8)


def test_evolve_fourth_order_convergence():
    # Richardson: halving dt cuts the error against a fine reference ~16x
    p = MediumParams(1.0, 0.4, 1.0, 1.0)
    c, pp, ps = 1.5, 0.01, 0.02j
    init = CoherencePair(0.02 + 0.01j, -0.01j)
    t = 2.0

    def err(dt):
        ref = evolve_coherences(p, c, pp, ps, init, t, 0.0005)
        out = evolve_coherences(p, c, pp, ps, init, t, dt)
        return abs(out.rho31 - ref.rho31) + abs(out.rho21 - ref.rho21)

    e1, e2 = err(0.05), err(0.025)
    assert 10.0 < e1 / e2 < 22.0


def test_evolve_step_guard():
    p = MediumParams(1.0, 0.05, 0.0, 1.0)
    with pytest.raises(StepSizeError):
        evolve_coherences(p, 4.0, 0.0, 0.0, CoherencePair(0.0, 0.0), 1.0, dt=0.1)
    with pytest.raises(StepSizeError):
        evolve_coherences(p, 1.0, 0.0, 0.0, CoherencePair(0.0, 0.0), 1.0, dt=-0.01)
    with pytest.raises(StepSizeError):
        evolve_coherences(p, 1.0, 0.0, 0.0, CoherencePair(0.0, 0.0), -1.0, dt=0.01)


def test_evolve_zero_time_returns_initial():
    p = MediumParams(1.0, 0.05, 0.0, 1.0)
    init = CoherencePair(0.1 + 0.2j, -0.3j)
    out = evolve_coherences(p, 1.0, 0.01, 0.01, init, 0.0, dt=0.01)
    assert out.rho31 == init.rho31 and out.rho21 == init.rho21


def test_evolve_array_path_matches_scalar():
    p = MediumParams(1.0, 0.2, -2.0, 1.0)
    cs = np.array([0.5 + 0.1j, 3.0, 0.0, 1.0 - 2.0j])
    pps = np.array([0.01, 0.0, 0.02j, 0.01 - 0.01j])
    pss = np.array([0.02j, 0.01, 0.0, 0.005])
    arr = evolve_coherences(p, cs, pps, pss, CoherencePair(0.0, 0.0), 5.0, dt=0.02)
    for k in range(cs.size):
        one = evolve_coherences(
            p, complex(cs[k]), complex(pps[k]), complex(pss[k]),
            CoherencePair(0.0, 0.0), 5.0, dt=0.02,
        )
        assert arr.rho31[k] == pytest.approx(one.rho31, rel=1e-13, abs=1e-16)
        assert arr.rho21[k] == pytest.approx(one.rho21, rel=1e-13, abs=1e-16)


def _rk4_coherence_loop(p, c, pp, ps, init, t_end, dt):
    """Literal per-step RK4 of the coherence equations of motion."""
    steps = max(1, math.ceil(t_end / dt - 1e-12))
    h = t_end / steps
    zeros = np.zeros(np.broadcast(c, pp, ps, init.rho31, init.rho21).shape, dtype=complex)
    u, v = init.rho31 + zeros, init.rho21 + zeros

    def rhs(a, b):
        return _rhs(p, c, pp, ps, CoherencePair(a, b))

    for _ in range(steps):
        k1 = rhs(u, v)
        k2 = rhs(u + 0.5 * h * k1[0], v + 0.5 * h * k1[1])
        k3 = rhs(u + 0.5 * h * k2[0], v + 0.5 * h * k2[1])
        k4 = rhs(u + h * k3[0], v + h * k3[1])
        u = u + (h / 6.0) * (k1[0] + 2.0 * (k2[0] + k3[0]) + k4[0])
        v = v + (h / 6.0) * (k1[1] + 2.0 * (k2[1] + k3[1]) + k4[1])
    return u, v


@pytest.mark.parametrize("steps", [100, 101, 127, 128, 1000])
def test_evolve_is_stepwise_rk4(steps):
    # the powered augmented matrix must reproduce the step-by-step scheme
    # for scalars, arrays, and a scalar initial pair against array drives
    p = MediumParams(1.0, 0.2, -2.0, 1.0)
    t_end = 2.0
    dt = t_end / steps
    cs = np.array([0.5 + 0.1j, 3.0, 0.0, 1.0 - 2.0j])
    pps = np.array([0.01, 0.0, 0.02j, 0.01 - 0.01j])
    pss = np.array([0.02j, 0.01, 0.0, 0.005])
    cases = [
        (1.5 + 0.3j, 0.01, 0.02j, CoherencePair(0.02 + 0.01j, -0.01j)),
        (cs, pps, pss, CoherencePair(0.01 * cs, -0.5j * pps)),
        (cs, 0.01, 0.02j, CoherencePair(0.02 + 0.01j, -0.01j)),
    ]
    for c, pp, ps, init in cases:
        got = evolve_coherences(p, c, pp, ps, init, t_end, dt)
        ref = _rk4_coherence_loop(p, c, pp, ps, init, t_end, dt)
        assert np.shape(got.rho31) == np.shape(ref[0]) == np.shape(got.rho21)
        if np.ndim(c) == 0:  # a scalar call keeps returning Python complex
            assert type(got.rho31) is complex and type(got.rho21) is complex
        scale = max(float(np.max(np.abs(ref[0]))), float(np.max(np.abs(ref[1]))))
        err = max(
            float(np.max(np.abs(got.rho31 - ref[0]))),
            float(np.max(np.abs(got.rho21 - ref[1]))),
        )
        assert err / scale <= 1e-12


def _rk4_power_reference(a, h, steps):
    """Per matrix: R(h a) by Horner's rule, then numpy's own matrix power."""
    eye = np.eye(a.shape[-1])
    ref = np.empty(a.shape, dtype=complex)
    for i in np.ndindex(a.shape[:-2]):
        x = h * a[i]
        r = eye + x / 4.0
        for k in (3.0, 2.0, 1.0):
            r = eye + (x / k) @ r
        ref[i] = np.linalg.matrix_power(r, steps)
    return ref


def _random_stack(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


@pytest.mark.parametrize("steps", [1, 2, 3, 100, 1000, 1023, 1024])
@pytest.mark.parametrize("stack", [(), (0,), (7,), (4, 5)])
@pytest.mark.parametrize("k", [2, 3])
def test_rk4_power_matches_per_matrix_reference(k, stack, steps):
    # the binary powering's odd/even edges, on scalar, empty, flat and 2-D stacks
    a = _random_stack(np.random.default_rng(steps), stack + (k, k))
    h = 2.0 / steps  # a fixed span, so the powers stay bounded as steps grow
    got = rk4_power(a, h, steps)
    ref = _rk4_power_reference(a, h, steps)
    assert got.shape == ref.shape == stack + (k, k)
    for i in np.ndindex(stack):
        assert np.max(np.abs(got[i] - ref[i])) <= 1e-12 * np.max(np.abs(ref[i]))


@pytest.mark.parametrize("steps", [1, 1000, 1023])
@pytest.mark.parametrize("shape", [(5, 3, 2, 2), (4, 3, 3)])
def test_rk4_power_of_a_matrix_ignores_its_stack(shape, steps):
    # each matrix's power is bit for bit its power computed alone
    a = _random_stack(np.random.default_rng(11), shape)
    h = 2.0 / steps
    whole = rk4_power(a, h, steps)
    for i in np.ndindex(shape[:-2]):
        assert np.array_equal(whole[i].view(float), rk4_power(a[i], h, steps).view(float))
