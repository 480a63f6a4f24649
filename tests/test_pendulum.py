"""Point-mass pendulum models: closed-form transitions vs an independent RK4
reference, conservation laws, the polar (constant-leg-length) variant, and the
momentum bookkeeping at foot exchange.

The RK4 oracle below is deliberately written from the raw state derivatives
(not via alip_transition) so the closed forms are checked against something
they do not share code with.
"""

import math

import numpy as np
import pytest

from stridelab import (
    AlipState,
    LipState,
    PendulumParams,
    PolarPendulumState,
    ValidationError,
    alip_derivative,
    alip_energy,
    alip_reset,
    alip_transition,
    lip_derivative,
    lip_transition,
    polar_derivative,
    transfer_angular_momentum,
    wedge,
)

PARAMS = PendulumParams(m=32.0, H=0.6)


def rk4_rollout(f, y0, t_end, h):
    """Fixed-step RK4 of dy/dt = f(y) from 0 to t_end (t_end multiple of h)."""
    y = np.array(y0, dtype=float)
    n = int(round(t_end / h))
    for _ in range(n):
        k1 = f(y)
        k2 = f(y + 0.5 * h * k1)
        k3 = f(y + 0.5 * h * k2)
        k4 = f(y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return y


def alip_rhs(params):
    mH = params.m * params.H
    mg = params.m * params.g

    def f(y):
        return np.array([y[1] / mH, mg * y[0]])

    return f


def lip_rhs(params):
    gH = params.g / params.H

    def f(y):
        return np.array([y[1], gH * y[0]])

    return f


# ---------------------------------------------------------------------------
# derivatives
# ---------------------------------------------------------------------------


def test_alip_derivative_equilibrium():
    dx, dL = alip_derivative(PARAMS, AlipState(x_c=0.0, L=0.0))
    assert dx == 0.0 and dL == 0.0


def test_alip_derivative_gravity_term():
    _, dL = alip_derivative(PARAMS, AlipState(x_c=0.1, L=0.0))
    assert dL == pytest.approx(PARAMS.m * PARAMS.g * 0.1, abs=1e-14)


def test_alip_derivative_hand_value():
    # m=32, H=0.6, x_c=0.05, L=5, u_a=2:
    #   dx = 5 / 19.2, dL = 32*9.81*0.05 + 2 = 17.696
    dx, dL = alip_derivative(PARAMS, AlipState(x_c=0.05, L=5.0), u_a=2.0)
    assert dx == pytest.approx(5.0 / 19.2, abs=1e-15)
    assert dL == pytest.approx(17.696, abs=1e-12)


def test_lip_derivative_hand_value():
    # m=32, H=0.6, x_c=0.05, v_c=0.5, u_a=2:
    #   dx = 0.5, dv = (9.81/0.6)*0.05 + 2/19.2
    dx, dv = lip_derivative(PARAMS, LipState(x_c=0.05, v_c=0.5), u_a=2.0)
    assert dx == 0.5
    assert dv == pytest.approx(9.81 / 0.6 * 0.05 + 2.0 / 19.2, abs=1e-14)


def test_lip_derivative_is_the_alip_field_in_velocity_units():
    mH = PARAMS.m * PARAMS.H
    dx_a, dL = alip_derivative(PARAMS, AlipState(x_c=0.04, L=7.0), u_a=1.5)
    dx_l, dv = lip_derivative(PARAMS, LipState(x_c=0.04, v_c=7.0 / mH), u_a=1.5)
    assert dx_l == pytest.approx(dx_a, rel=1e-15)
    assert dv == pytest.approx(dL / mH, rel=1e-14)


def test_derivatives_reject_non_finite_ankle_torque():
    with pytest.raises(ValidationError, match="alip_derivative"):
        alip_derivative(PARAMS, AlipState(x_c=0.0, L=0.0), u_a=math.nan)
    with pytest.raises(ValidationError, match="lip_derivative"):
        lip_derivative(PARAMS, LipState(x_c=0.0, v_c=0.0), u_a=math.inf)


# ---------------------------------------------------------------------------
# closed-form transitions vs RK4 oracle
# ---------------------------------------------------------------------------


def test_alip_transition_dt_zero_is_identity():
    s = AlipState(x_c=0.03, L=-4.0)
    out = alip_transition(PARAMS, s, 0.0)
    assert out.x_c == s.x_c and out.L == s.L


def test_alip_transition_matches_rk4():
    s = AlipState(x_c=0.05, L=5.0)
    out = alip_transition(PARAMS, s, 0.4)
    ref = rk4_rollout(alip_rhs(PARAMS), [s.x_c, s.L], 0.4, 1e-5)
    assert abs(out.x_c - ref[0]) <= 1e-8
    assert abs(out.L - ref[1]) <= 1e-8


def test_lip_transition_matches_rk4():
    s = LipState(x_c=-0.04, v_c=0.7)
    out = lip_transition(PARAMS, s, 0.4)
    ref = rk4_rollout(lip_rhs(PARAMS), [s.x_c, s.v_c], 0.4, 1e-5)
    assert abs(out.x_c - ref[0]) <= 1e-8
    assert abs(out.v_c - ref[1]) <= 1e-8


def test_transition_semigroup_property():
    # phi(dt1 + dt2) = phi(dt2) o phi(dt1), relative 1e-10
    rng = np.random.default_rng(11)
    for _ in range(20):
        x, L = rng.uniform(-0.2, 0.2), rng.uniform(-20, 20)
        dt1, dt2 = rng.uniform(0, 0.5, size=2)
        a = alip_transition(PARAMS, AlipState(x_c=x, L=L), dt1 + dt2)
        b = alip_transition(PARAMS, alip_transition(PARAMS, AlipState(x_c=x, L=L), dt1), dt2)
        scale = max(1.0, abs(a.x_c), abs(a.L))
        assert abs(a.x_c - b.x_c) <= 1e-10 * scale
        assert abs(a.L - b.L) <= 1e-10 * scale

        sv = LipState(x_c=x, v_c=L / (PARAMS.m * PARAMS.H))
        c = lip_transition(PARAMS, sv, dt1 + dt2)
        d = lip_transition(PARAMS, lip_transition(PARAMS, sv, dt1), dt2)
        scale = max(1.0, abs(c.x_c), abs(c.v_c))
        assert abs(c.x_c - d.x_c) <= 1e-10 * scale
        assert abs(c.v_c - d.v_c) <= 1e-10 * scale


def test_alip_energy_conserved_along_flow():
    rng = np.random.default_rng(23)
    for _ in range(25):
        s = AlipState(x_c=rng.uniform(-0.2, 0.2), L=rng.uniform(-15, 15))
        e0 = alip_energy(PARAMS, s)
        e1 = alip_energy(PARAMS, alip_transition(PARAMS, s, rng.uniform(0, 0.8)))
        assert abs(e1 - e0) <= 1e-9 * max(1.0, abs(e0))


def test_alip_lip_agree_under_momentum_velocity_map():
    # With v = L/(mH) the two linear flows are the same system.
    rng = np.random.default_rng(37)
    mH = PARAMS.m * PARAMS.H
    for _ in range(25):
        x, L = rng.uniform(-0.2, 0.2), rng.uniform(-20, 20)
        dt = rng.uniform(0, 0.6)
        a = alip_transition(PARAMS, AlipState(x_c=x, L=L), dt)
        v = lip_transition(PARAMS, LipState(x_c=x, v_c=L / mH), dt)
        assert abs(a.x_c - v.x_c) <= 1e-10 * max(1.0, abs(a.x_c))
        assert abs(a.L / mH - v.v_c) <= 1e-10 * max(1.0, abs(v.v_c))


# ---------------------------------------------------------------------------
# polar (constant leg length) variant
# ---------------------------------------------------------------------------


def test_polar_small_angle_gap_within_band():
    # Mean |sin(theta) - theta| over [0, pi/6], expressed through the dL
    # outputs, stays under 0.006 rad-equivalent.
    R = 0.95
    thetas = np.linspace(0.0, math.pi / 6.0, 200)
    scale = PARAMS.m * PARAMS.g * R
    gaps = []
    for th in thetas:
        s = PolarPendulumState(theta_c=th, L=0.0, R=R)
        _, dL_true = polar_derivative(s, PARAMS)
        _, dL_lin = polar_derivative(s, PARAMS, linear_gain=1.0)
        gaps.append(abs(dL_true - dL_lin) / scale)
    assert np.mean(gaps) < 0.006


def test_polar_gain_095_centers_residual_on_quarter_range():
    # On [0, pi/4] the constant gain K = 0.95 nearly zeroes the mean residual
    # sin(theta) - K*theta; K = 1 leaves a ~20x larger bias.
    R = 1.0
    thetas = np.linspace(0.0, math.pi / 4.0, 400)
    scale = PARAMS.m * PARAMS.g * R

    def mean_residual(K):
        acc = []
        for th in thetas:
            s = PolarPendulumState(theta_c=th, L=0.0, R=R)
            _, dL_true = polar_derivative(s, PARAMS)
            _, dL_lin = polar_derivative(s, PARAMS, linear_gain=K)
            acc.append((dL_true - dL_lin) / scale)
        return float(np.mean(acc))

    r95 = mean_residual(0.95)
    r100 = mean_residual(1.0)
    assert abs(r95) < 1e-3
    assert abs(r95) < abs(r100) / 10.0


def test_polar_linear_gain_reduces_to_alip():
    # linear_gain=1, R=H: in the coordinate x_c = R*theta the polar model IS
    # the ALIP (dx = R dtheta = L/(mH), dL identical).
    H = PARAMS.H
    for th in (0.0, 0.05, -0.12, 0.3):
        for L in (0.0, 3.0, -7.5):
            s = PolarPendulumState(theta_c=th, L=L, R=H)
            dth, dL_p = polar_derivative(s, PARAMS, linear_gain=1.0)
            dx, dL_a = alip_derivative(PARAMS, AlipState(x_c=H * th, L=L))
            assert abs(H * dth - dx) <= 1e-12 * max(1.0, abs(dx))
            assert abs(dL_p - dL_a) <= 1e-12 * max(1.0, abs(dL_a))


def test_polar_matches_rk4_nonlinear():
    # The nonlinear polar flow against the reference integrator (same rhs
    # assembled independently here).
    R = 0.9
    s0 = PolarPendulumState(theta_c=0.1, L=1.5, R=R)

    def f(y):
        return np.array(
            [y[1] / (PARAMS.m * R * R), PARAMS.m * PARAMS.g * R * math.sin(y[0])]
        )

    ref = rk4_rollout(f, [s0.theta_c, s0.L], 0.3, 1e-5)
    # one coarse RK4 pass through polar_derivative itself
    y = np.array([s0.theta_c, s0.L])
    h = 1e-4
    for i in range(3000):
        def g(yv):
            st = PolarPendulumState(theta_c=yv[0], L=yv[1], R=R)
            return np.array(polar_derivative(st, PARAMS))
        k1 = g(y); k2 = g(y + 0.5 * h * k1); k3 = g(y + 0.5 * h * k2); k4 = g(y + h * k3)
        y = y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    assert abs(y[0] - ref[0]) <= 1e-9
    assert abs(y[1] - ref[1]) <= 1e-8


# ---------------------------------------------------------------------------
# reference-point transfer and the touchdown reset
# ---------------------------------------------------------------------------


def test_transfer_horizontal_displacement_zero_vz_preserves_L():
    L2 = transfer_angular_momentum(7.5, np.array([0.3, 0.0]), np.array([1.2, 0.0]), PARAMS.m)
    assert L2 == pytest.approx(7.5, abs=1e-14)


def test_transfer_matches_wedge_formula():
    rng = np.random.default_rng(5)
    for _ in range(20):
        L1 = rng.uniform(-10, 10)
        p = rng.uniform(-0.5, 0.5, size=2)
        v = rng.uniform(-2, 2, size=2)
        L2 = transfer_angular_momentum(L1, p, v, PARAMS.m)
        assert L2 == pytest.approx(L1 + PARAMS.m * (p[1] * v[0] - p[0] * v[1]), abs=1e-12)
        assert L2 == pytest.approx(L1 + PARAMS.m * wedge(p, v), abs=1e-14)


def test_alip_reset_zero_vz_keeps_L():
    s = AlipState(x_c=0.08, L=6.0)
    out = alip_reset(s, p_sw_x=-0.1, p_st_x=s.x_c, v_z=0.0, m=PARAMS.m)
    assert out.L == pytest.approx(s.L, abs=1e-14)
    assert out.x_c == -0.1  # new abscissa measured from the new contact


def test_alip_reset_same_foot_keeps_L():
    s = AlipState(x_c=0.08, L=6.0)
    out = alip_reset(s, p_sw_x=s.x_c, p_st_x=s.x_c, v_z=-0.4, m=PARAMS.m)
    assert out.L == pytest.approx(s.L, abs=1e-14)


def test_alip_reset_matches_transfer_with_explicit_vectors():
    # Assemble p_new_to_old and v_c by hand and push them through the generic
    # transfer; the reset must reproduce it for any v_z.
    rng = np.random.default_rng(41)
    for _ in range(20):
        s = AlipState(x_c=rng.uniform(-0.2, 0.2), L=rng.uniform(-10, 10))
        p_sw = rng.uniform(-0.3, 0.3)
        v_z = rng.uniform(-1.0, 1.0)
        v_x = rng.uniform(-2.0, 2.0)  # must not matter (level ground)
        out = alip_reset(s, p_sw_x=p_sw, p_st_x=s.x_c, v_z=v_z, m=PARAMS.m)
        expected = transfer_angular_momentum(
            s.L, np.array([p_sw - s.x_c, 0.0]), np.array([v_x, v_z]), PARAMS.m
        )
        assert out.L == pytest.approx(expected, abs=1e-12)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def test_params_validation():
    with pytest.raises(ValidationError):
        PendulumParams(m=-1.0, H=0.6)
    with pytest.raises(ValidationError):
        PendulumParams(m=32.0, H=0.0)
    with pytest.raises(ValidationError):
        PendulumParams(m=32.0, H=0.6, ell=1.0)  # inconsistent with sqrt(g/H)


def test_state_validation():
    with pytest.raises(ValidationError):
        AlipState(x_c=math.nan, L=0.0)
    with pytest.raises(ValidationError):
        AlipState(x_c=0.0, L=0.0, tau=-0.1)
    with pytest.raises(ValidationError):
        PolarPendulumState(theta_c=2.0, L=0.0, R=1.0)  # |theta| >= pi/2
    with pytest.raises(ValidationError):
        PolarPendulumState(theta_c=0.1, L=0.0, R=0.0)


def test_transition_rejects_negative_dt():
    with pytest.raises(ValidationError):
        alip_transition(PARAMS, AlipState(x_c=0.0, L=0.0), -0.1)
    with pytest.raises(ValidationError):
        lip_transition(PARAMS, LipState(x_c=0.0, v_c=0.0), -0.1)
