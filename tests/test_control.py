"""Placement laws checked by propagating their output through the exact
pendulum step map; virtual-constraint geometry against closed-form boundary
values and finite differences; tracking torques against the closed-loop
behavior they promise (exact output decoupling for the linearizing law).
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import stridelab as sl
from stridelab import control
from stridelab import (
    AlipState,
    BipedState,
    GaitCommand,
    NumericalError,
    PendulumParams,
    PlanarBiped,
    ValidationError,
    VirtualConstraintSpec,
    alip_reset,
    alip_transition,
    foot_placement_asymptotic,
    foot_placement_deadbeat,
    foot_placement_vz_corrected,
    io_linearizing_torque,
    lateral_L_des,
    planar_outputs,
    predict_L_end,
    turning_frame,
    virtual_constraint_derivatives,
    virtual_constraint_reference,
)
from stridelab.biped import (
    _R,
    com_position,
    forward_dynamics,
    swing_foot_position,
)
from stridelab.control import _io_torque_floats, _placement_law, foot_placement_velocity
from stridelab.errors import SingularMatrixError
from stridelab.simlab import assemble_posture

PARAMS = PendulumParams(m=32.0, H=0.6)
MODEL = PlanarBiped.default()


# ---------------------------------------------------------------------------
# momentum prediction
# ---------------------------------------------------------------------------


def test_predict_zero_horizon_returns_current_L():
    assert predict_L_end(PARAMS, 0.12, 7.5, 0.0) == 7.5


def test_predict_centered_state_scales_by_cosh():
    dt = 0.23
    expect = math.cosh(PARAMS.ell * dt) * 4.0
    assert abs(predict_L_end(PARAMS, 0.0, 4.0, dt) - expect) < 1e-12


def test_predict_matches_step_map():
    rng = np.random.default_rng(2)
    for _ in range(20):
        x, L, dt = rng.uniform(-0.3, 0.3), rng.uniform(-20, 20), rng.uniform(0.0, 0.5)
        end = alip_transition(PARAMS, AlipState(x_c=x, L=L), dt)
        assert abs(predict_L_end(PARAMS, x, L, dt) - end.L) <= 1e-12 * max(1.0, abs(end.L))


def test_predict_rejects_negative_horizon():
    with pytest.raises(ValidationError):
        predict_L_end(PARAMS, 0.0, 1.0, -0.1)


# ---------------------------------------------------------------------------
# deadbeat placement
# ---------------------------------------------------------------------------


def test_deadbeat_propagation_hits_target():
    # place, reset to (p, L_hat_end), run one step: momentum lands on L_des
    rng = np.random.default_rng(5)
    T = 0.3
    for _ in range(25):
        L_end = rng.uniform(-25, 25)
        L_des = rng.uniform(-25, 25)
        p = foot_placement_deadbeat(PARAMS, L_end, L_des, T)
        got = alip_transition(PARAMS, AlipState(x_c=p, L=L_end), T).L
        assert abs(got - L_des) <= 1e-9 * max(1.0, abs(L_des))


def test_deadbeat_fixed_point_abscissa():
    # already on the gait: placement reproduces the steady step-start offset
    T, L_des = 0.3, 14.4
    ell = PARAMS.ell
    p = foot_placement_deadbeat(PARAMS, L_des, L_des, T)
    x_star = (
        (1.0 - math.cosh(ell * T))
        * L_des
        / (PARAMS.m * PARAMS.H * ell * math.sinh(ell * T))
    )
    assert abs(p - x_star) < 1e-12


def test_deadbeat_at_rest_is_zero():
    assert foot_placement_deadbeat(PARAMS, 0.0, 0.0, 0.3) == 0.0


def test_deadbeat_validation():
    with pytest.raises(ValidationError):
        foot_placement_deadbeat(PARAMS, 1.0, 1.0, 0.0)
    with pytest.raises(ValidationError):
        foot_placement_deadbeat(PARAMS, math.nan, 1.0, 0.3)


# ---------------------------------------------------------------------------
# asymptotic placement
# ---------------------------------------------------------------------------


def test_asymptotic_alpha_zero_is_deadbeat():
    rng = np.random.default_rng(7)
    for _ in range(10):
        L_end, L_des, T = rng.uniform(-20, 20), rng.uniform(-20, 20), rng.uniform(0.2, 0.5)
        assert foot_placement_asymptotic(PARAMS, L_end, L_des, T, 0.0) == pytest.approx(
            foot_placement_deadbeat(PARAMS, L_end, L_des, T), abs=1e-14
        )


def test_asymptotic_fixed_point_independent_of_alpha():
    T, L_des = 0.3, 14.4
    p0 = foot_placement_asymptotic(PARAMS, L_des, L_des, T, 0.0)
    for alpha in (0.1, 0.3, 0.5, 0.7, 0.9):
        p = foot_placement_asymptotic(PARAMS, L_des, L_des, T, alpha)
        assert abs(p - p0) <= 1e-12 * max(1.0, abs(p0))


def test_asymptotic_contracts_error_by_alpha_each_step():
    # five steps per alpha: end-of-step momentum error ratio equals alpha
    T, L_des = 0.3, 12.0
    for alpha in (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9):
        L_end = L_des + 6.0
        for _ in range(5):
            err_before = L_end - L_des
            p = foot_placement_asymptotic(PARAMS, L_end, L_des, T, alpha)
            L_end = alip_transition(PARAMS, AlipState(x_c=p, L=L_end), T).L
            err_after = L_end - L_des
            assert abs(err_after - alpha * err_before) <= 1e-9 * max(1.0, abs(err_before))
            if alpha == 0.0:
                break  # error is dead after one step; the ratio is 0/0 next


def test_asymptotic_validation():
    with pytest.raises(ValidationError):
        foot_placement_asymptotic(PARAMS, 1.0, 1.0, 0.3, 1.0)
    with pytest.raises(ValidationError):
        foot_placement_asymptotic(PARAMS, 1.0, 1.0, 0.3, -0.1)


def placement_bits(p):
    """float.hex of a placement or of each lane's placement."""
    return tuple(float(v).hex() for v in np.ravel(p))


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(
    m=st.floats(1.0, 100.0),
    H=st.floats(0.2, 2.0),
    hat=st.floats(-1e6, 1e6) | st.sampled_from([0.0, -0.0, 5e-324, 1e300]),
    des=st.floats(-1e6, 1e6) | st.sampled_from([0.0, -0.0, -1e300]),
    T=st.floats(1e-3, 2.0),
    alpha=st.floats(0.0, 1.0, exclude_max=True),
    lanes=st.booleans(),
)
def test_placement_law_is_the_public_laws_bit_for_bit(m, H, hat, des, T, alpha, lanes):
    # The unchecked law the walking controller calls keeps the bits of the
    # public laws and of their docstring formulas, for one value and lanes.
    params = PendulumParams(m=m, H=H)
    ell = params.ell
    if lanes:
        hat = np.array([hat, -hat, 0.5 * hat])
    num = (1.0 - alpha) * des + (alpha - math.cosh(ell * T)) * hat
    L_written = num / (params.m * params.H * ell * math.sinh(ell * T))
    v_written = num / (ell * math.sinh(ell * T))
    L_law = _placement_law(params.m * params.H, ell, hat, des, T, alpha)
    v_law = _placement_law(1.0, ell, hat, des, T, alpha)
    assert placement_bits(L_law) == placement_bits(L_written)
    assert placement_bits(v_law) == placement_bits(v_written)
    assert placement_bits(foot_placement_asymptotic(params, hat, des, T, alpha)) == placement_bits(
        L_law
    )
    assert placement_bits(foot_placement_velocity(params, hat, des, T, alpha)) == placement_bits(
        v_law
    )


NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
BAD_PLACEMENT_INPUTS = st.one_of(
    st.tuples(st.sampled_from(["hat", "des", "T", "alpha"]), NON_FINITE),
    st.tuples(st.just("T"), st.sampled_from([0.0, -0.0]) | st.floats(max_value=0.0)),
    st.tuples(
        st.just("alpha"), st.floats(min_value=1.0) | st.floats(max_value=0.0, exclude_max=True)
    ),
)


@settings(derandomize=True, database=None, deadline=None, max_examples=80)
@given(
    bad=BAD_PLACEMENT_INPUTS,
    law=st.sampled_from([foot_placement_asymptotic, foot_placement_velocity]),
    lanes=st.booleans(),
)
def test_public_placement_laws_still_reject_bad_inputs(bad, law, lanes):
    args = {"hat": 1.0, "des": 14.4, "T": 0.3, "alpha": 0.5}
    slot, value = bad
    args[slot] = value
    if lanes:  # one bad lane spoils the stack
        args["hat"] = np.array([1.0, args["hat"]])
    with pytest.raises(ValidationError, match=law.__name__):
        law(PARAMS, args["hat"], args["des"], args["T"], args["alpha"])


# ---------------------------------------------------------------------------
# vertical-velocity-corrected placement
# ---------------------------------------------------------------------------


def test_vz_zero_reduces_to_deadbeat():
    rng = np.random.default_rng(11)
    for _ in range(10):
        L_minus, x_st, L_des = rng.uniform(-20, 20), rng.uniform(-0.2, 0.2), rng.uniform(-20, 20)
        assert foot_placement_vz_corrected(
            PARAMS, L_minus, x_st, 0.0, L_des, 0.3
        ) == pytest.approx(foot_placement_deadbeat(PARAMS, L_minus, L_des, 0.3), abs=1e-12)


def test_vz_corrected_propagation_hits_target():
    # apply the momentum exchange the law assumes, then one exact step
    rng = np.random.default_rng(13)
    T = 0.3
    for _ in range(25):
        L_minus = rng.uniform(-25, 25)
        x_st = rng.uniform(-0.25, 0.25)
        v_z = rng.uniform(-0.5, 0.5)
        L_des = rng.uniform(-25, 25)
        p = foot_placement_vz_corrected(PARAMS, L_minus, x_st, v_z, L_des, T)
        L_plus = L_minus - PARAMS.m * v_z * (p - x_st)
        got = alip_transition(PARAMS, AlipState(x_c=p, L=L_plus), T).L
        assert abs(got - L_des) <= 1e-9 * max(1.0, abs(L_des))


def test_vz_exchange_direction_matches_reset_map():
    # speeding up while the CoM descends: the new foot goes down behind the
    # old one (p > x_st), and the exchange term adds momentum.  The law's
    # assumed exchange is exactly the pendulum reset map.
    L_minus, x_st, v_z, T = 10.0, -0.05, -0.4, 0.3
    p = foot_placement_vz_corrected(PARAMS, L_minus, x_st, v_z, 40.0, T)
    assert p > x_st
    s_plus = alip_reset(AlipState(x_c=x_st, L=L_minus), p, x_st, v_z, PARAMS.m)
    L_plus = L_minus - PARAMS.m * v_z * (p - x_st)
    assert abs(s_plus.L - L_plus) < 1e-12
    assert L_plus > L_minus


def test_vz_singular_vertical_speed_raises():
    ell = PARAMS.ell
    T = 0.3
    v_star = PARAMS.H * ell * math.tanh(ell * T)
    with pytest.raises(NumericalError):
        foot_placement_vz_corrected(PARAMS, 5.0, 0.0, v_star, 1.0, T)


def test_vz_validation():
    with pytest.raises(ValidationError):
        foot_placement_vz_corrected(PARAMS, math.inf, 0.0, 0.0, 1.0, 0.3)
    with pytest.raises(ValidationError):
        foot_placement_vz_corrected(PARAMS, 1.0, 0.0, 0.0, 1.0, -0.3)


# ---------------------------------------------------------------------------
# lateral target and turning
# ---------------------------------------------------------------------------


def test_lateral_zero_width_is_zero():
    assert lateral_L_des(PARAMS, 0.0, 0.3, 1) == 0.0
    assert lateral_L_des(PARAMS, 0.0, 0.3, -1) == 0.0


def test_lateral_parity_antisymmetry():
    v = lateral_L_des(PARAMS, 0.25, 0.3, 1)
    assert v > 0.0
    assert lateral_L_des(PARAMS, 0.25, 0.3, -1) == -v


def test_lateral_target_produces_period_two_sway_of_width_W():
    # close the loop with the deadbeat law and alternating parity; after the
    # two-step transient the distance between consecutive footholds is W.
    W, T = 0.25, 0.3
    y_rel, Ly = 0.04, -1.0  # arbitrary start, off the orbit
    foot = 0.0
    parity = 1
    widths = []
    for _ in range(8):
        st = alip_transition(PARAMS, AlipState(x_c=y_rel, L=Ly), T)
        L_target = lateral_L_des(PARAMS, W, T, parity)
        p = foot_placement_deadbeat(PARAMS, st.L, L_target, T)
        new_foot = foot + (st.x_c - p)
        widths.append(abs(new_foot - foot))
        y_rel, Ly, foot = p, st.L, new_foot
        parity = -parity
    for w in widths[3:]:
        assert abs(w - W) <= 1e-9


def test_lateral_validation():
    with pytest.raises(ValidationError):
        lateral_L_des(PARAMS, -0.1, 0.3, 1)
    with pytest.raises(ValidationError):
        lateral_L_des(PARAMS, 0.2, 0.3, 0)
    with pytest.raises(ValidationError):
        lateral_L_des(PARAMS, 0.2, 0.0, 1)


def test_turning_identity():
    D, pair = turning_frame(0.0, 0.0, (3.0, 4.0))
    assert D == 0.0
    assert pair[0] == pytest.approx(3.0, abs=1e-15)
    assert pair[1] == pytest.approx(4.0, abs=1e-15)


def test_turning_quarter_turn_swaps_components():
    D, pair = turning_frame(0.0, math.pi / 2, (3.0, 4.0))
    assert D == pytest.approx(math.pi / 2)
    assert pair[0] == pytest.approx(-4.0, abs=1e-12)
    assert pair[1] == pytest.approx(3.0, abs=1e-12)


def test_turning_composition():
    # two eighth turns equal one quarter turn
    D1, _ = turning_frame(0.0, math.pi / 4)
    D2, pair2 = turning_frame(D1, math.pi / 4, (3.0, 4.0))
    Dq, pairq = turning_frame(0.0, math.pi / 2, (3.0, 4.0))
    assert D2 == pytest.approx(Dq, abs=1e-15)
    assert pair2[0] == pytest.approx(pairq[0], abs=1e-12)
    assert pair2[1] == pytest.approx(pairq[1], abs=1e-12)


# ---------------------------------------------------------------------------
# virtual-constraint references
# ---------------------------------------------------------------------------

SPEC = VirtualConstraintSpec(H=0.6, z_cl=0.07)
CMD = GaitCommand(L_des=14.4, T=0.3)
H0_START = np.array([0.02, 0.59, -0.13, 0.58])
P_DES = 0.11


def test_reference_boundary_values():
    h_start = virtual_constraint_reference(SPEC, CMD, 0.0, H0_START, P_DES)
    h_mid = virtual_constraint_reference(SPEC, CMD, 0.5, H0_START, P_DES)
    h_end = virtual_constraint_reference(SPEC, CMD, 1.0, H0_START, P_DES)
    # torso level, CoM at commanded height throughout
    for h in (h_start, h_mid, h_end):
        assert h[0] == 0.0 and h[1] == SPEC.H
    # swing-x: departs from the measured value, lands on the target
    assert abs(h_start[2] - H0_START[2]) < 1e-15
    assert abs(h_mid[2] - 0.5 * (H0_START[2] + P_DES)) < 1e-15
    assert abs(h_end[2] - P_DES) < 1e-15
    # CoM-to-swing-foot height: foot on the ground at both ends, clearance
    # z_cl at mid-step
    assert abs(h_start[3] - SPEC.H) < 1e-15
    assert abs(h_end[3] - SPEC.H) < 1e-15
    assert abs(h_mid[3] - (SPEC.H - SPEC.z_cl)) < 1e-15


def test_reference_swing_velocity_zero_at_endpoints():
    for s in (0.0, 1.0):
        _, dh, _ = virtual_constraint_derivatives(SPEC, CMD, s, H0_START, P_DES)
        assert abs(dh[2]) < 1e-15  # half-cosine blend: sin(pi s) = 0


def test_reference_derivatives_match_finite_differences():
    eps1, eps2 = 1e-6, 1e-4  # second difference needs the larger step
    for s in (0.12, 0.5, 0.83):
        h_m, dh_m, ddh_m = virtual_constraint_derivatives(SPEC, CMD, s, H0_START, P_DES)
        # d/dt = (d/ds) / T
        h_p = virtual_constraint_reference(SPEC, CMD, s + eps1, H0_START, P_DES)
        h_mm = virtual_constraint_reference(SPEC, CMD, s - eps1, H0_START, P_DES)
        dh_fd = (h_p - h_mm) / (2 * eps1) / CMD.T
        assert np.max(np.abs(dh_fd - dh_m)) < 1e-6
        h_p2 = virtual_constraint_reference(SPEC, CMD, s + eps2, H0_START, P_DES)
        h_m2 = virtual_constraint_reference(SPEC, CMD, s - eps2, H0_START, P_DES)
        ddh_fd = (h_p2 - 2 * h_m + h_m2) / (eps2 * eps2) / (CMD.T * CMD.T)
        assert np.max(np.abs(ddh_fd - ddh_m)) < 1e-4


def test_reference_validation():
    with pytest.raises(ValidationError):
        virtual_constraint_reference(SPEC, CMD, 1.2, H0_START, P_DES)
    with pytest.raises(ValidationError):
        virtual_constraint_reference(SPEC, CMD, math.nan, H0_START, P_DES)
    with pytest.raises(ValidationError):
        virtual_constraint_reference(SPEC, CMD, 0.5, np.zeros(3), P_DES)
    with pytest.raises(ValidationError):
        virtual_constraint_reference(SPEC, CMD, 0.5, H0_START, math.inf)


# ---------------------------------------------------------------------------
# output stack
# ---------------------------------------------------------------------------


def random_biped_state(rng, vel_scale=1.0):
    q = np.array(
        [
            rng.uniform(-0.3, 0.3),
            rng.uniform(-0.5, 0.1),
            rng.uniform(-0.4, 0.4),
            rng.uniform(-0.4, 0.4),
            rng.uniform(-0.1, 0.5),
        ]
    )
    dq = rng.uniform(-1.5, 1.5, size=5) * vel_scale
    return BipedState(q, dq)


def test_outputs_match_direct_kinematics():
    rng = np.random.default_rng(17)
    for _ in range(10):
        st = random_biped_state(rng)
        h0, _ = planar_outputs(MODEL, st.q)
        p_c = com_position(MODEL, st.q)
        p_sw = swing_foot_position(MODEL, st.q)
        assert abs(h0[0] - (st.q[0] + st.q[1] + st.q[2])) < 1e-12
        assert abs(h0[1] - p_c[1]) < 1e-12
        assert abs(h0[2] - (p_c[0] - p_sw[0])) < 1e-12
        assert abs(h0[3] - (p_c[1] - p_sw[1])) < 1e-12


def test_planar_outputs_rejects_malformed_angles():
    for q in ([0.1] * 3, [0.1, math.nan, 0.0, 0.0, 0.0], [math.inf] + [0.0] * 4,
              np.zeros((2, 5))):
        with pytest.raises(ValidationError, match="planar_outputs"):
            planar_outputs(MODEL, q)


def test_output_jacobian_matches_finite_differences():
    rng = np.random.default_rng(19)
    q = random_biped_state(rng).q
    _, J = planar_outputs(MODEL, q)
    eps = 1e-7
    for i in range(5):
        dqi = np.zeros(5)
        dqi[i] = eps
        hp, _ = planar_outputs(MODEL, q + dqi)
        hm, _ = planar_outputs(MODEL, q - dqi)
        assert np.max(np.abs(J[:, i] - (hp - hm) / (2 * eps))) < 1e-6


# ---------------------------------------------------------------------------
# input-output linearizing torque
# ---------------------------------------------------------------------------


def output_rate(model, q, dq, dh_d):
    _, J = planar_outputs(model, q)
    return J @ dq - dh_d


def test_io_torque_closes_the_stated_output_dynamics():
    # u from the law, ddq from the plant, then check
    # y-ddot + Kd y-dot + Kp y = 0 with a finite-difference J-dot.
    rng = np.random.default_rng(23)
    Kp, Kd = 64.0, 16.0
    for _ in range(5):
        st = random_biped_state(rng, vel_scale=0.5)
        s = rng.uniform(0.1, 0.9)
        h_d, dh_d, ddh_d = virtual_constraint_derivatives(SPEC, CMD, s, H0_START, P_DES)
        u = io_linearizing_torque(MODEL, st, h_d, dh_d, ddh_d, Kp=Kp, Kd=Kd)
        ddq = forward_dynamics(MODEL, st, u)
        h0, J = planar_outputs(MODEL, st.q)
        eps = 1e-7
        _, Jp = planar_outputs(MODEL, st.q + eps * st.dq)
        _, Jm = planar_outputs(MODEL, st.q - eps * st.dq)
        Jdot_dq = (Jp - Jm) / (2 * eps) @ st.dq
        y = h0 - h_d
        dy = J @ st.dq - dh_d
        ddy = J @ ddq + Jdot_dq - ddh_d
        assert np.max(np.abs(ddy + Kd * dy + Kp * y)) < 1e-4


def rollout_io_constant_reference(state, h_ref, t_end, h=1e-4, Kp=None, Kd=None):
    dh = np.zeros(4)

    def f(yv):
        st = BipedState(yv[:5], yv[5:])
        u = io_linearizing_torque(MODEL, st, h_ref, dh, dh, Kp=Kp, Kd=Kd)
        return np.concatenate([yv[5:], forward_dynamics(MODEL, st, u)])

    y = np.concatenate([state.q, state.dq])
    n = int(round(t_end / h))
    out_t = np.empty(n + 1)
    out_y = np.empty((n + 1, 4))
    out_dy = np.empty((n + 1, 4))

    def log(i, yv):
        h0, J = planar_outputs(MODEL, yv[:5])
        out_t[i] = i * h
        out_y[i] = h0 - h_ref
        out_dy[i] = J @ yv[5:]

    log(0, y)
    for i in range(n):
        k1 = f(y)
        k2 = f(y + h / 2 * k1)
        k3 = f(y + h / 2 * k2)
        k4 = f(y + h * k3)
        y = y + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        log(i + 1, y)
    return out_t, out_y, out_dy


def test_io_closed_loop_follows_critically_damped_solution():
    # default gains: double pole at 10 rad/s on every output channel.
    # Start off the reference in all four outputs and compare the whole
    # trajectory to the scalar closed forms.
    target = assemble_posture(
        MODEL, com_x=0.0, com_z=0.6, swing_foot_x=-0.15, swing_foot_z=0.05
    )
    h_ref, _ = planar_outputs(MODEL, target.q)
    posture = assemble_posture(
        MODEL, com_x=0.015, com_z=0.585, swing_foot_x=-0.17, swing_foot_z=0.07,
        torso_pitch=0.02,
    )
    start = BipedState(posture.q, np.zeros(5))  # zero rates: dy(0) = 0 exactly
    ts, ys, dys = rollout_io_constant_reference(start, h_ref, 0.3)
    w = 10.0
    y0, dy0 = ys[0], dys[0]
    assert np.max(np.abs(dy0)) < 1e-14
    model_y = np.exp(-w * ts)[:, None] * (
        y0[None, :] + (dy0 + w * y0)[None, :] * ts[:, None]
    )
    assert np.max(np.abs(ys - model_y)) < 1e-6
    # every channel has shrunk by the critically damped factor (1+wT)e^{-wT}
    shrink = (1 + w * 0.3) * math.exp(-w * 0.3)
    assert np.max(np.abs(ys[-1])) < (shrink + 0.01) * np.max(np.abs(y0))


def test_io_invariance_from_matched_start():
    # exactly on the reference with zero output rates: the outputs stay put
    # (the CoM-height channel in particular pins z_c to H).
    target = assemble_posture(
        MODEL, com_x=0.0, com_z=0.6, swing_foot_x=-0.15, swing_foot_z=0.05
    )
    h_ref, J = planar_outputs(MODEL, target.q)
    # rates in the null space of J: outputs start perfectly still
    ns = np.linalg.svd(J)[2][-1]
    start = BipedState(target.q, 0.8 * ns)
    ts, ys, _ = rollout_io_constant_reference(start, h_ref, 0.2)
    assert np.max(np.abs(ys)) < 1e-8


def test_io_singular_at_coincident_feet():
    st = BipedState(np.zeros(5), np.zeros(5))
    h_d, dh_d, ddh_d = virtual_constraint_derivatives(
        SPEC, CMD, 0.4, np.array([0.0, 0.6, -0.1, 0.6]), 0.1
    )
    with pytest.raises(SingularMatrixError):
        io_linearizing_torque(MODEL, st, h_d, dh_d, ddh_d)


def test_io_gain_validation():
    st = random_biped_state(np.random.default_rng(29))
    h_d, dh_d, ddh_d = virtual_constraint_derivatives(SPEC, CMD, 0.4, H0_START, P_DES)
    with pytest.raises(ValidationError):
        io_linearizing_torque(MODEL, st, h_d, dh_d, ddh_d, Kp=[1.0, 2.0])
    with pytest.raises(ValidationError):
        io_linearizing_torque(MODEL, st, h_d, dh_d, ddh_d, Kd=-5.0)


# The float law's solves against np.linalg.solve, on term rows that are zero
# but for [D_0; J] (entries 0-24), D (25-49) and the _R entries: with dq,
# references and gains zero, the law solves [D_0; J] ddq0 = r, r the _R
# entries, and with an ankle torque D x = e_0 as well.

ZEROS = [0.0] * 5
WELL_POSED = st.lists(st.floats(-1.0, 1.0), min_size=25, max_size=25).map(
    lambda v: np.reshape(v, (5, 5)) + 5.0 * np.eye(5)  # strictly diagonally dominant
)


def _np_solve(A, b, signature):
    """np.linalg.solve in place of the gufunc, its LinAlgError as the
    gufunc's NaN: the float law as np.linalg.solve's wrapper gave it.  A
    stack of systems hands it each vector as a column."""
    b = np.asarray(b)
    try:
        return np.linalg.solve(A, b) if b.ndim == 1 else np.linalg.solve(A, b[..., None])[..., 0]
    except np.linalg.LinAlgError:
        return np.full(np.shape(b), math.nan)


def _law_outcome(A, D, b, u_a):
    """(u, ddq) of the float law as bytes, or (message, cond) of the
    SingularMatrixError it raises."""
    K = np.zeros(MODEL.term_map.shape[1])
    K[:25], K[25:50], K[_R] = A.ravel(), D.ravel(), b
    refs_and_gains = [[0.0] * 4] * 5  # h_d, dh_d, ddh_d, Kp, Kd
    try:
        with np.errstate(invalid="ignore"):
            u, ddq, _ = _io_torque_floats((K, K.tolist()), ZEROS, *refs_and_gains, u_a, True)
    except SingularMatrixError as exc:
        return str(exc), exc.cond
    return np.array(u).tobytes(), np.array(ddq).tobytes()


def _wrapper_outcome(A, D, b, u_a):
    with mock.patch.object(control, "_solve1", _np_solve):
        return _law_outcome(A, D, b, u_a)


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(
    A=WELL_POSED,
    D=WELL_POSED,
    b=st.lists(st.floats(-100.0, 100.0), min_size=5, max_size=5),
    u_a=st.sampled_from([0.0, 2.0]) | st.floats(-5.0, 5.0),
)
def test_io_float_law_solves_as_numpy_solve_bit_for_bit(A, D, b, u_a):
    # One system, or a (2, 5, 5) pair with an ankle torque: the gufunc the
    # law calls gives np.linalg.solve's bits, and the bound passes them.
    outcome = _law_outcome(A, D, b, u_a)
    assert type(outcome[0]) is bytes
    assert outcome == _wrapper_outcome(A, D, b, u_a)


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(
    A=WELL_POSED,
    D=WELL_POSED,
    b=st.lists(st.floats(-100.0, 100.0), min_size=5, max_size=5),
    system=st.sampled_from(["decoupling", "mass"]),
    fault=st.sampled_from(["zeros", "zero row", "copied row", "nan", "inf", "-inf"]),
    k=st.integers(0, 24),
    u_a=st.sampled_from([0.0, 2.0]),
)
@example(np.eye(5), np.eye(5), ZEROS, "decoupling", "zeros", 0, 0.0)
@example(np.eye(5), np.eye(5), ZEROS, "decoupling", "zeros", 0, 2.0)
@example(np.eye(5), np.eye(5), ZEROS, "mass", "zeros", 0, 0.0)
@example(np.eye(5), np.eye(5), ZEROS, "mass", "zeros", 0, 2.0)
def test_io_float_law_fails_as_through_numpy_solve(A, D, b, system, fault, k, u_a):
    # A singular or non-finite system: the gufunc's NaN fails the bound where
    # np.linalg.solve raised, and _checked_solve gives the same error (text
    # and cond), naming the decoupling matrix first, then the mass matrix,
    # which only an ankle torque solves.
    A, D = A.copy(), D.copy()
    M = A if system == "decoupling" else D
    i, j = divmod(k, 5)
    if fault == "zeros":
        M[:] = 0.0
    elif fault == "zero row":
        M[i] = 0.0
    elif fault == "copied row":
        M[i] = M[(i + 1) % 5]
    else:
        M[i, j] = float(fault)
    outcome = _law_outcome(A, D, b, u_a)
    assert outcome == _wrapper_outcome(A, D, b, u_a)
    if system == "mass" and not u_a:
        assert type(outcome[0]) is bytes
    elif fault != "copied row":  # a rounded LU may solve that within the bound
        assert outcome[0].startswith(f"io_linearizing_torque ({system} matrix): ")
    if fault == "zeros" and (u_a or system == "decoupling"):
        assert outcome == (f"io_linearizing_torque ({system} matrix): singular matrix"
                           " (condition estimate inf)", math.inf)


def _stack_outcome(A, b, solve):
    """solve(A, b) as bytes, or (message, cond) of the SingularMatrixError it raises."""
    try:
        with np.errstate(invalid="ignore"):
            return solve(A, b).tobytes()
    except SingularMatrixError as exc:
        return str(exc), exc.cond


def _no_solve(A, b, signature):
    """A gufunc whose every solve fails the bound, as the parent's stacked
    law, which gave every stack to _checked_solve."""
    return np.full(np.shape(b), math.nan)


def _stacked_law(A, b):
    """ddq of the stacked law on term rows that are zero but for [D_0; J]
    and the _R entries b, with dq, references and gains zero: it solves
    [D_0; J] ddq = b lane by lane (a non-finite J makes J dq, so b, NaN)."""
    K = np.zeros((len(A), MODEL.term_map.shape[1]))
    K[:, :25], K[:, _R] = A.reshape(len(A), 25), b
    refs_and_gains = [np.zeros((len(A), 4))] * 3 + [np.zeros(4)] * 2
    return control._io_torque_core(np.zeros((len(A), 5)), (None, None, None, K),
                                   *refs_and_gains, 0.0, False)[1]


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(
    A=st.lists(WELL_POSED, min_size=3, max_size=3).map(np.array),
    b=st.lists(st.floats(-100.0, 100.0), min_size=15, max_size=15).map(
        lambda v: np.reshape(v, (3, 5))
    ),
    lane=st.integers(0, 2),
    fault=st.sampled_from(["none", "zeros", "copied row", "nan", "inf", "-inf"]),
    k=st.integers(0, 24),
)
@example(np.array([np.eye(5)] * 3), np.zeros((3, 5)), 1, "zeros", 0)
def test_stacked_law_fails_as_through_checked_solve(A, b, lane, fault, k):
    # A stack's decoupling systems go through the gufunc and a bound lane by
    # lane; a failing stack reaches _checked_solve, so one singular or
    # non-finite lane raises the text, lane index and cond of the parent's
    # path, which gave every stack to _checked_solve, and a passing stack
    # has its bits.
    i, j = divmod(k, 5)
    if fault == "zeros":
        A[lane] = 0.0
    elif fault == "copied row":
        A[lane, i] = A[lane, (i + 1) % 5]
    elif fault != "none":
        A[lane, i, j] = float(fault)
    outcome = _stack_outcome(A, b, _stacked_law)
    with mock.patch.object(control, "_solve1", _no_solve):  # every stack to _checked_solve
        assert outcome == _stack_outcome(A, b, _stacked_law)
    if fault == "none":
        assert type(outcome) is bytes
    elif fault != "copied row":  # a rounded LU may solve that within the bound
        assert outcome[0].startswith("io_linearizing_torque (decoupling matrix): ")
        assert f" in lane {lane} of 3 (condition estimate inf)" in outcome[0]
        assert outcome[1] == math.inf


# ---------------------------------------------------------------------------
# command / constraint dataclasses
# ---------------------------------------------------------------------------


def test_gait_command_round_trip():
    cmd = GaitCommand(L_des=14.4, T=0.35, alpha=0.6)
    clone = GaitCommand.from_json(cmd.to_json_dict())
    assert clone == cmd


def test_gait_command_validation():
    with pytest.raises(ValidationError):
        GaitCommand(L_des=1.0, T=0.0)
    with pytest.raises(ValidationError):
        GaitCommand(L_des=1.0, T=0.3, alpha=1.0)
    with pytest.raises(ValidationError):
        GaitCommand.from_json({"T": 0.3})
    for bad in ({"L_des": "1"}, {"L_des": True}, {"L_des": math.nan}, {"T": None},
                {"Ldes": 1.0}):
        with pytest.raises(ValidationError):
            GaitCommand.from_json({"L_des": 1.0, "T": 0.3, **bad})
    # the command is sagittal: width, parity and heading change are no fields
    for name, value in (("W", 0.2), ("parity", -1), ("delta_D", 0.1)):
        with pytest.raises(ValidationError, match=f"unknown field.*'{name}'"):
            GaitCommand.from_json({"L_des": 1.0, "T": 0.3, name: value})
    # ints widen to float
    assert type(GaitCommand(L_des=14, T=0.3).L_des) is float


def test_constraint_spec_round_trip_and_defaults():
    spec = VirtualConstraintSpec(H=0.6, z_cl=0.07)
    assert np.all(spec.Kp == 100.0) and np.all(spec.Kd == 20.0)
    clone = VirtualConstraintSpec.from_json(spec.to_json_dict())
    assert clone.H == spec.H and clone.z_cl == spec.z_cl
    assert np.all(clone.Kp == spec.Kp) and np.all(clone.Kd == spec.Kd)


def test_constraint_spec_validation():
    with pytest.raises(ValidationError):
        VirtualConstraintSpec(H=0.6, z_cl=0.6)
    with pytest.raises(ValidationError):
        VirtualConstraintSpec(H=0.6, z_cl=0.07, Kp=[1.0, 2.0, 3.0])
    with pytest.raises(ValidationError):
        VirtualConstraintSpec(H=0.6, z_cl=0.07, Kd=0.0)
