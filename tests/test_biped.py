"""Five-link pinned dynamics: structural identities of the Lagrangian terms
(finite-difference cross-checks), centroidal bookkeeping against the transfer
formula, energy/power balance along rollouts, the plastic impact + relabeling
map, and the touchdown guard.

Everything numeric here is checked against either a finite-difference oracle
or a conservation law only the correct dynamics satisfy.
"""

import json
import math
import re

import numpy as np
import pytest

import stridelab as sl
from stridelab import (
    BipedState,
    InfeasibleImpactError,
    LinkParams,
    PlanarBiped,
    ValidationError,
    transfer_angular_momentum,
    wedge,
)
from stridelab.biped import (
    centroidal,
    com_acceleration,
    com_jacobian,
    com_position,
    com_velocity,
    coriolis_matrix,
    forward_dynamics,
    gravity_vector,
    guard,
    impact_map,
    mass_matrix,
    potential_energy,
    relabel,
    swing_foot_jacobian,
    swing_foot_position,
    swing_foot_velocity,
    total_energy,
)
from stridelab.simlab import assemble_posture

MODEL = PlanarBiped.default()


def random_state(rng, vel_scale=1.0):
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


def rollout(model, state, u_fn, t_end, h=1e-4, u_a_fn=None):
    """Plain RK4 on the pinned dynamics; returns sampled (t, q, dq) arrays."""
    y = np.concatenate([state.q, state.dq])
    n = int(round(t_end / h))
    ts = np.empty(n + 1)
    qs = np.empty((n + 1, 5))
    dqs = np.empty((n + 1, 5))
    ts[0], qs[0], dqs[0] = 0.0, y[:5], y[5:]

    def f(t, yv):
        st = BipedState(yv[:5], yv[5:])
        u_a = u_a_fn(t) if u_a_fn is not None else 0.0
        ddq = forward_dynamics(model, st, u_fn(t), u_a=u_a)
        return np.concatenate([yv[5:], ddq])

    t = 0.0
    for i in range(n):
        k1 = f(t, y)
        k2 = f(t + h / 2, y + h / 2 * k1)
        k3 = f(t + h / 2, y + h / 2 * k2)
        k4 = f(t + h, y + h * k3)
        y = y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        t = (i + 1) * h
        ts[i + 1], qs[i + 1], dqs[i + 1] = t, y[:5], y[5:]
    return ts, qs, dqs


# ---------------------------------------------------------------------------
# structural identities of the dynamics terms
# ---------------------------------------------------------------------------


def test_mass_matrix_symmetric_positive_definite():
    rng = np.random.default_rng(3)
    for _ in range(10):
        D = mass_matrix(MODEL, random_state(rng).q)
        assert np.max(np.abs(D - D.T)) < 1e-12
        assert np.min(np.linalg.eigvalsh(D)) > 0.0


def test_mass_matrix_cyclic_in_q0():
    # q0 only rotates the whole chain; the kinetic-energy metric cannot see it.
    rng = np.random.default_rng(7)
    q = random_state(rng).q
    D1 = mass_matrix(MODEL, q)
    q_shift = q.copy()
    q_shift[0] += 0.37
    D2 = mass_matrix(MODEL, q_shift)
    assert np.max(np.abs(D1 - D2)) <= 1e-12 * np.max(np.abs(D1))


def test_coriolis_skew_property():
    # dD/dt = C + C^T, checked with a finite difference of D along dq.
    rng = np.random.default_rng(13)
    st = random_state(rng)
    C = coriolis_matrix(MODEL, st.q, st.dq)
    eps = 1e-6
    Dp = mass_matrix(MODEL, st.q + eps * st.dq)
    Dm = mass_matrix(MODEL, st.q - eps * st.dq)
    Ddot_fd = (Dp - Dm) / (2 * eps)
    assert np.max(np.abs(Ddot_fd - (C + C.T))) < 1e-6


def test_coriolis_vector_consistent():
    rng = np.random.default_rng(17)
    st = random_state(rng)
    from stridelab.biped import _dyn_terms

    _, cvec, _, _ = _dyn_terms(MODEL, st.q, st.dq)
    assert np.max(np.abs(cvec - coriolis_matrix(MODEL, st.q, st.dq) @ st.dq)) < 1e-12


def test_gravity_vector_is_potential_gradient():
    rng = np.random.default_rng(19)
    q = random_state(rng).q
    G = gravity_vector(MODEL, q)
    eps = 1e-6
    for i in range(5):
        dqi = np.zeros(5)
        dqi[i] = eps
        fd = (potential_energy(MODEL, q + dqi) - potential_energy(MODEL, q - dqi)) / (2 * eps)
        assert abs(G[i] - fd) < 1e-6


def test_kinematic_jacobians_match_finite_differences():
    rng = np.random.default_rng(29)
    q = random_state(rng).q
    Jc = com_jacobian(MODEL, q)
    Js = swing_foot_jacobian(MODEL, q)
    eps = 1e-7
    for i in range(5):
        dqi = np.zeros(5)
        dqi[i] = eps
        fd_c = (com_position(MODEL, q + dqi) - com_position(MODEL, q - dqi)) / (2 * eps)
        fd_s = (swing_foot_position(MODEL, q + dqi) - swing_foot_position(MODEL, q - dqi)) / (
            2 * eps
        )
        assert np.max(np.abs(Jc[:, i] - fd_c)) < 1e-6
        assert np.max(np.abs(Js[:, i] - fd_s)) < 1e-6


def test_velocities_are_jacobian_times_rates():
    rng = np.random.default_rng(31)
    st = random_state(rng)
    assert np.max(np.abs(com_velocity(MODEL, st.q, st.dq) - com_jacobian(MODEL, st.q) @ st.dq)) < 1e-12
    assert (
        np.max(
            np.abs(
                swing_foot_velocity(MODEL, st.q, st.dq)
                - swing_foot_jacobian(MODEL, st.q) @ st.dq
            )
        )
        < 1e-12
    )


# ---------------------------------------------------------------------------
# forward dynamics
# ---------------------------------------------------------------------------


def test_zero_gravity_rest_gives_zero_acceleration():
    def rod(mass, length):
        return LinkParams(mass, length, length / 2, mass * length * length / 12)

    free = PlanarBiped(rod(12.0, 0.625), rod(6.8, 0.4), rod(3.2, 0.4), rod(6.8, 0.4), rod(3.2, 0.4), g=0.0)
    st = BipedState(np.array([0.1, -0.2, 0.05, 0.3, -0.1]), np.zeros(5))
    ddq = forward_dynamics(free, st, np.zeros(4))
    assert np.max(np.abs(ddq)) < 1e-12


def test_passive_rollout_conserves_energy():
    # All torques zero: total mechanical energy drift <= 1e-7 relative over
    # 0.4 s at RK4 step 1e-4 (measured ~1e-13; RK4 order leaves lots of room).
    state = assemble_posture(
        MODEL, com_x=0.02, com_z=0.6, swing_foot_x=-0.15, swing_foot_z=0.05,
        com_velocity=(0.4, 0.05),
    )
    E0 = total_energy(MODEL, state)
    ts, qs, dqs = rollout(MODEL, state, lambda t: np.zeros(4), 0.4)
    E1 = total_energy(MODEL, BipedState(qs[-1], dqs[-1]))
    assert abs(E1 - E0) <= 1e-7 * abs(E0)


def test_power_balance_with_torques():
    # dE/dt = dq_b . u (+ dq0 * u_a): check the energy increment over a short
    # torqued rollout against the integral of joint power.
    state = assemble_posture(
        MODEL, com_x=0.0, com_z=0.6, swing_foot_x=-0.2, swing_foot_z=0.04,
        com_velocity=(0.5, 0.0),
    )
    u_const = np.array([1.5, -2.0, 0.7, 1.1])
    u_a = 0.8
    h = 1e-4
    ts, qs, dqs = rollout(MODEL, state, lambda t: u_const, 0.2, h=h, u_a_fn=lambda t: u_a)
    E = np.array([total_energy(MODEL, BipedState(q, dq)) for q, dq in zip(qs, dqs)])
    power = dqs[:, 1:] @ u_const + dqs[:, 0] * u_a
    work = np.trapezoid(power, ts)
    assert abs((E[-1] - E[0]) - work) < 1e-6 * max(1.0, abs(E[-1] - E[0]))


def test_L_dot_equals_gravity_moment_plus_ankle():
    # Along any rollout, the contact-point angular momentum obeys
    # dL/dt = m g x_c + u_a, torques or not.  Checked by central differences.
    state = assemble_posture(
        MODEL, com_x=0.03, com_z=0.59, swing_foot_x=-0.18, swing_foot_z=0.05,
        com_velocity=(0.6, -0.1),
    )
    u_fn = lambda t: np.array([2.0 * math.sin(7 * t), -1.0, 0.5, 1.2 * math.cos(9 * t)])
    u_a = 1.3
    h = 1e-4
    ts, qs, dqs = rollout(MODEL, state, u_fn, 0.2, h=h, u_a_fn=lambda t: u_a)
    L = np.array([centroidal(MODEL, BipedState(q, dq)).L for q, dq in zip(qs, dqs)])
    x_c = np.array([com_position(MODEL, q)[0] for q in qs])
    dL_fd = (L[2:] - L[:-2]) / (2 * h)
    dL_model = MODEL.m_total * MODEL.g * x_c[1:-1] + u_a
    assert np.max(np.abs(dL_fd - dL_model)) < 1e-4


def test_L_is_momentum_conjugate_to_q0():
    # For the pinned chain, L about the contact equals the first row of D dq.
    rng = np.random.default_rng(43)
    for _ in range(10):
        st = random_state(rng)
        L_sum = centroidal(MODEL, st).L
        L_conj = float(mass_matrix(MODEL, st.q)[0] @ st.dq)
        assert abs(L_sum - L_conj) <= 1e-10 * max(1.0, abs(L_sum))


def test_relative_degree_gap_between_L_and_x_c():
    # Across a step in the body torques, L(t) stays C^2 (its first two
    # derivatives do not see u_b) while x_c's second derivative jumps.  The
    # second finite difference of L is h^2-small across the switch; that of
    # x_c is O(1) and visibly kinked.
    state = assemble_posture(
        MODEL, com_x=0.0, com_z=0.6, swing_foot_x=-0.15, swing_foot_z=0.05,
        com_velocity=(0.4, 0.0),
    )
    t_switch = 0.05
    u1 = np.array([1.0, -1.0, 0.5, 0.5])
    u2 = np.array([-3.0, 2.0, -1.5, 1.0])
    h = 1e-4
    ts, qs, dqs = rollout(
        MODEL, state, lambda t: u1 if t < t_switch else u2, 0.1, h=h
    )
    L = np.array([centroidal(MODEL, BipedState(q, dq)).L for q, dq in zip(qs, dqs)])
    x = np.array([com_position(MODEL, q)[0] for q in qs])
    i_s = int(round(t_switch / h))

    def second_diff(arr):
        return (arr[2:] - 2 * arr[1:-1] + arr[:-2]) / (h * h)

    dd_L = second_diff(L)
    dd_x = second_diff(x)
    # second_diff index j sits at original sample j+1; the switch lands at
    # dd-index i_s - 1.  Compare each signal's increment at the switch with
    # its own smooth trend well after it.
    near = slice(i_s - 4, i_s + 3)
    far = slice(i_s + 50, i_s + 100)
    jump_x = np.max(np.abs(np.diff(dd_x[near])))
    trend_x = np.max(np.abs(np.diff(dd_x[far])))
    jump_L = np.max(np.abs(np.diff(dd_L[near])))
    trend_L = np.max(np.abs(np.diff(dd_L[far])))
    # x-double-dot jumps by J_c-row @ D^-1 B (u2 - u1): orders above its trend.
    assert jump_x > 50.0 * trend_x
    # L-double-dot = m g x-dot does not see the torque step at all.
    assert jump_L < 3.0 * trend_L


def test_forward_dynamics_validation():
    st = BipedState(np.zeros(5), np.zeros(5))
    with pytest.raises(ValidationError):
        forward_dynamics(MODEL, st, np.zeros(3))
    with pytest.raises(ValidationError):
        forward_dynamics(MODEL, st, np.array([1.0, 2.0, np.nan, 0.0]))


# ---------------------------------------------------------------------------
# centroidal bookkeeping
# ---------------------------------------------------------------------------


def test_centroidal_at_rest_is_zero():
    cs = centroidal(MODEL, BipedState(np.array([0.1, -0.2, 0.3, 0.2, -0.1]), np.zeros(5)))
    assert np.max(np.abs(cs.v_c)) == 0.0
    assert cs.L == 0.0 and cs.L_c == 0.0


def test_transfer_formula_identity_bulk():
    # L = L_c + m * wedge(p_c, v_c) for 1000 random states, 1e-10 relative.
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(1000):
        st = random_state(rng, vel_scale=2.0)
        cs = centroidal(MODEL, st)
        resid = abs(cs.L - cs.L_c - MODEL.m_total * wedge(cs.p_c, cs.v_c))
        worst = max(worst, resid / max(1.0, abs(cs.L)))
    assert worst <= 1e-10


def test_point_mass_degeneration_kills_L_c():
    # Shrink the leg masses/inertias toward zero (total fixed by fattening the
    # torso, CoM pulled to the torso): L_c collapses with them.
    def scaled(leg_scale):
        def rod(mass, length):
            return LinkParams(mass, length, length / 2, max(mass * length * length / 12, 1e-16))

        m_th, m_sh = 6.8 * leg_scale, 3.2 * leg_scale
        m_to = 32.0 - 2 * (m_th + m_sh)
        # concentrate the torso near its base so it acts like a point
        torso = LinkParams(m_to, 0.625, 1e-6, 1e-12)
        return PlanarBiped(torso, rod(m_th, 0.4), rod(m_sh, 0.4), rod(m_th, 0.4), rod(m_sh, 0.4))

    rng = np.random.default_rng(59)
    st = random_state(rng)
    lcs = []
    for s in (1.0, 1e-3, 1e-6):
        cs = centroidal(scaled(s), st)
        lcs.append(abs(cs.L_c))
    assert lcs[1] < 2e-3 * lcs[0]
    assert lcs[2] < 2e-6 * lcs[0]


def test_com_velocity_matches_position_fd_along_rollout():
    state = assemble_posture(
        MODEL, com_x=0.01, com_z=0.6, swing_foot_x=-0.12, swing_foot_z=0.06,
        com_velocity=(0.3, 0.02),
    )
    h = 1e-4
    ts, qs, dqs = rollout(MODEL, state, lambda t: np.zeros(4), 0.05, h=h)
    p = np.array([com_position(MODEL, q) for q in qs])
    v = np.array([com_velocity(MODEL, q, dq) for q, dq in zip(qs, dqs)])
    v_fd = (p[2:] - p[:-2]) / (2 * h)
    assert np.max(np.abs(v_fd - v[1:-1])) < 1e-6


def test_com_acceleration_matches_velocity_fd():
    rng = np.random.default_rng(61)
    st = random_state(rng)
    ddq = forward_dynamics(MODEL, st, np.array([1.0, 0.5, -0.5, 0.2]))
    a = com_acceleration(MODEL, st.q, st.dq, ddq)
    eps = 1e-6
    v_p = com_velocity(MODEL, st.q + eps * st.dq, st.dq + eps * ddq)
    v_m = com_velocity(MODEL, st.q - eps * st.dq, st.dq - eps * ddq)
    assert np.max(np.abs((v_p - v_m) / (2 * eps) - a)) < 1e-5


# ---------------------------------------------------------------------------
# impact map, relabeling, guard
# ---------------------------------------------------------------------------


def touchdown_state(rng=None, com_velocity=(0.7, 0.0), swing_x=0.25, com_x=0.05):
    """A kinematically consistent pre-impact state: swing foot at the ground
    and descending, CoM moving forward."""
    return assemble_posture(
        MODEL,
        com_x=com_x,
        com_z=0.6,
        swing_foot_x=swing_x,
        swing_foot_z=0.0,
        com_velocity=com_velocity,
        swing_foot_velocity=(0.0, -0.25),
    )


def test_relabel_is_involution():
    rng = np.random.default_rng(71)
    st = random_state(rng)
    st2 = relabel(MODEL, relabel(MODEL, st))
    assert np.max(np.abs(st2.q - st.q)) < 1e-12
    assert np.max(np.abs(st2.dq - st.dq)) < 1e-12


def test_relabel_swaps_feet_kinematically():
    st = touchdown_state()
    sw_old = swing_foot_position(MODEL, st.q)
    com_old = com_position(MODEL, st.q)
    rl = relabel(MODEL, st)
    sw_new = swing_foot_position(MODEL, rl.q)
    com_new = com_position(MODEL, rl.q)
    # old swing foot (on the ground at x = sw_old[0]) becomes the new origin
    assert np.max(np.abs(sw_new - np.array([-sw_old[0], sw_old[1]]))) < 1e-9
    assert np.max(np.abs(com_new - (com_old - np.array([sw_old[0], 0.0])))) < 1e-9


def test_impact_zero_velocity_is_pure_relabel():
    st = BipedState(touchdown_state().q, np.zeros(5))
    out = impact_map(MODEL, st)
    rl = relabel(MODEL, st)
    assert np.max(np.abs(out.q - rl.q)) < 1e-12
    assert np.max(np.abs(out.dq)) < 1e-12


def test_impact_conserves_L_about_new_contact():
    # L+ (about the new contact) == transfer(L-, p_2to1, v_c-) for generic
    # pre-impact states: the contact impulse has no moment about its own point
    # and the old contact releases without one.
    rng = np.random.default_rng(83)
    for vx, vz, swx in ((0.7, -0.1, 0.25), (1.2, -0.3, 0.3), (0.4, 0.15, 0.2)):
        st = touchdown_state(com_velocity=(vx, vz), swing_x=swx)
        cs_minus = centroidal(MODEL, st)
        p_sw = swing_foot_position(MODEL, st.q)
        p_2to1 = np.array([0.0, 0.0]) - p_sw  # old contact in new-contact frame
        L_pred = transfer_angular_momentum(cs_minus.L, p_2to1, cs_minus.v_c, MODEL.m_total)
        out = impact_map(MODEL, st)
        L_plus = centroidal(MODEL, out).L
        assert abs(L_plus - L_pred) <= 1e-9 * max(1.0, abs(L_pred))


def test_impact_level_ground_zero_vz_keeps_L():
    st = touchdown_state(com_velocity=(0.8, 0.0))
    L_minus = centroidal(MODEL, st).L
    L_plus = centroidal(MODEL, impact_map(MODEL, st)).L
    assert abs(L_plus - L_minus) <= 1e-9 * max(1.0, abs(L_minus))


def test_impact_rejects_upward_swing_foot():
    # A swing foot moving up needs a downward (negative) vertical impulse to
    # stop plastically -- the ground cannot pull.
    st = assemble_posture(
        MODEL, com_x=0.05, com_z=0.6, swing_foot_x=0.25, swing_foot_z=0.0,
        com_velocity=(0.3, 0.2), swing_foot_velocity=(0.0, 1.5),
    )
    with pytest.raises(InfeasibleImpactError):
        impact_map(MODEL, st)


def test_guard_examples():
    above = assemble_posture(MODEL, com_x=0.0, com_z=0.6, swing_foot_x=0.2, swing_foot_z=0.05)
    assert guard(MODEL, above) is False
    down = touchdown_state()
    assert guard(MODEL, down) is True
    up = assemble_posture(
        MODEL, com_x=0.0, com_z=0.6, swing_foot_x=0.2, swing_foot_z=0.0,
        com_velocity=(0.0, 0.0), swing_foot_velocity=(0.0, 0.1),
    )
    assert guard(MODEL, up) is False


# ---------------------------------------------------------------------------
# model construction / serialization
# ---------------------------------------------------------------------------


def test_default_model_mass_split():
    assert MODEL.m_total == pytest.approx(32.0)
    assert MODEL.torso.mass == 12.0
    assert MODEL.thigh.mass == 6.8 and MODEL.shin.mass == 3.2


def test_json_round_trip():
    doc = MODEL.to_json_dict()
    clone = PlanarBiped.from_json(doc)
    rng = np.random.default_rng(5)
    st = random_state(rng)
    assert np.max(np.abs(mass_matrix(clone, st.q) - mass_matrix(MODEL, st.q))) < 1e-15
    assert clone.g == MODEL.g


def test_from_json_accepts_long_json_text_and_paths(tmp_path):
    text = json.dumps(MODEL.to_json_dict(), indent=4)
    assert len(text) > 255  # longer than a file name may be
    path = tmp_path / "model.json"
    path.write_text(text)
    for source in (text, path, str(path)):
        clone = PlanarBiped.from_json(source)
        assert clone.to_json_dict() == MODEL.to_json_dict()


def test_from_json_missing_field_rejected():
    doc = MODEL.to_json_dict()
    del doc["links"]["torso"]
    with pytest.raises(ValidationError):
        PlanarBiped.from_json(doc)
    # malformed, mistyped and unknown entries name the field at fault
    links = MODEL.to_json_dict()["links"]
    bad_torso = dict(links["torso"], mass=True)
    bad = [
        ({"gravity": True, "links": links}, "PlanarBiped.gravity"),
        ({"gravity": "9.81", "links": links}, "PlanarBiped.gravity"),
        ({"gravity": 9.81, "links": links, "g": 1}, "'g'"),
        ({"links": [1]}, "PlanarBiped.links"),
        ({"links": dict(links, torso=3)}, "PlanarBiped.links.torso"),
        ({"links": dict(links, torso={"mass": 12.0})}, "PlanarBiped.links.torso"),
        ({"links": dict(links, knee={})}, "'knee'"),
        ({"links": dict(links, torso=bad_torso)}, "LinkParams.mass"),
    ]
    for doc, text in bad:
        with pytest.raises(ValidationError, match=re.escape(text)):
            PlanarBiped.from_json(doc)


def test_asymmetric_legs_rejected():
    def rod(mass, length):
        return LinkParams(mass, length, length / 2, mass * length * length / 12)

    with pytest.raises(ValidationError):
        PlanarBiped(rod(12, 0.625), rod(6.8, 0.4), rod(3.2, 0.4), rod(7.0, 0.4), rod(3.2, 0.4))


def test_state_validation():
    with pytest.raises(ValidationError):
        BipedState(np.zeros(4), np.zeros(5))
    with pytest.raises(ValidationError):
        BipedState(np.zeros(5), np.array([0.0, 0.0, np.inf, 0.0, 0.0]))
