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
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import stridelab as sl
from stridelab import (
    BipedState,
    GaitCommand,
    InfeasibleImpactError,
    LinkParams,
    NumericalError,
    PlanarBiped,
    SingularMatrixError,
    ValidationError,
    VirtualConstraintSpec,
    transfer_angular_momentum,
    wedge,
)
from stridelab.biped import (
    _checked_solve,
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
from stridelab.simlab import WalkingController, _five_link_rhs, assemble_posture

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


# Walking postures and rates, drawn through assemble_posture so that they stay
# physical: stance foot at the origin, CoM and swing foot where a step puts them.
postures = st.builds(
    dict,
    com_x=st.floats(-0.15, 0.15),
    com_z=st.floats(0.52, 0.64),
    swing_foot_x=st.floats(0.08, 0.35) | st.floats(-0.35, -0.08),
    swing_foot_z=st.floats(0.0, 0.1),
    com_velocity=st.tuples(st.floats(-1.5, 1.5), st.floats(-0.3, 0.3)),
    torso_pitch=st.floats(-0.2, 0.2),
    swing_foot_velocity=st.none() | st.tuples(st.floats(-1.5, 1.5), st.floats(-1.5, 1.5)),
)


def drawn_state(kw):
    try:
        return assemble_posture(MODEL, **kw)
    except NumericalError:
        assume(False)


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(kw=postures)
def test_mass_matrix_symmetric_positive_definite_generated(kw):
    D = mass_matrix(MODEL, drawn_state(kw).q)
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


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(kw=postures)
def test_coriolis_skew_property_generated(kw):
    state = drawn_state(kw)
    C = coriolis_matrix(MODEL, state.q, state.dq)
    eps = 1e-6
    Dp = mass_matrix(MODEL, state.q + eps * state.dq)
    Dm = mass_matrix(MODEL, state.q - eps * state.dq)
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
# the per-model constants on generated models, against the definitions
# ---------------------------------------------------------------------------


@st.composite
def link_params(draw, max_length):
    length = draw(st.floats(0.1, max_length))
    mass = draw(st.floats(0.2, 20.0))
    return LinkParams(
        mass=mass,
        length=length,
        com_offset=draw(st.floats(0.0, 1.0)) * length,
        inertia=draw(st.floats(0.0, 0.5)) * mass * length * length,
    )


generated_models = st.builds(
    lambda torso, thigh, shin, g: PlanarBiped(torso, thigh, shin, thigh, shin, g=g),
    link_params(1.0),
    link_params(0.6),
    link_params(0.6),
    st.floats(0.0, 15.0),
)
angles = st.lists(st.floats(-0.8, 0.8), min_size=5, max_size=5).map(np.array)
rates = st.lists(st.floats(-3.0, 3.0), min_size=5, max_size=5).map(np.array)


class Oracle:
    """A model's kinematics and dynamics written out from the definitions:
    link CoMs and the swing foot as sums of segment vectors u(theta) =
    (sin theta, cos theta), theta the running sum of q; the mass matrix
    from the link-CoM Jacobians; every derivative by central differences."""

    def __init__(self, model):
        self.model, self.M = model, np.tril(np.ones((5, 5)))
        sh, th, to = model.shin, model.thigh, model.torso
        # Link CoMs in theta order (stance shin, stance thigh, torso, swing
        # thigh, swing shin); com_offset is measured from the proximal joint.
        self.A = np.array(
            [
                [sh.length - sh.com_offset, 0, 0, 0, 0],
                [sh.length, th.length - th.com_offset, 0, 0, 0],
                [sh.length, th.length, to.com_offset, 0, 0],
                [sh.length, th.length, 0, -th.com_offset, 0],
                [sh.length, th.length, 0, -th.length, -sh.com_offset],
            ]
        )
        self.b_sw = np.array([sh.length, th.length, 0, -th.length, -sh.length])
        self.m = np.array([sh.mass, th.mass, to.mass, th.mass, sh.mass])
        self.inertia = np.array([sh.inertia, th.inertia, to.inertia, th.inertia, sh.inertia])

    def points(self, q):
        """Link CoMs (5, 2), CoM (2,) and swing foot (2,) at q."""
        theta = self.M @ q
        u = np.stack([np.sin(theta), np.cos(theta)], axis=1)
        links = self.A @ u
        return links, self.m @ links / self.m.sum(), self.b_sw @ u

    def jacobians(self, q):
        """Link-CoM Jacobians (5, 2, 5) d p_i / d q."""
        theta = self.M @ q
        du = np.stack([np.cos(theta), -np.sin(theta)])  # d u(theta_j) / d theta_j
        return np.einsum("ij,xj,jk->ixk", self.A, du, self.M)

    def mass_matrix(self, q):
        J = self.jacobians(q)
        rot = self.M.T @ np.diag(self.inertia) @ self.M
        return np.einsum("i,ixa,ixb->ab", self.m, J, J) + rot

    def outputs(self, q):
        _, p_c, p_sw = self.points(q)
        return np.array([(self.M @ q)[2], p_c[1], p_c[0] - p_sw[0], p_c[1] - p_sw[1]])

    def along(self, fn, q, dq, eps=1e-4):
        """First and second central differences of fn along q + s dq."""
        plus, mid, minus = fn(q + eps * dq), fn(q), fn(q - eps * dq)
        return (plus - minus) / (2 * eps), (plus - 2 * mid + minus) / (eps * eps)

    def gradient(self, fn, q, eps=1e-5):
        return np.array([(fn(q + eps * e) - fn(q - eps * e)) / (2 * eps) for e in np.eye(5)]).T


def close(a, b, rel):
    return np.max(np.abs(np.asarray(a) - b)) <= rel * max(1.0, np.max(np.abs(b)))


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(model=generated_models, q=angles, dq=rates,
       more=st.lists(st.tuples(angles, rates), max_size=2))
def test_term_map_matches_the_definitions_on_generated_models(model, q, dq, more):
    from stridelab.biped import _centroidal_terms, _dyn_terms, _state_rows, _term_rows
    from stridelab.control import _outputs_full

    oracle = Oracle(model)
    terms = _dyn_terms(model, q, dq)
    D, cvec, G, _ = terms
    D_ref = oracle.mass_matrix(q)
    assert close(D, D_ref, 1e-12)
    # C dq = Ddot dq - (1/2) grad_q (dq' D dq), the Lagrangian Coriolis terms.
    Ddot, _ = oracle.along(oracle.mass_matrix, q, dq)
    cvec_ref = Ddot @ dq - 0.5 * oracle.gradient(lambda x: dq @ oracle.mass_matrix(x) @ dq, q)
    assert close(cvec, cvec_ref, 1e-6)
    # G = grad PE, PE = g sum_i m_i z_i.
    G_ref = model.g * np.einsum("i,ik->k", oracle.m, oracle.jacobians(q)[:, 1])
    assert close(G, G_ref, 1e-12)
    h0, J, Jdot_dq = _outputs_full(terms[3])
    assert close(h0, oracle.outputs(q), 1e-12)
    assert close(J, oracle.gradient(oracle.outputs, q), 1e-7)
    assert close(Jdot_dq, oracle.along(oracle.outputs, q, dq)[1], 1e-5)
    # The recorder's kernel: CoM, its rates, and L as the sum over links of
    # m_i wedge(p_i, v_i) plus each link's spin.
    ddq = -dq[::-1]
    rows = _state_rows(model, q.tolist(), dq.tolist())[1]
    p_c, v_c, L, L_c, a_c = _centroidal_terms(model, rows, dq.tolist(), ddq.tolist())
    links, p_c_ref, p_sw_ref = oracle.points(q)
    v_links = oracle.jacobians(q) @ dq
    L_ref = sum(m * wedge(p, v) for m, p, v in zip(oracle.m, links, v_links))
    L_ref += oracle.inertia @ (oracle.M @ dq)
    v_c_ref = oracle.m @ v_links / oracle.m.sum()
    _, acc = oracle.along(lambda x: oracle.points(x)[1], q, dq)
    assert close(p_c, p_c_ref, 1e-12) and close(v_c, v_c_ref, 1e-12)
    assert close(L, L_ref, 1e-12)
    assert close(L_c, L_ref - oracle.m.sum() * wedge(p_c_ref, v_c_ref), 1e-12)
    a_c_ref = np.einsum("i,ixk,k->x", oracle.m, oracle.jacobians(q), ddq) / oracle.m.sum() + acc
    assert close(a_c, a_c_ref, 1e-5)
    # The swing foot, which the impact map reads.
    assert close(swing_foot_position(model, q), p_sw_ref, 1e-12)
    assert close(
        swing_foot_jacobian(model, q), oracle.gradient(lambda x: oracle.points(x)[2], q), 1e-7
    )
    # One layout: a stack of 1-3 states through _term_rows gives each state's
    # rows of _state_rows, with the quadratic features this model keeps.
    Q, DQ = np.array([q, *(a for a, _ in more)]), np.array([dq, *(b for _, b in more)])
    for row, q_i, dq_i in zip(_term_rows(model, Q, DQ), Q, DQ):
        assert close(row, _state_rows(model, q_i.tolist(), dq_i.tolist())[0], 1e-13)


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(model=st.just(MODEL) | generated_models, q=angles, dq=rates)
def test_state_rows_hold_the_public_kinematics_bit_for_bit(model, q, dq):
    # One former: the rows the closed loop reads for one state, with its
    # rates, hold exactly what the public functions return for its angles.
    from stridelab.biped import _D, _G, _H0, _J, _PC, _PSW, _state_rows
    from stridelab.control import planar_outputs

    rows, floats = _state_rows(model, q.tolist(), dq.tolist())
    assert floats == rows.tolist()
    h0, J = planar_outputs(model, q)
    for got, want in (
        (rows[_D].reshape(5, 5), mass_matrix(model, q)),
        (rows[_G], gravity_vector(model, q)),
        (rows[_PC], com_position(model, q)),
        (rows[_PSW], swing_foot_position(model, q)),
        (rows[_H0], h0),
        (rows[_J].reshape(4, 5), J),
    ):
        assert np.array_equal(got, want)


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


torques = st.lists(st.floats(-3.0, 3.0), min_size=4, max_size=4)


@settings(derandomize=True, database=None, deadline=None, max_examples=15)
@given(kw=postures, u=torques, u_a=st.floats(-2.0, 2.0))
def test_power_balance_with_torques_generated(kw, u, u_a):
    # dE/dt = dq_b . u + dq0 u_a over a short constant-torque rollout.
    state = drawn_state(kw)
    u = np.array(u)
    ts, qs, dqs = rollout(MODEL, state, lambda t: u, 0.03, h=1e-4, u_a_fn=lambda t: u_a)
    E = [total_energy(MODEL, BipedState(qs[i], dqs[i])) for i in (0, -1)]
    power = dqs[:, 1:] @ u + dqs[:, 0] * u_a
    work = np.trapezoid(power, ts)
    assert abs((E[1] - E[0]) - work) < 1e-6 * max(1.0, abs(E[1] - E[0]))


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


def test_checked_solve_failure_messages():
    cases = [
        (np.zeros((2, 2)), np.ones(2), "what: singular matrix", math.inf),
        (np.eye(2), np.array([np.nan, 1.0]), "what: non-finite solve result", 1.0),
        # x = (0, 1) is finite, but its residual is NaN: an inf in the matrix
        # must not pass the residual check
        (np.diag([np.inf, 1.0]), np.ones(2), "what: ill-conditioned solve", math.inf),
    ]
    for D, rhs, message, cond in cases:
        with np.errstate(invalid="ignore"), pytest.raises(SingularMatrixError) as exc:
            _checked_solve(D, rhs, "what")
        assert str(exc.value).startswith(message) and "lane" not in str(exc.value)
        assert exc.value.cond == cond
        # The same system as lane 1 of a stack, behind a well-posed lane 0:
        # the bound holds per lane, and cond is the failing lane's.
        D_stack, rhs_stack = np.array([np.eye(2), D]), np.array([np.ones(2), rhs])
        with np.errstate(invalid="ignore"), pytest.raises(SingularMatrixError) as exc:
            _checked_solve(D_stack, rhs_stack, "what")
        assert str(exc.value).startswith(message)
        assert "singular" in message or "in lane 1 of 2" in str(exc.value)
        assert exc.value.cond == cond


def test_checked_solve_on_a_stack_solves_each_system():
    rng = np.random.default_rng(5)
    D = rng.normal(size=(3, 5, 5)) + 5.0 * np.eye(5)
    rhs = rng.normal(size=(3, 5))
    x = _checked_solve(D, rhs, "what")
    assert x.shape == rhs.shape
    for i in range(3):
        assert np.max(np.abs(x[i] - _checked_solve(D[i], rhs[i], "what"))) <= 1e-12


def test_checked_solve_scales_the_residual_by_the_whole_system():
    # cond(D) = 1e13: the residual is far above 1e-8 |b| but far below
    # 1e-8 (|D| |x| + |b|), so the bound passes it, alone and as a stack's
    # second system, and the result is the plain solve's.
    rng = np.random.default_rng(0)
    U, _ = np.linalg.qr(rng.normal(size=(4, 4)))
    V, _ = np.linalg.qr(rng.normal(size=(4, 4)))
    D = U @ np.diag([1.0, 1.0, 1.0, 1e-13]) @ V.T
    b = rng.normal(size=4)
    x = np.linalg.solve(D, b)
    assert np.max(np.abs(D @ x - b)) > 1e-6 * np.max(np.abs(b))
    assert np.array_equal(_checked_solve(D, b, "what"), x)
    stacked = _checked_solve(np.array([np.eye(4), D]), np.array([b, b]), "what")
    assert np.array_equal(stacked[0], b) and np.max(np.abs(stacked[1] - x)) <= 1e-12 * np.max(np.abs(x))


def test_five_link_rhs_singular_at_coincident_feet():
    # Swing foot on the stance foot, every link upright: the output
    # decoupling matrix is singular, and the closed-loop derivative says so,
    # also when an ankle torque puts the mass matrix into the same solve, and
    # so does io_linearizing_torque.
    gait = GaitCommand(L_des=14.4, T=0.35, alpha=0.5)
    message = "io_linearizing_torque (decoupling matrix): singular matrix"
    for ankle_fn in (None, lambda tau: 2.0):
        controller = WalkingController(
            MODEL, gait, VirtualConstraintSpec(H=0.6, z_cl=0.07), ankle_fn=ankle_fn
        )
        controller.on_step_start(BipedState(np.zeros(5), np.zeros(5)))
        with pytest.raises(SingularMatrixError, match=re.escape(message)) as exc:
            _five_link_rhs(MODEL, controller, 0.1, [0.0] * 10)
        assert len(str(exc.value).splitlines()) == 1 and "lane" not in str(exc.value)
    # The public law on the same state and any reference.
    with pytest.raises(SingularMatrixError, match=re.escape(message)) as exc:
        sl.io_linearizing_torque(MODEL, BipedState(np.zeros(5), np.zeros(5)), *np.zeros((3, 4)))
    assert len(str(exc.value).splitlines()) == 1 and "lane" not in str(exc.value)


def test_five_link_rhs_names_a_singular_mass_matrix():
    # Massless, inertia-free shins make D exactly singular while [D_0; J]
    # is not: the tracking law alone solves, and an ankle torque, which
    # needs D^-1 e_0 as well, fails naming the mass matrix.
    shin = LinkParams(0.0, 0.4, 0.2, 0.0)
    model = PlanarBiped(MODEL.torso, MODEL.thigh, shin, MODEL.thigh, shin)
    q, dq = [0.1, -0.2, 0.3, 0.4, -0.3], [0.5, -0.2, 0.1, 0.3, -0.4]
    assert np.linalg.det(mass_matrix(model, q)) == 0.0
    gait = GaitCommand(L_des=14.4, T=0.35, alpha=0.5)
    message = "io_linearizing_torque (mass matrix): singular matrix"
    for ankle_fn in (None, lambda tau: 2.0):
        controller = WalkingController(
            model, gait, VirtualConstraintSpec(H=0.6, z_cl=0.07), ankle_fn=ankle_fn
        )
        controller.on_step_start(BipedState(np.array(q), np.array(dq)))
        if ankle_fn is None:
            assert all(map(math.isfinite, _five_link_rhs(model, controller, 0.1, q + dq)[0]))
            continue
        with pytest.raises(SingularMatrixError, match=re.escape(message)) as exc:
            _five_link_rhs(model, controller, 0.1, q + dq)
        assert len(str(exc.value).splitlines()) == 1 and "lane" not in str(exc.value)


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


touchdowns = st.builds(
    dict,
    com_x=st.floats(-0.1, 0.15),
    com_z=st.floats(0.54, 0.64),
    swing_foot_x=st.floats(0.1, 0.35),
    swing_foot_z=st.just(0.0),
    com_velocity=st.tuples(st.floats(0.0, 1.5), st.floats(-0.3, 0.3)),
    torso_pitch=st.floats(-0.2, 0.2),
    swing_foot_velocity=st.tuples(st.floats(-0.5, 0.5), st.floats(-1.0, -0.05)),
)


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(kw=touchdowns)
def test_impact_conserves_L_about_new_contact_generated(kw):
    st_minus = drawn_state(kw)
    try:
        out = impact_map(MODEL, st_minus)
    except InfeasibleImpactError:
        assume(False)
    cs_minus = centroidal(MODEL, st_minus)
    p_2to1 = -swing_foot_position(MODEL, st_minus.q)  # old contact in new-contact frame
    L_pred = transfer_angular_momentum(cs_minus.L, p_2to1, cs_minus.v_c, MODEL.m_total)
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


def test_from_json_missing_field_rejected():
    doc = MODEL.to_json_dict()
    del doc["links"]["torso"]
    with pytest.raises(ValidationError):
        PlanarBiped.from_json(doc)
    # malformed, mistyped and unknown entries name the field at fault
    links = MODEL.to_json_dict()["links"]
    bad_torso = dict(links["torso"], mass=True)
    bad = [
        # the parsed object only: JSON text and file paths are not read
        (json.dumps(MODEL.to_json_dict()), "PlanarBiped: expected an object"),
        (Path("model.json"), "PlanarBiped: expected an object"),
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
