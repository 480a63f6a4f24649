"""Foot-placement laws and stance-phase tracking controllers.

Placement layer (point-mass reasoning): predict the end-of-step angular
momentum from the current ALIP state, then choose where the swing foot lands
so the *next* step ends at the commanded momentum.  All placements are the
swing-foot-to-CoM x-offset at touchdown, i.e. exactly the next step's initial
CoM abscissa x_c+ (negative when stepping ahead of the CoM).

Tracking layer (full joint-space model): a four-row virtual-constraint stack
    y = h0(q) - h_d(s)
    h0 = (torso pitch, stance-foot->CoM height, swing-foot->CoM x and z)
driven to zero either by input-output linearization (exact decoupling, poles
placed by Kp/Kd) or by a passivity-based law that skips the acceleration
cancellation and pays for it with a Lyapunov argument instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._fields import Config, check_fields
from .biped import PlanarBiped, BipedState, _dyn_terms, _checked_solve
from .errors import NumericalError, ValidationError
from .pendulum import PendulumParams

__all__ = [
    "GaitCommand",
    "VirtualConstraintSpec",
    "predict_L_end",
    "foot_placement_deadbeat",
    "foot_placement_asymptotic",
    "foot_placement_vz_corrected",
    "lateral_L_des",
    "turning_frame",
    "virtual_constraint_reference",
    "virtual_constraint_derivatives",
    "planar_outputs",
    "io_linearizing_torque",
    "passivity_tracking_torque",
]


@dataclass(frozen=True)
class GaitCommand(Config):
    """Per-step gait command.

    Attributes:
        L_des: desired angular momentum about the contact at step end
            [kg m^2/s] (sagittal; m*H*v for a target speed v).
        T: step duration [s].
        W: desired step width [m] (lateral point-mass planning only).
        alpha: per-step momentum-error contraction in [0, 1); 0 = deadbeat.
        parity: +1 when the next stance leg is the left one, -1 otherwise.
        delta_D: heading change per step [rad] (turning).
    """

    L_des: float
    T: float
    W: float = 0.0
    alpha: float = 0.0
    parity: int = 1
    delta_D: float = 0.0

    def __post_init__(self):
        check_fields(self)
        if self.T <= 0:
            raise ValidationError(f"GaitCommand: T must be > 0 (got {self.T})")
        if not 0.0 <= self.alpha < 1.0:
            raise ValidationError(f"GaitCommand: alpha must be in [0, 1) (got {self.alpha})")
        if self.parity not in (-1, 1):
            raise ValidationError(f"GaitCommand: parity must be +1 or -1 (got {self.parity})")
        if self.W < 0:
            raise ValidationError(f"GaitCommand: W must be >= 0 (got {self.W})")


def _gain_vec(name: str, k, default: float) -> np.ndarray:
    if k is None:
        return np.full(4, default)
    try:
        arr = np.asarray(k, dtype=float)
    except (TypeError, ValueError):
        raise ValidationError(f"{name}: expected a number or 4 numbers (got {k!r})") from None
    if arr.ndim == 0:
        arr = np.full(4, float(arr))
    if arr.shape != (4,):
        raise ValidationError(f"{name}: expected scalar or shape (4,), got {arr.shape}")
    if not np.all(np.isfinite(arr)) or np.any(arr <= 0):
        raise ValidationError(f"{name}: gains must be positive and finite")
    return arr.copy()


@dataclass(frozen=True)
class VirtualConstraintSpec(Config):
    """Virtual-constraint geometry and tracking gains.

    Attributes:
        H: commanded CoM height [m].
        z_cl: swing-foot ground clearance at mid-step [m], 0 < z_cl < H.
        Kp, Kd: diagonal output-feedback gains (scalar or 4-vector).
            Defaults 100 / 20 put each output at a critically damped
            double pole at 10 rad/s.
    """

    H: float
    z_cl: float
    Kp: np.ndarray = field(default=None)
    Kd: np.ndarray = field(default=None)

    def __post_init__(self):
        check_fields(self)
        if not 0.0 < self.z_cl < self.H:
            raise ValidationError(
                f"VirtualConstraintSpec: need 0 < z_cl < H (got z_cl={self.z_cl}, H={self.H})"
            )
        object.__setattr__(self, "Kp", _gain_vec("VirtualConstraintSpec.Kp", self.Kp, 100.0))
        object.__setattr__(self, "Kd", _gain_vec("VirtualConstraintSpec.Kd", self.Kd, 20.0))


# ---------------------------------------------------------------------------
# point-mass placement laws
# ---------------------------------------------------------------------------


def predict_L_end(
    params: PendulumParams, x_c: float, L: float, time_remaining: float
) -> float:
    """Angular momentum the unforced ALIP will have time_remaining from now:
    L_hat = m H ell sinh(ell dt) x_c + cosh(ell dt) L."""
    if not all(math.isfinite(v) for v in (x_c, L, time_remaining)):
        raise ValidationError("predict_L_end: non-finite input")
    if time_remaining < 0:
        raise ValidationError(
            f"predict_L_end: time_remaining must be >= 0 (got {time_remaining})"
        )
    ell = params.ell
    return (
        params.m * params.H * ell * math.sinh(ell * time_remaining) * x_c
        + math.cosh(ell * time_remaining) * L
    )


def foot_placement_deadbeat(
    params: PendulumParams, L_hat_end: float, L_des: float, T: float
) -> float:
    """Touchdown offset p (= x_c+) so the next step ends exactly at L_des.

    Propagating (x_c+, L+) = (p, L_hat_end) one step:
        L(T) = m H ell sinh(ell T) p + cosh(ell T) L_hat_end = L_des
        =>  p = (L_des - cosh(ell T) L_hat_end) / (m H ell sinh(ell T)).
    """
    if not all(math.isfinite(v) for v in (L_hat_end, L_des, T)):
        raise ValidationError("foot_placement_deadbeat: non-finite input")
    if T <= 0:
        raise ValidationError(f"foot_placement_deadbeat: T must be > 0 (got {T})")
    ell = params.ell
    return (L_des - math.cosh(ell * T) * L_hat_end) / (
        params.m * params.H * ell * math.sinh(ell * T)
    )


def foot_placement_asymptotic(
    params: PendulumParams, L_hat_end: float, L_des: float, T: float, alpha: float
) -> float:
    """Placement contracting the end-of-step momentum error by alpha per step:
    L_{k+1} - L_des = alpha (L_k - L_des).  alpha = 0 is deadbeat.

        p = ((1 - alpha) L_des + (alpha - cosh(ell T)) L_hat_end)
            / (m H ell sinh(ell T)).
    """
    if not all(math.isfinite(v) for v in (L_hat_end, L_des, T, alpha)):
        raise ValidationError("foot_placement_asymptotic: non-finite input")
    if T <= 0:
        raise ValidationError(f"foot_placement_asymptotic: T must be > 0 (got {T})")
    if not 0.0 <= alpha < 1.0:
        raise ValidationError(
            f"foot_placement_asymptotic: alpha must be in [0, 1) (got {alpha})"
        )
    ell = params.ell
    return ((1.0 - alpha) * L_des + (alpha - math.cosh(ell * T)) * L_hat_end) / (
        params.m * params.H * ell * math.sinh(ell * T)
    )


def foot_placement_vz_corrected(
    params: PendulumParams,
    L_minus: float,
    x_st: float,
    v_z: float,
    L_des: float,
    T: float,
) -> float:
    """Deadbeat placement accounting for nonzero CoM vertical velocity at
    touchdown.

    The reference-point change at foot exchange gives
    L+ = L- - m v_z (p - x_st); requiring the next step to end at L_des,
        L_des = m H ell sinh(ell T) p + cosh(ell T) (L- - m v_z (p - x_st))
        =>  p = (L_des - cosh(ell T) (L- + m v_z x_st))
                / (m (H ell sinh(ell T) - v_z cosh(ell T))).

    Stepping forward (p < x_st) while descending (v_z < 0) raises L+ less
    than the level-ground exchange would, which is what the correction buys.
    Raises NumericalError when the denominator is near-singular (vertical
    speed canceling the pendulum gain).
    """
    if not all(math.isfinite(v) for v in (L_minus, x_st, v_z, L_des, T)):
        raise ValidationError("foot_placement_vz_corrected: non-finite input")
    if T <= 0:
        raise ValidationError(f"foot_placement_vz_corrected: T must be > 0 (got {T})")
    ell = params.ell
    ch = math.cosh(ell * T)
    sh = math.sinh(ell * T)
    den = params.m * (params.H * ell * sh - v_z * ch)
    scale = params.m * (params.H * ell * sh + abs(v_z) * ch)
    if abs(den) < 1e-9 * scale:
        raise NumericalError(
            f"foot_placement_vz_corrected: near-singular denominator {den:.3e} "
            f"(v_z = {v_z} cancels the step gain)"
        )
    return (L_des - ch * (L_minus + params.m * v_z * x_st)) / den


def lateral_L_des(params: PendulumParams, W: float, T: float, parity: int) -> float:
    """End-of-step lateral momentum target for a period-two sway of width W.

    Returns +/- (1/2) m H W ell sinh(ell T) / (1 + cosh(ell T)), positive when
    the next stance leg is the left one (parity=+1).  Convention: the lateral
    momentum coordinate is m*H*v_lat with the lateral axis positive toward
    the robot's left, which makes the period-two orbit's step-start momentum
    equal this value exactly.
    """
    if not (math.isfinite(W) and math.isfinite(T)):
        raise ValidationError("lateral_L_des: non-finite input")
    if W < 0:
        raise ValidationError(f"lateral_L_des: W must be >= 0 (got {W})")
    if T <= 0:
        raise ValidationError(f"lateral_L_des: T must be > 0 (got {T})")
    if parity not in (-1, 1):
        raise ValidationError(f"lateral_L_des: parity must be +1 or -1 (got {parity})")
    ell = params.ell
    mag = 0.5 * params.m * params.H * W * ell * math.sinh(ell * T) / (
        1.0 + math.cosh(ell * T)
    )
    return parity * mag


def turning_frame(
    D_k: float, delta_D: float, L_des_pair: tuple[float, float] = (0.0, 0.0)
) -> tuple[float, tuple[float, float]]:
    """Advance the heading by delta_D and express the desired momentum pair
    (lateral, sagittal) in the world frame.

    Returns (D_{k+1}, (L_x_world, L_y_world)) with the pair rotated by the new
    heading: delta_D = pi/2 from zero heading maps (a, b) to (-b, a).
    """
    if not (math.isfinite(D_k) and math.isfinite(delta_D)):
        raise ValidationError("turning_frame: non-finite input")
    D_next = D_k + delta_D
    c, s = math.cos(D_next), math.sin(D_next)
    lx, ly = float(L_des_pair[0]), float(L_des_pair[1])
    return D_next, (c * lx - s * ly, s * lx + c * ly)


# ---------------------------------------------------------------------------
# virtual constraints
# ---------------------------------------------------------------------------


def virtual_constraint_reference(
    spec: VirtualConstraintSpec,
    cmd: GaitCommand,
    s: float,
    h0_start,
    p_des: float,
) -> np.ndarray:
    """Reference output stack h_d(s) at phase s = (t - t_step_start)/T in [0, 1].

    Rows: [torso pitch 0; CoM height H; swing-x half-cosine blend from the
    actual step-start value h0_start[2] to the placement target p_des;
    swing-z parabola 4 z_cl (s - 1/2)^2 + (H - z_cl)].

    The blend starting from the *measured* step-start output makes the swing
    tracking error start at exactly zero each step.
    """
    h_d, _, _ = virtual_constraint_derivatives(spec, cmd, s, h0_start, p_des)
    return h_d


def virtual_constraint_derivatives(
    spec: VirtualConstraintSpec,
    cmd: GaitCommand,
    s: float,
    h0_start,
    p_des: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(h_d, dh_d/dt, d2h_d/dt2) at phase s, using ds/dt = 1/T.

    Analytic derivatives of the same rows as virtual_constraint_reference;
    p_des is treated as frozen for differentiation (its slow drift as the
    prediction refines is feedback's job, not the feedforward's).
    """
    if not math.isfinite(s):
        raise ValidationError("virtual_constraint_reference: non-finite phase")
    if not 0.0 <= s <= 1.0:
        raise ValidationError(
            f"virtual_constraint_reference: phase s must be in [0, 1] (got {s})"
        )
    if not math.isfinite(p_des):
        raise ValidationError("virtual_constraint_reference: non-finite p_des")
    h0_start = np.asarray(h0_start, dtype=float)
    if h0_start.shape != (4,):
        raise ValidationError(
            f"virtual_constraint_reference: h0_start must have shape (4,), got {h0_start.shape}"
        )
    T = cmd.T
    swx0 = h0_start[2]
    mid = 0.5 * (swx0 + p_des)
    half = 0.5 * (swx0 - p_des)
    cpi = math.cos(math.pi * s)
    spi = math.sin(math.pi * s)
    h_d = np.array(
        [
            0.0,
            spec.H,
            mid + half * cpi,
            4.0 * spec.z_cl * (s - 0.5) ** 2 + (spec.H - spec.z_cl),
        ]
    )
    dh_d = np.array(
        [0.0, 0.0, -half * math.pi * spi / T, 8.0 * spec.z_cl * (s - 0.5) / T]
    )
    ddh_d = np.array(
        [0.0, 0.0, -half * math.pi * math.pi * cpi / (T * T), 8.0 * spec.z_cl / (T * T)]
    )
    return h_d, dh_d, ddh_d


# ---------------------------------------------------------------------------
# output map and tracking torques
# ---------------------------------------------------------------------------


def planar_outputs(model: PlanarBiped, q) -> tuple[np.ndarray, np.ndarray]:
    """Output stack h0(q) and its Jacobian (4x5).

    h0 = (torso pitch, stance-foot->CoM z, swing-foot->CoM x, swing-foot->CoM z).
    """
    h0, J, _ = _outputs_full(model, np.asarray(q, dtype=float), np.zeros(5))
    return h0, J


def _outputs_full(model: PlanarBiped, q, dq):
    """h0, J, and Jdot*dq with exact trigonometric second-derivative terms."""
    P_sin, P_cos, P_lin = model.P_sin, model.P_cos, model.P_lin
    theta = model.M_map @ q
    s, c = np.sin(theta), np.cos(theta)
    dtheta = model.M_map @ dq
    h0 = P_sin @ s + P_cos @ c + P_lin @ q
    J = (P_sin * c[None, :] - P_cos * s[None, :]) @ model.M_map + P_lin
    dt2 = dtheta * dtheta
    Jdot_dq = -(P_sin @ (s * dt2)) - (P_cos @ (c * dt2))
    return h0, J, Jdot_dq


def io_linearizing_torque(
    model: PlanarBiped,
    state: BipedState,
    h_d,
    dh_d,
    ddh_d,
    Kp=None,
    Kd=None,
) -> np.ndarray:
    """Input-output linearizing torque for the four-output stack.

    Solves A u = v - Jdot dq - J ddq_drift with A = J D^-1 B the decoupling
    matrix and v = ddh_d - Kd (J dq - dh_d) - Kp (h0 - h_d), yielding output
    error dynamics ddy + Kd dy + Kp y = 0.  Raises SingularMatrixError with a
    condition estimate if the decoupling matrix degenerates (e.g. a fully
    straightened knee).
    """
    h_d = np.asarray(h_d, dtype=float)
    dh_d = np.asarray(dh_d, dtype=float)
    ddh_d = np.asarray(ddh_d, dtype=float)
    for name, arr in (("h_d", h_d), ("dh_d", dh_d), ("ddh_d", ddh_d)):
        if arr.shape != (4,):
            raise ValidationError(
                f"io_linearizing_torque: {name} must have shape (4,), got {arr.shape}"
            )
        if not np.all(np.isfinite(arr)):
            raise ValidationError(f"io_linearizing_torque: non-finite {name}")
    Kp = np.diag(_gain_vec("io_linearizing_torque.Kp", Kp, 100.0))
    Kd = np.diag(_gain_vec("io_linearizing_torque.Kd", Kd, 20.0))
    terms = _dyn_terms(model, state.q, state.dq)
    u, _, _, _ = _io_torque_core(
        model, state.q, state.dq, terms, h_d, dh_d, ddh_d, Kp, Kd
    )
    return u


def _io_torque_core(model, q, dq, terms, h_d, dh_d, ddh_d, Kp, Kd):
    """Torque plus the shared mass-matrix solve block.

    Returns (u, X, y, dy) with X = D^-1 [B_b | -(C dq + G) | B_a] (5x6), so a
    simulation loop can finish the closed-loop acceleration as
    ddq = X[:, :4] u + X[:, 4] + X[:, 5] u_a without a second factorization.
    The drift column deliberately omits the ankle torque: the tracking law
    treats it as an unknown disturbance.
    """
    D_q, cvec_q, G_q, _ = terms
    h0, J, Jdot_dq = _outputs_full(model, q, dq)
    rhs_block = np.concatenate(
        [model.B_b, (-(cvec_q + G_q))[:, None], model.B_a[:, None]], axis=1
    )
    X = _checked_solve(D_q, rhs_block, "io_linearizing_torque (mass matrix)")
    A_dec = J @ X[:, :4]
    y = h0 - h_d
    dy = J @ dq - dh_d
    v = ddh_d - Kd @ dy - Kp @ y
    rhs = v - Jdot_dq - J @ X[:, 4]
    u = _checked_solve(A_dec, rhs, "io_linearizing_torque (decoupling matrix)")
    return u, X, y, dy


def passivity_tracking_torque(
    model: PlanarBiped,
    state: BipedState,
    q_r,
    dq_r,
    ddq_r,
    kp=None,
    kd=None,
) -> np.ndarray:
    """Joint-space tracking torque that skips inertia inversion of the error.

    Reduce the pinned dynamics over the unactuated coordinate q0
    (D_bar ddq_b + H_bar = u for the actuated block), then apply

        u = D_bar ddq_r + H_bar - kp y - (C_bar + kd) dy,   y = q_b - q_r,

    with C_bar = (1/2) d(D_bar)/dt, computed exactly from the Coriolis
    structure dD/dt = C + C^T.  The symmetric choice satisfies
    C_bar + C_bar^T = d(D_bar)/dt, so V = (1/2) dy' D_bar dy + (1/2) y' kp y
    decays with V-dot = -dy' kd dy along the closed loop.  On the reference
    (y = dy = 0) the torque is the pure feedforward D_bar ddq_r + H_bar.
    """
    q_r = np.asarray(q_r, dtype=float)
    dq_r = np.asarray(dq_r, dtype=float)
    ddq_r = np.asarray(ddq_r, dtype=float)
    for name, arr in (("q_r", q_r), ("dq_r", dq_r), ("ddq_r", ddq_r)):
        if arr.shape != (4,):
            raise ValidationError(
                f"passivity_tracking_torque: {name} must have shape (4,), got {arr.shape}"
            )
        if not np.all(np.isfinite(arr)):
            raise ValidationError(f"passivity_tracking_torque: non-finite {name}")
    kp = np.diag(_gain_vec("passivity_tracking_torque.kp", kp, 100.0))
    kd = np.diag(_gain_vec("passivity_tracking_torque.kd", kd, 20.0))

    from .biped import coriolis_matrix  # local import keeps module top lean

    D_q, cvec_q, G_q, _ = _dyn_terms(model, state.q, state.dq)
    C_q = coriolis_matrix(model, state.q, state.dq)
    Ddot = C_q + C_q.T
    h = cvec_q + G_q

    d00 = D_q[0, 0]
    if abs(d00) < 1e-12:
        raise NumericalError("passivity_tracking_torque: degenerate unactuated inertia")
    D0b = D_q[0, 1:]
    Db0 = D_q[1:, 0]
    Dbb = D_q[1:, 1:]
    D_bar = Dbb - np.outer(Db0, D0b) / d00
    H_bar = h[1:] - Db0 * (h[0] / d00)

    dd00 = Ddot[0, 0]
    dD0b = Ddot[0, 1:]
    dDb0 = Ddot[1:, 0]
    dDbb = Ddot[1:, 1:]
    D_bar_dot = (
        dDbb
        - np.outer(dDb0, D0b) / d00
        - np.outer(Db0, dD0b) / d00
        + np.outer(Db0, D0b) * (dd00 / (d00 * d00))
    )
    C_bar = 0.5 * D_bar_dot

    # Effective actuation of the reduced block; identity for this mechanism
    # (the unactuated row of B is zero) but kept general and checked.
    B_bar = model.B_b[1:, :] - np.outer(Db0 / d00, model.B_b[0, :])
    y = state.q[1:] - q_r
    dy = state.dq[1:] - dq_r
    u_task = D_bar @ ddq_r + H_bar - kp @ y - (C_bar + kd) @ dy
    return _checked_solve(B_bar, u_task, "passivity_tracking_torque (input map)")
