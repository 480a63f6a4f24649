"""Foot-placement laws and stance-phase tracking controllers.

Placement layer (point-mass reasoning): predict the end-of-step angular
momentum from the current ALIP state, then choose where the swing foot lands
so the *next* step ends at the commanded momentum.  All placements are the
swing-foot-to-CoM x-offset at touchdown, i.e. exactly the next step's initial
CoM abscissa x_c+ (negative when stepping ahead of the CoM).

Tracking layer (full joint-space model): a four-row virtual-constraint stack
    y = h0(q) - h_d(s)
    h0 = (torso pitch, stance-foot->CoM height, swing-foot->CoM x and z)
driven to zero by input-output linearization (exact decoupling, poles placed
by Kp/Kd).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._fields import Config, check_fields
from .biped import _H, _H0, _J, _JDOT, _R  # entries of the rows of _dyn_terms
from .biped import (
    PlanarBiped,
    BipedState,
    _checked_solve,
    _dyn_terms,
    _mv,
)
from .errors import NumericalError, ValidationError
from .pendulum import PendulumParams

__all__ = [
    "GaitCommand",
    "VirtualConstraintSpec",
    "predict_L_end",
    "foot_placement_deadbeat",
    "foot_placement_asymptotic",
    "foot_placement_velocity",
    "foot_placement_vz_corrected",
    "lateral_L_des",
    "turning_frame",
    "virtual_constraint_reference",
    "virtual_constraint_derivatives",
    "planar_outputs",
    "io_linearizing_torque",
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
        =>  p = (L_des - cosh(ell T) L_hat_end) / (m H ell sinh(ell T)),
    the asymptotic law at alpha = 0 (the same bits: (1 - 0) L_des and
    (0 - cosh) L_hat_end are exact).
    """
    return foot_placement_asymptotic(params, L_hat_end, L_des, T, 0.0)


def _finite(v) -> bool:
    """True when v, a number or an array of lanes' values, is finite throughout."""
    return math.isfinite(v) if isinstance(v, float) else bool(np.isfinite(v).all())


def _placement_law(gain: float, ell: float, hat_end, des: float, T: float, alpha: float):
    """The asymptotic law on a momentum (gain m H) or a velocity (gain 1),
    unchecked: ((1 - alpha) des + (alpha - cosh(ell T)) hat_end)
    / (gain ell sinh(ell T)); gain 1 multiplies exactly, so both keep their bits."""
    return ((1.0 - alpha) * des + (alpha - math.cosh(ell * T)) * hat_end) / (
        gain * ell * math.sinh(ell * T)
    )


def _check_placement_finite(name: str, hat_end, *values: float):
    if not (all(map(math.isfinite, values)) and _finite(hat_end)):
        raise ValidationError(f"{name}: non-finite input")


def _check_placement_inputs(name: str, hat_end, des: float, T: float, alpha: float):
    _check_placement_finite(name, hat_end, des, T, alpha)
    if T <= 0:
        raise ValidationError(f"{name}: T must be > 0 (got {T})")
    if not 0.0 <= alpha < 1.0:
        raise ValidationError(f"{name}: alpha must be in [0, 1) (got {alpha})")


def foot_placement_asymptotic(
    params: PendulumParams, L_hat_end: float, L_des: float, T: float, alpha: float
) -> float:
    """Placement contracting the end-of-step momentum error by alpha per step:
    L_{k+1} - L_des = alpha (L_k - L_des).  alpha = 0 is deadbeat.  L_hat_end
    may be an array of lanes' predictions; p is then the array of their
    placements.

        p = ((1 - alpha) L_des + (alpha - cosh(ell T)) L_hat_end)
            / (m H ell sinh(ell T)).
    """
    _check_placement_inputs("foot_placement_asymptotic", L_hat_end, L_des, T, alpha)
    return _placement_law(params.m * params.H, params.ell, L_hat_end, L_des, T, alpha)


def foot_placement_velocity(
    params: PendulumParams, v_hat_end: float, v_des: float, T: float, alpha: float
) -> float:
    """The LIP controller's placement: the asymptotic law written on the CoM
    velocity, v_{k+1} - v_des = alpha (v_k - v_des), from the predicted
    end-of-step velocity v_hat_end (a number, or an array of lanes' values).

        p = ((1 - alpha) v_des + (alpha - cosh(ell T)) v_hat_end)
            / (ell sinh(ell T)).
    """
    _check_placement_inputs("foot_placement_velocity", v_hat_end, v_des, T, alpha)
    return _placement_law(1.0, params.ell, v_hat_end, v_des, T, alpha)


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
    prediction refines is feedback's job, not the feedforward's).  For N lanes
    at one phase, h0_start is (N, 4) and p_des (N,), and each of the three
    is (N, 4).
    """
    if not math.isfinite(s):
        raise ValidationError("virtual_constraint_reference: non-finite phase")
    if not 0.0 <= s <= 1.0:
        raise ValidationError(
            f"virtual_constraint_reference: phase s must be in [0, 1] (got {s})"
        )
    if not _finite(p_des):
        raise ValidationError("virtual_constraint_reference: non-finite p_des")
    h0_start = np.asarray(h0_start, dtype=float)
    if h0_start.shape != getattr(p_des, "shape", ()) + (4,):
        raise ValidationError(
            "virtual_constraint_reference: h0_start must have shape (4,), or (N, 4) for "
            f"N lanes' p_des, got {h0_start.shape}"
        )
    return tuple(_reference_rows(spec, cmd.T, s, h0_start, p_des, (spec.H, 0.0, 0.0)))


def _reference_rows(spec: VirtualConstraintSpec, T: float, s: float, h0_start, p_des, z):
    """Unchecked kernel of virtual_constraint_derivatives: the (3, 4) stack
    of h_d, dh_d/dt and d2h_d/dt2 at phase s, from the step-start outputs
    h0_start (4,) and the target p_des, with (z, dz/dt, d2z/dt2) = z in the
    height row; for N lanes (h0_start (N, 4), p_des (N,)) a (3, N, 4) stack."""
    one = h0_start.ndim == 1
    swx0 = float(h0_start[2]) if one else h0_start[:, 2]  # one state's in float arithmetic
    mid = 0.5 * (swx0 + p_des)
    half = 0.5 * (swx0 - p_des)
    cpi = math.cos(math.pi * s)
    spi = math.sin(math.pi * s)
    rows = (
        (0.0, z[0], mid + half * cpi, 4.0 * spec.z_cl * (s - 0.5) ** 2 + (spec.H - spec.z_cl)),
        (0.0, z[1], -half * math.pi * spi / T, 8.0 * spec.z_cl * (s - 0.5) / T),
        (0.0, z[2], -half * math.pi * math.pi * cpi / (T * T), 8.0 * spec.z_cl / (T * T)),
    )
    if one:
        return np.array(rows)
    out = np.empty((3, len(swx0), 4))  # a row per lane
    for k, row in enumerate(rows):
        for j, value in enumerate(row):
            out[k, :, j] = value
    return out


# ---------------------------------------------------------------------------
# output map and tracking torques
# ---------------------------------------------------------------------------


def planar_outputs(model: PlanarBiped, q) -> tuple[np.ndarray, np.ndarray]:
    """Output stack h0(q) and its Jacobian (4x5).

    h0 = (torso pitch, stance-foot->CoM z, swing-foot->CoM x, swing-foot->CoM z).
    """
    q = np.asarray(q, dtype=float)
    return _outputs_full(model, _dyn_terms(model, q, np.zeros_like(q)))[:2]


def _outputs_full(model: PlanarBiped, terms):
    """h0, J, and Jdot*dq with exact trigonometric second-derivative terms,
    read from the rows of _dyn_terms (the output features are part of its
    product); for a stack of states, a stack of each."""
    rows = terms[3]
    return rows[..., _H0], rows[..., _J].reshape(rows.shape[:-1] + (4, 5)), rows[..., _JDOT]


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

    u makes J ddq + Jdot dq = v = ddh_d - Kd (J dq - dh_d) - Kp (h0 - h_d),
    so the output errors obey ddy + Kd dy + Kp y = 0 (see _io_torque_core).
    Raises SingularMatrixError with a condition estimate if the decoupling
    matrix J D^-1 B degenerates (e.g. a fully straightened knee), which is
    when [D_0; J] does: det [D_0; J] = det D det(J D^-1 B).
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
    Kp = _gain_vec("io_linearizing_torque.Kp", Kp, 100.0)
    Kd = _gain_vec("io_linearizing_torque.Kd", Kd, 20.0)
    terms = _dyn_terms(model, state.q, state.dq)
    u, _, _ = _io_torque_core(model, state.q, state.dq, terms, h_d, dh_d, ddh_d, Kp, Kd)
    return u


def _io_torque_core(model, q, dq, terms, h_d, dh_d, ddh_d, Kp, Kd, u_a=0.0):
    """(u, ddq, y): the tracking torque, the closed-loop acceleration under u
    and the stance-ankle torque u_a, and the output error, from one solve.
    Kp and Kd are the diagonals of the gain matrices.

    Row 0 of B is zero, so the acceleration ddq0 the law commands, u_a left
    out as unknown to it, solves [D_0; J] ddq0 = [-(C dq + G)_0; v - Jdot dq],
    and u = D_1: ddq0 + (C dq + G)_1:.  A nonzero u_a adds u_a D^-1 e_0, with
    D as the second system of a pair in the same solve: the first 50 entries
    of the rows of _dyn_terms.  For a stack of states (q, dq and terms
    stacked, the references (N, 4)) each result is stacked.
    """
    D_q, rows = terms[0], terms[3]
    h0, J, _ = _outputs_full(model, terms)
    h = rows[..., _H]
    y = h0 - h_d
    lead = q.shape[:-1] + ((2,) if u_a else ())
    r = np.zeros(lead + (5,))
    r_law = r[..., 0, :] if u_a else r
    r_law[...] = rows[..., _R]  # [-(C dq + G)_0; -Jdot dq]
    r_law[..., 1:] += ddh_d - Kd * (_mv(J, dq) - dh_d) - Kp * y
    K = rows[..., : 50 if u_a else 25].reshape(lead + (5, 5))
    what = "io_linearizing_torque (decoupling matrix)"
    if not u_a:
        ddq0 = ddq = _checked_solve(K, r, what)
    else:
        r[..., 1, 0] = 1.0
        x = _checked_solve(K, r, (what, "io_linearizing_torque (mass matrix)"))
        ddq0 = x[..., 0, :]
        ddq = ddq0 + u_a * x[..., 1, :]
    return _mv(D_q[..., 1:, :], ddq0) + h[..., 1:], ddq, y
