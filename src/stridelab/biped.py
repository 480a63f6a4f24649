"""Five-link planar biped: pinned dynamics, centroidal quantities, impact map.

Mechanism
---------
Five rigid links -- stance shin, stance thigh, torso, swing thigh, swing shin
-- connected by revolute joints (stance knee, stance hip, swing hip, swing
knee), walking in the sagittal (x, z) plane with the stance toe pinned at the
origin.  Four joint torques u = (stance knee, stance hip, swing hip, swing
knee); an optional stance-ankle torque u_a acts between ground and stance shin.

Coordinates
-----------
Absolute segment angles theta_j from the upright vertical, positive leaning in
+x, ordered (0 stance shin, 1 stance thigh, 2 torso, 3 swing thigh, 4 swing
shin).  Each segment's "up the body" unit vector is u(theta) = (sin t, cos t):
stance foot -> knee -> hip, hip -> head for the torso, and for the swing leg
u(theta falls) points from swing knee up to the hip and swing foot up to the
swing knee.  Generalized coordinates are relative:

    q = (q0, q1, q2, q3, q4)
      = (theta0, theta1-theta0, theta2-theta1, theta3-theta2, theta4-theta3),

so q0 is the absolute stance-shin angle (unactuated) and q1..q4 are the four
actuated joint angles.  theta = THETA_MAP @ q with THETA_MAP lower-triangular
ones.

Closed-form dynamics
--------------------
Every link CoM is a fixed linear combination of segment direction vectors:
p_i = sum_j A[i, j] u(theta_j) with constant A built from link lengths and CoM
offsets.  Defining W = A^T diag(masses) A and w = A^T masses, the pinned
mass matrix, Coriolis terms, and gravity vector are exact trigonometric
expressions (no numerical differentiation anywhere):

    D_th[j,k] = W[j,k] cos(theta_j - theta_k) + I_j delta_jk
    C_th[j,k] = W[j,k] sin(theta_j - theta_k) * dtheta_k
    G_th[j]   = -g w_j sin(theta_j),      PE = g sum_j w_j cos(theta_j)

mapped to q coordinates by congruence with THETA_MAP.  C_th satisfies
dD/dt = C + C^T (the passivity structure the tracking controllers rely on).
D depends on angle differences only, so q0 is cyclic: the momentum conjugate
to q0 is exactly the angular momentum about the contact, and
dL/dt = m g x_c + u_a.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._fields import check_fields, check_keys, from_doc, number, to_doc
from .errors import InfeasibleImpactError, SingularMatrixError, ValidationError
from .pendulum import wedge

__all__ = [
    "LinkParams",
    "PlanarBiped",
    "BipedState",
    "CentroidalState",
    "mass_matrix",
    "coriolis_matrix",
    "gravity_vector",
    "potential_energy",
    "total_energy",
    "forward_dynamics",
    "com_position",
    "com_velocity",
    "com_acceleration",
    "com_jacobian",
    "swing_foot_position",
    "swing_foot_velocity",
    "swing_foot_jacobian",
    "centroidal",
    "impact_map",
    "relabel",
    "guard",
]


@dataclass(frozen=True)
class LinkParams:
    """One rigid link.

    Attributes:
        mass: [kg], >= 0 (zero allowed for degenerate point-mass studies).
        length: joint-to-joint length [m], > 0.
        com_offset: distance from the proximal joint (the one nearer the
            torso; for the torso itself, the hip) to the link CoM [m].
        inertia: rotational inertia about the link CoM [kg m^2], >= 0.
    """

    mass: float
    length: float
    com_offset: float
    inertia: float

    def __post_init__(self):
        check_fields(self)
        if self.length <= 0:
            raise ValidationError(f"LinkParams: length must be > 0 (got {self.length})")
        if self.mass < 0 or self.inertia < 0:
            raise ValidationError("LinkParams: mass and inertia must be >= 0")
        if not 0 <= self.com_offset <= self.length:
            raise ValidationError(
                f"LinkParams: com_offset must lie on the link "
                f"(got {self.com_offset} for length {self.length})"
            )


_LINKS = ("torso", "stance_thigh", "stance_shin", "swing_thigh", "swing_shin")


class PlanarBiped:
    """Immutable five-link model with precomputed structural constants.

    Construct with (torso, stance_thigh, stance_shin, swing_thigh, swing_shin)
    LinkParams.  The two thighs and the two shins must be identical: the
    impact relabeling swaps the legs' roles, which only renames coordinates
    when the legs share parameters.
    """

    def __init__(
        self,
        torso: LinkParams,
        stance_thigh: LinkParams,
        stance_shin: LinkParams,
        swing_thigh: LinkParams,
        swing_shin: LinkParams,
        g: float = 9.81,
    ):
        g = number("PlanarBiped.gravity", g)
        if g < 0:
            # g = 0 is allowed: a gravity-free chain is a useful sanity case.
            raise ValidationError(f"PlanarBiped: g must be >= 0 (got {g})")
        if stance_thigh != swing_thigh or stance_shin != swing_shin:
            raise ValidationError(
                "PlanarBiped: legs must be symmetric (stance/swing thigh and "
                "shin parameters equal) so impact relabeling is a pure rename"
            )
        self.torso = torso
        self.thigh = stance_thigh
        self.shin = stance_shin
        self.g = g

        l_sh, c_sh = stance_shin.length, stance_shin.com_offset
        l_th, c_th = stance_thigh.length, stance_thigh.com_offset
        c_to = torso.com_offset

        # Link-CoM coefficient rows in theta order
        # (stance shin, stance thigh, torso, swing thigh, swing shin).
        self.A = np.array(
            [
                [l_sh - c_sh, 0.0, 0.0, 0.0, 0.0],
                [l_sh, l_th - c_th, 0.0, 0.0, 0.0],
                [l_sh, l_th, c_to, 0.0, 0.0],
                [l_sh, l_th, 0.0, -c_th, 0.0],
                [l_sh, l_th, 0.0, -l_th, -c_sh],
            ]
        )
        self.masses = np.array(
            [stance_shin.mass, stance_thigh.mass, torso.mass, swing_thigh.mass, swing_shin.mass]
        )
        self.inertias = np.array(
            [
                stance_shin.inertia,
                stance_thigh.inertia,
                torso.inertia,
                swing_thigh.inertia,
                swing_shin.inertia,
            ]
        )
        self.m_total = float(self.masses.sum())
        if self.m_total <= 0:
            raise ValidationError("PlanarBiped: total mass must be positive")
        self.W = self.A.T @ (self.masses[:, None] * self.A)
        self.w_vec = self.A.T @ self.masses
        # Swing-foot position coefficients: p_sw = sum_j b_j u(theta_j).
        self.b_sw = np.array([l_sh, l_th, 0.0, -l_th, -l_sh])
        self.I_diag = np.diag(self.inertias)
        self.M_map = np.tril(np.ones((5, 5)))
        self.M_inv = np.linalg.inv(self.M_map)
        # Output-map coefficients (control.planar_outputs):
        # h0 = P_sin sin(theta) + P_cos cos(theta) + P_lin q.
        wm = self.w_vec / self.m_total
        c_rel = wm - self.b_sw
        self.P_sin = np.zeros((4, 5))
        self.P_cos = np.zeros((4, 5))
        self.P_lin = np.zeros((4, 5))
        self.P_lin[0, :] = self.M_map[2, :]
        self.P_cos[1, :] = wm
        self.P_sin[2, :] = c_rel
        self.P_cos[3, :] = c_rel
        # theta-reversal (leg swap) expressed on q: R = M^-1 P M.
        P = np.fliplr(np.eye(5))
        self.R_relabel = self.M_inv @ P @ self.M_map
        # Joint torques B_b (5x4) and ankle torque B_a (5,), read-only; row 0
        # of B_b is zero: q0, the stance-ankle angle, is unactuated.
        self.B_b = np.vstack([np.zeros(4), np.eye(4)])
        self.B_a = np.eye(5)[0]
        self.B_b.flags.writeable = self.B_a.flags.writeable = False

    @classmethod
    def default(cls) -> "PlanarBiped":
        """Nominal humanoid-scale model: 12 kg / 0.625 m torso,
        6.8 kg / 0.4 m thighs, 3.2 kg / 0.4 m shins, mid-link CoMs, rod
        inertias (m l^2 / 12), g = 9.81.  Total mass 32 kg; nominal walking
        CoM height about 0.6 m."""

        def rod(mass: float, length: float) -> LinkParams:
            return LinkParams(mass, length, length / 2.0, mass * length * length / 12.0)

        torso = rod(12.0, 0.625)
        thigh = rod(6.8, 0.4)
        shin = rod(3.2, 0.4)
        return cls(torso, thigh, shin, thigh, shin)

    @classmethod
    def from_json(cls, source) -> "PlanarBiped":
        """Load from a JSON document (dict, JSON string, or file path):

        {"gravity": 9.81,
         "links": {"torso": {"mass":..., "length":..., "com_offset":..., "inertia":...},
                   "stance_thigh": {...}, "stance_shin": {...},
                   "swing_thigh": {...}, "swing_shin": {...}}}
        """
        if isinstance(source, dict):
            doc = source
        elif isinstance(source, str) and source.lstrip().startswith("{"):
            doc = json.loads(source)
        else:
            doc = json.loads(Path(source).read_text())
        check_keys(doc, "PlanarBiped", ("gravity", "links"), ("links",))
        links = doc["links"]
        check_keys(links, "PlanarBiped.links", _LINKS, _LINKS)
        parts = [from_doc(LinkParams, links[n], f"PlanarBiped.links.{n}") for n in _LINKS]
        return cls(*parts, g=doc.get("gravity", 9.81))

    def to_json_dict(self) -> dict:
        links = (self.torso, self.thigh, self.shin, self.thigh, self.shin)
        return {
            "gravity": self.g,
            "links": {name: to_doc(lp) for name, lp in zip(_LINKS, links)},
        }


def _as_vec5(name: str, arr) -> np.ndarray:
    v = np.asarray(arr, dtype=float)
    if v.shape != (5,):
        raise ValidationError(f"{name}: expected shape (5,), got {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValidationError(f"{name}: non-finite entries in {v}")
    return v.copy()


@dataclass(frozen=True)
class BipedState:
    """Pinned-model state: q (5,) and dq (5,).

    q0 is the absolute stance-shin angle from vertical; q1..q4 are relative
    joint angles (stance knee, stance hip, swing hip, swing knee).  Arrays are
    copied on construction; treat them as read-only.
    """

    q: np.ndarray
    dq: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "q", _as_vec5("BipedState.q", self.q))
        object.__setattr__(self, "dq", _as_vec5("BipedState.dq", self.dq))


@dataclass(frozen=True)
class CentroidalState:
    """CoM position p_c and velocity v_c (x, z), angular momentum L about the
    stance contact, and angular momentum L_c about the CoM, all for the pinned
    model.  L = L_c + m * wedge(p_c, v_c)."""

    p_c: np.ndarray
    v_c: np.ndarray
    L: float
    L_c: float


# ---------------------------------------------------------------------------
# dynamics terms
# ---------------------------------------------------------------------------


def _mv(A: np.ndarray, v: np.ndarray) -> np.ndarray:
    """A @ v for one vector v, or for each row of a stack of vectors v (N, n);
    A is one matrix or a stack of N matrices."""
    if v.ndim == 1:
        return A.dot(v)  # the same product as A @ v, with less call overhead
    if A.ndim == 2:
        return v.dot(A.T)
    return (A @ v[..., None])[..., 0]


# _trig, _mass_matrix_theta, _dyn_terms and _checked_solve take one state, q
# and dq of shape (5,), or a stack of N states, (N, 5), and then return a
# stack of each result.


def _trig(model: PlanarBiped, q: np.ndarray):
    theta = _mv(model.M_map, q)
    return theta, np.sin(theta), np.cos(theta)


def _mass_matrix_theta(model: PlanarBiped, s: np.ndarray, c: np.ndarray) -> np.ndarray:
    """D_th = W * cos(theta_j - theta_k) + diag(I), in absolute angles."""
    cc = c[..., :, None] * c[..., None, :]
    return model.W * (cc + s[..., :, None] * s[..., None, :]) + model.I_diag


def _dyn_terms(model: PlanarBiped, q: np.ndarray, dq: np.ndarray):
    """(D_q, coriolis vector C_q dq, G_q) plus the trig tuple, all exact."""
    theta, s, c = _trig(model, q)
    dtheta = _mv(model.M_map, dq)
    sin_diff = s[..., :, None] * c[..., None, :] - c[..., :, None] * s[..., None, :]
    D_th = _mass_matrix_theta(model, s, c)
    cvec_th = _mv(model.W * sin_diff, dtheta * dtheta)
    G_th = -model.g * model.w_vec * s
    M = model.M_map
    D_q = M.T @ D_th @ M
    cvec_q = _mv(M.T, cvec_th)
    G_q = _mv(M.T, G_th)
    return D_q, cvec_q, G_q, (theta, s, c, dtheta)


def mass_matrix(model: PlanarBiped, q) -> np.ndarray:
    """Pinned 5x5 mass matrix in q coordinates (symmetric positive definite
    for physical parameters)."""
    D_q, _, _, _ = _dyn_terms(model, _as_vec5("mass_matrix.q", q), np.zeros(5))
    return D_q


def coriolis_matrix(model: PlanarBiped, q, dq) -> np.ndarray:
    """Coriolis matrix C_q(q, dq) with the structural property
    dD/dt = C + C^T (so D-dot minus 2C is skew)."""
    q = _as_vec5("coriolis_matrix.q", q)
    dq = _as_vec5("coriolis_matrix.dq", dq)
    theta, s, c = _trig(model, q)
    dtheta = model.M_map @ dq
    sin_diff = s[:, None] * c - c[:, None] * s
    C_th = model.W * sin_diff * dtheta[None, :]
    return model.M_map.T @ C_th @ model.M_map


def gravity_vector(model: PlanarBiped, q) -> np.ndarray:
    """Gravity torque vector G_q(q)."""
    _, _, G_q, _ = _dyn_terms(model, _as_vec5("gravity_vector.q", q), np.zeros(5))
    return G_q


def potential_energy(model: PlanarBiped, q) -> float:
    """Gravitational PE with the zero level at the ground plane."""
    _, s, c = _trig(model, _as_vec5("potential_energy.q", q))
    return float(model.g * model.w_vec @ c)


def total_energy(model: PlanarBiped, state: BipedState) -> float:
    """Kinetic plus potential energy of the pinned model."""
    D_q, _, _, _ = _dyn_terms(model, state.q, state.dq)
    return float(0.5 * state.dq @ D_q @ state.dq) + potential_energy(model, state.q)


def _cond_estimate(D: np.ndarray) -> float:
    """Condition number of D, the worst one over a stack."""
    if not np.all(np.isfinite(D)):
        return float("inf")
    try:
        return float(np.max(np.linalg.cond(D)))
    except np.linalg.LinAlgError:
        return float("inf")


def _checked_solve(D: np.ndarray, rhs: np.ndarray, what) -> np.ndarray:
    """x with D x = rhs, for one system, D (n, n) with rhs (n,) or (n, k), or
    for a stack of them, D (N, n, n) with rhs (N, n) or (N, n, k).  Each
    system must meet the relative residual bound.  `what` names the system in
    an error, or is a pair of names for a pair of systems on the axis before
    each matrix (after the lanes', if any)."""
    lead = D.shape[:-2]
    # np.linalg.solve reads a stack of vectors as one matrix: give each
    # system's vector a column of its own.
    b = rhs[..., None] if lead and rhs.ndim < D.ndim else rhs
    try:
        x = np.linalg.solve(D, b)
    except np.linalg.LinAlgError:
        bad, why = np.linalg.det(D) == 0, "singular matrix"  # the same LU as the solve's
    else:
        # Cheap residual check to catch silently-garbage solves near singularity.
        # A NaN or inf anywhere in x makes err NaN or inf, which fails it too.
        axes, mul = ((-2, -1), np.matmul) if lead else (None, np.dot)  # one system's entries
        scale = mul(np.abs(D), np.abs(x)) + np.abs(b) + 1e-300
        err = np.abs(mul(D, x) - b).max(axis=axes) / scale.max(axis=axes)
        if err.max() <= 1e-8:
            return x[..., 0] if b is not rhs else x
        bad = ~(err <= 1e-8)
        why = "ill-conditioned solve" if np.isfinite(x[bad]).all() else "non-finite solve result"
    first = np.unravel_index(np.argmax(bad), lead)  # the first failing system
    if not isinstance(what, str):
        what, first, lead = what[first[-1]], first[:-1], lead[:-1]
    if lead:
        why += f" in lane {first[0]} of {lead[0]}"
    raise SingularMatrixError(f"{what}: {why}", cond=_cond_estimate(D[bad] if bad.any() else D))


def forward_dynamics(model: PlanarBiped, state: BipedState, u, u_a: float = 0.0) -> np.ndarray:
    """Joint accelerations ddq from D ddq + C dq + G = B u + B_a u_a.

    u is the 4-vector (stance knee, stance hip, swing hip, swing knee); u_a is
    the stance-ankle torque.  Raises SingularMatrixError (with a condition
    estimate) if the mass matrix cannot be reliably inverted.
    """
    u = np.asarray(u, dtype=float)
    if u.shape != (4,):
        raise ValidationError(f"forward_dynamics: u must have shape (4,), got {u.shape}")
    if not (np.all(np.isfinite(u)) and math.isfinite(u_a)):
        raise ValidationError("forward_dynamics: non-finite torque input")
    D_q, cvec_q, G_q, _ = _dyn_terms(model, state.q, state.dq)
    rhs = model.B_b @ u + model.B_a * u_a - cvec_q - G_q
    return _checked_solve(D_q, rhs, "forward_dynamics")


# ---------------------------------------------------------------------------
# kinematics / centroidal quantities
# ---------------------------------------------------------------------------


def com_position(model: PlanarBiped, q) -> np.ndarray:
    """CoM (x, z) relative to the stance contact."""
    _, s, c = _trig(model, _as_vec5("com_position.q", q))
    return np.array([model.w_vec @ s, model.w_vec @ c]) / model.m_total


def com_velocity(model: PlanarBiped, q, dq) -> np.ndarray:
    """CoM velocity (x, z)."""
    q = _as_vec5("com_velocity.q", q)
    dq = _as_vec5("com_velocity.dq", dq)
    _, s, c = _trig(model, q)
    dtheta = model.M_map @ dq
    return np.array([model.w_vec @ (c * dtheta), -model.w_vec @ (s * dtheta)]) / model.m_total


def com_acceleration(model: PlanarBiped, q, dq, ddq) -> np.ndarray:
    """CoM acceleration (x, z) given joint accelerations ddq."""
    q = _as_vec5("com_acceleration.q", q)
    dq = _as_vec5("com_acceleration.dq", dq)
    ddq = _as_vec5("com_acceleration.ddq", ddq)
    return _centroidal_terms(model, q, dq, ddq)[4]


def com_jacobian(model: PlanarBiped, q) -> np.ndarray:
    """2x5 Jacobian of the CoM position w.r.t. q."""
    _, s, c = _trig(model, _as_vec5("com_jacobian.q", q))
    Jx_th = model.w_vec * c / model.m_total
    Jz_th = -model.w_vec * s / model.m_total
    return np.vstack([Jx_th, Jz_th]) @ model.M_map


def swing_foot_position(model: PlanarBiped, q) -> np.ndarray:
    """Swing-foot (x, z) relative to the stance contact."""
    _, s, c = _trig(model, _as_vec5("swing_foot_position.q", q))
    return np.array([model.b_sw @ s, model.b_sw @ c])


def swing_foot_velocity(model: PlanarBiped, q, dq) -> np.ndarray:
    """Swing-foot velocity (x, z)."""
    q = _as_vec5("swing_foot_velocity.q", q)
    dq = _as_vec5("swing_foot_velocity.dq", dq)
    _, s, c = _trig(model, q)
    dtheta = model.M_map @ dq
    return np.array([model.b_sw @ (c * dtheta), -model.b_sw @ (s * dtheta)])


def swing_foot_jacobian(model: PlanarBiped, q) -> np.ndarray:
    """2x5 Jacobian of the swing-foot position w.r.t. q."""
    _, s, c = _trig(model, _as_vec5("swing_foot_jacobian.q", q))
    return np.vstack([model.b_sw * c, -model.b_sw * s]) @ model.M_map


def centroidal(model: PlanarBiped, state: BipedState) -> CentroidalState:
    """Centroidal quantities by direct summation over links.

    L sums each link's m_i * wedge(p_i, v_i) plus its spin I_i * dtheta_i;
    L_c = L - m * wedge(p_c, v_c).  For the pinned model L also equals the
    momentum conjugate to q0 (cyclic coordinate), which tests cross-check.
    """
    p_c, v_c, L, L_c, _ = _centroidal_terms(model, state.q, state.dq, None)
    return CentroidalState(p_c=p_c, v_c=v_c, L=L, L_c=L_c)


def _centroidal_terms(model: PlanarBiped, q, dq, ddq):
    """Unchecked kernel of centroidal and com_acceleration, sharing one trig
    evaluation: (p_c, v_c, L, L_c, a_c), with a_c None when ddq is None.
    q, dq and ddq must be finite (5,) float arrays."""
    theta, s, c = _trig(model, q)
    dtheta = model.M_map @ dq
    U = np.array([s, c])            # columns u(theta_j)
    Ud = np.array([c, -s]) * dtheta  # columns u'(theta_j) * dtheta_j
    P_links = model.A @ U.T           # (5, 2) link CoM positions
    V_links = model.A @ Ud.T          # (5, 2) link CoM velocities
    wedges = P_links[:, 1] * V_links[:, 0] - P_links[:, 0] * V_links[:, 1]
    L = float(model.masses @ wedges + model.inertias @ dtheta)
    p_c = (model.masses @ P_links) / model.m_total
    v_c = (model.masses @ V_links) / model.m_total
    L_c = L - model.m_total * wedge(p_c, v_c)
    if ddq is None:
        return p_c, v_c, L, L_c, None
    ddtheta = model.M_map @ ddq
    dt2 = dtheta * dtheta
    ax = model.w_vec @ (c * ddtheta - s * dt2)
    az = model.w_vec @ (-s * ddtheta - c * dt2)
    return p_c, v_c, L, L_c, np.array([ax, az]) / model.m_total


# ---------------------------------------------------------------------------
# impact and relabeling
# ---------------------------------------------------------------------------


def relabel(model: PlanarBiped, state: BipedState) -> BipedState:
    """Swap leg roles (new stance = old swing) by renaming coordinates.

    In absolute angles the swap is a reversal theta' = theta[::-1]; on q it is
    the constant matrix R = M^-1 P M (an involution: applying it twice is the
    identity).  Positions and velocities transform with the same R when no
    impulse occurs."""
    return BipedState(model.R_relabel @ state.q, model.R_relabel @ state.dq)


def _impact_solution(model: PlanarBiped, state_minus: BipedState):
    """Solve the rigid impact at the swing foot on the floating-base model.

    Unknowns: post-impact rates (dtheta, v_base) of the 7-DoF unpinned chain
    plus the (x, z) impulse at the new contact.  The old contact releases (no
    impulse there); the new contact point's velocity is zeroed:

        [M_e  -J^T] [xdot+  ]   [M_e xdot-]
        [J     0  ] [impulse] = [0        ]

    Raises InfeasibleImpactError if the vertical impulse is negative (the
    ground would have to pull).  Returns (state_plus, impulse) with the legs
    already relabeled.
    """
    q, dq = state_minus.q, state_minus.dq
    theta, s, c = _trig(model, q)
    dtheta = model.M_map @ dq
    # Base-rotation coupling: columns w_j * u'(theta_j).
    S = np.vstack([model.w_vec * c, -model.w_vec * s])
    M_e = np.zeros((7, 7))
    M_e[:5, :5] = _mass_matrix_theta(model, s, c)
    M_e[:5, 5:] = S.T
    M_e[5:, :5] = S
    M_e[5:, 5:] = model.m_total * np.eye(2)
    J = np.zeros((2, 7))
    J[0, :5] = model.b_sw * c
    J[1, :5] = -model.b_sw * s
    J[:, 5:] = np.eye(2)
    K = np.zeros((9, 9))
    K[:7, :7] = M_e
    K[:7, 7:] = -J.T
    K[7:, :7] = J
    rhs = np.zeros(9)
    rhs[:7] = M_e @ np.concatenate([dtheta, [0.0, 0.0]])
    sol = _checked_solve(K, rhs, "impact_map")
    dtheta_plus, impulse = sol[:5], sol[7:9]
    if impulse[1] < -1e-9 * max(1.0, float(np.linalg.norm(impulse))):
        raise InfeasibleImpactError(
            f"impact_map: vertical impulse {impulse[1]:.6e} < 0 "
            "(plastic contact infeasible)",
            impulse=impulse,
        )
    state_plus = BipedState(model.R_relabel @ q, model.M_inv @ dtheta_plus[::-1])
    return state_plus, impulse


def impact_map(model: PlanarBiped, state_minus: BipedState) -> BipedState:
    """Plastic impact at the swing foot followed by leg relabeling.

    The pre-impact state should satisfy the guard (swing foot at the ground,
    descending); the map itself is defined for any state.  Raises
    InfeasibleImpactError if the computed vertical contact impulse is
    negative (the ground would have to pull).
    """
    return _impact_solution(model, state_minus)[0]


def guard(model: PlanarBiped, state: BipedState) -> bool:
    """Touchdown guard: swing-foot height <= 0 with negative vertical rate."""
    p = swing_foot_position(model, state.q)
    v = swing_foot_velocity(model, state.q, state.dq)
    return bool(p[1] <= 0.0 and v[1] < 0.0)
