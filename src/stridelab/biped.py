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
offsets.  With W = A^T diag(masses) A and w = A^T masses, in absolute angles

    D_th[j,k] = W[j,k] cos(theta_j - theta_k) + I_j delta_jk
    C_th[j,k] = W[j,k] sin(theta_j - theta_k) * dtheta_k
    G_th[j]   = -g w_j sin(theta_j),      PE = g sum_j w_j cos(theta_j)

mapped to q coordinates by congruence with THETA_MAP (dD/dt = C + C^T).  D
depends on angle differences only, so q0 is cyclic: its conjugate momentum
L = (D dq)_0 is exactly the angular momentum about the contact, and
dL/dt = m g x_c + u_a.

So each term, like the output map h0 = P_sin sin(theta) + P_cos cos(theta) +
P_lin q of control.planar_outputs, is a product of one constant matrix,
PlanarBiped.term_map, with the features of the angle vector
a = [theta_i - theta_j (i < j); theta] = ANGLE_MAP q (one sin, one cos):

    f = [cos a; sin a; q; 1; (cos theta, sin(theta_i - theta_j), sin theta) (x) dtheta^2],

its quadratic block cut to the products whose rows of the map are not all
zero (PlanarBiped.quad_index, chosen per model).  f @ term_map holds, in
order: D_0 | J | D_q | h0 | Jdot dq | [-(C dq + G)_0; -Jdot dq] | C dq + G |
C dq | G | the CoM Jacobian J_c | p_c | Jdot_c dq | the swing-foot position
and Jacobian.  Its first 50 entries are the (2, 5, 5) pair [D_0; J], D_q
the closed loop solves; L = D_0 dq, v_c = J_c dq and a_c = J_c ddq +
Jdot_c dq give the centroidal columns.  The impact reads D_q, J_c and J_sw
from the same rows, with no second constant, so one evaluation of the
pre-impact state gives every touchdown quantity.  One f, one term_map, one
former: _term_rows forms f and the product for one state or a stack of
states alike; _state_rows is one state's rows with their list of floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import pairwise

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

# f (module docstring): cos theta at _C, sin theta at _S, q at _Q, 1 at _ONE,
# the quadratic block from _QUAD; _NF entries before the block is cut.
_C, _S, _Q, _ONE, _QUAD, _NF = 10, 25, 30, 35, 36, 136
# Entries of f @ term_map.
_D0, _J, _D, _H0, _JDOT, _R, _H, _CVEC, _G, _JC, _PC, _JDOTC, _PSW, _JSW = (
    slice(*ends) for ends in pairwise((0, 5, 25, 50, 54, 58, 63, 68, 73, 78, 88, 90, 92, 94, 104))
)


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
        self.b_sw_floats = self.b_sw.tolist()
        self.M_map = np.tril(np.ones((5, 5)))
        self.M_inv = np.linalg.inv(self.M_map)
        # Output-map coefficients (control.planar_outputs):
        # h0 = P_sin sin(theta) + P_cos cos(theta) + P_lin q.
        wm = self.w_vec / self.m_total
        c_rel, zero = wm - self.b_sw, np.zeros(5)
        self.P_sin = np.array([zero, zero, c_rel, zero])
        self.P_cos = np.array([zero, wm, zero, c_rel])
        self.P_lin = np.array([self.M_map[2], zero, zero, zero])
        # theta-reversal (leg swap) expressed on q: R = M^-1 P M.
        P = np.fliplr(np.eye(5))
        self.R_relabel = self.M_inv @ P @ self.M_map
        # Joint torques B_b (5x4) and ankle torque B_a (5,), read-only; row 0
        # of B_b is zero: q0, the stance-ankle angle, is unactuated.
        self.B_b = np.vstack([np.zeros(4), np.eye(4)])
        self.B_a = np.eye(5)[0]
        self.B_b.flags.writeable = self.B_a.flags.writeable = False

        # angle_map_T and term_map of the module docstring, term_map's columns
        # built feature axis first, (_NF, rows) per block, then cut to f's rows.
        M, W, k, p = self.M_map, self.W, np.arange(5), np.arange(10)
        i, j = np.triu_indices(5, 1)
        self.angle_map_T = np.vstack([M[i] - M[j], M]).T.copy()
        # sin theta_k dtheta_k^2 and cos theta_k dtheta_k^2 (t = 15 + k and t = k).
        sin_sq, cos_sq = _QUAD + 5 * (15 + k) + k, _QUAD + 5 * k + k

        def trig_map(P_sin, P_cos):
            """Columns of P_sin sin(theta) + P_cos cos(theta), of its q-Jacobian
            (row-major) and of the Jacobian's Jdot dq."""
            n = len(P_sin)
            value, J, Jdot = np.zeros((_NF, n)), np.zeros((_NF, n, 5)), np.zeros((_NF, n))
            value[_S + k], value[_C + k] = P_sin.T, P_cos.T
            J[_C + k, :, k], J[_S + k, :, k] = P_sin.T, -P_cos.T  # in theta, then through M
            Jdot[sin_sq], Jdot[cos_sq] = -P_sin.T, -P_cos.T
            return value, (J @ M).reshape(_NF, 5 * n), Jdot

        h0, J, Jdot = trig_map(self.P_sin, self.P_cos)
        h0[_Q:_ONE] = self.P_lin.T
        J[_ONE] = self.P_lin.ravel()
        p_c, J_c, Jdot_c = trig_map(np.outer([1.0, 0.0], wm), np.outer([0.0, 1.0], wm))
        p_sw, J_sw, _ = trig_map(np.outer([1.0, 0.0], self.b_sw), np.outer([0.0, 1.0], self.b_sw))
        G_q = trig_map(-self.g * M.T * self.w_vec, np.zeros((5, 5)))[0]
        D_th = np.zeros((_NF, 5, 5))
        D_th[p, i, j] = D_th[p, j, i] = W[i, j]
        D_th[_ONE, k, k] = np.diag(W) + self.inertias
        D_q = (M.T @ D_th @ M).reshape(_NF, 25)
        c_th = np.zeros((_NF, 5))  # C_th dtheta: W_ij sin(theta_i - theta_j) dtheta_j^2 in row i
        c_th[_QUAD + 5 * (5 + p) + j, i], c_th[_QUAD + 5 * (5 + p) + i, j] = W[i, j], -W[i, j]
        c_q = c_th @ M
        cols = (D_q[:, :5], J, D_q, h0, Jdot, -(c_q + G_q)[:, :1], -Jdot, c_q + G_q, c_q, G_q)
        full = np.hstack(cols + (J_c, p_c, Jdot_c, p_sw, J_sw))
        # f keeps the quadratic features f[c] dtheta_k^2 whose rows are not
        # zero, (c, k) in quad_index: c a flat index into f, k into dtheta.
        kept = np.flatnonzero(full[_QUAD:].any(axis=1))
        self.quad_index = _C + kept // 5, kept % 5
        self.term_map = np.vstack([full[:_QUAD], full[_QUAD + kept]])
        for a in (self.angle_map_T, self.term_map, *self.quad_index):
            a.flags.writeable = False

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
    def from_json(cls, doc: dict) -> "PlanarBiped":
        """Build from a parsed JSON object (not text, not a path):

        {"gravity": 9.81,
         "links": {"torso": {"mass":..., "length":..., "com_offset":..., "inertia":...},
                   "stance_thigh": {...}, "stance_shin": {...},
                   "swing_thigh": {...}, "swing_shin": {...}}}
        """
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


# One state's sums on Python floats: dq, ddq lists of 5, rows the list of its
# f @ term_map (_state_rows).  Small sums run in index order.


def _dot(a: list, i: int, b) -> float:
    """a[i:i + 5] . b."""
    return a[i] * b[0] + a[i + 1] * b[1] + a[i + 2] * b[2] + a[i + 3] * b[3] + a[i + 4] * b[4]


def _state_rows(model: PlanarBiped, q, dq):
    """(f @ term_map as an ndarray, its list of floats) of one state, q and
    dq lists or arrays of 5."""
    rows = _term_rows(model, np.asarray(q), np.asarray(dq))
    return rows, rows.tolist()


# _term_rows, _dyn_terms and _checked_solve take one state, q and dq of shape
# (5,), or a stack of N states, (N, 5), and then return a stack of each result.


def _term_rows(model: PlanarBiped, q: np.ndarray, dq: np.ndarray) -> np.ndarray:
    """f @ term_map (the module docstring): every closed-form term at once."""
    lead = q.shape[:-1]
    f = np.empty(lead + (len(model.term_map),))
    a = q.dot(model.angle_map_T)
    np.cos(a, out=f[..., :15])
    np.sin(a, out=f[..., 15:30])
    f[..., _Q:_ONE], f[..., _ONE] = q, 1.0
    dtheta = dq.dot(model.M_map.T)
    c, k = model.quad_index
    np.multiply(f.take(c, axis=-1), (dtheta * dtheta).take(k, axis=-1), out=f[..., _QUAD:])
    return f.dot(model.term_map)


def _dyn_terms(model: PlanarBiped, q: np.ndarray, dq: np.ndarray):
    """(D_q, coriolis vector C_q dq, G_q, rows): rows = f @ term_map holds
    these and the output map, CoM and swing-foot terms, all exact."""
    rows = _term_rows(model, q, dq)
    return rows[..., _D].reshape(q.shape[:-1] + (5, 5)), rows[..., _CVEC], rows[..., _G], rows


def _checked_rows(model: PlanarBiped, name: str, q, dq=None):
    """(rows, dq) of a validated state (dq zero if not given), for the public functions."""
    dq = np.zeros(5) if dq is None else _as_vec5(f"{name}.dq", dq)
    return _term_rows(model, _as_vec5(f"{name}.q", q), dq), dq


def mass_matrix(model: PlanarBiped, q) -> np.ndarray:
    """Pinned 5x5 mass matrix in q coordinates (symmetric positive definite
    for physical parameters)."""
    return _checked_rows(model, "mass_matrix", q)[0][_D].reshape(5, 5)


def coriolis_matrix(model: PlanarBiped, q, dq) -> np.ndarray:
    """Coriolis matrix C_q(q, dq) with the structural property
    dD/dt = C + C^T (so D-dot minus 2C is skew)."""
    q = _as_vec5("coriolis_matrix.q", q)
    dq = _as_vec5("coriolis_matrix.dq", dq)
    theta, dtheta = model.M_map @ q, model.M_map @ dq
    s, c = np.sin(theta), np.cos(theta)
    sin_diff = s[:, None] * c - c[:, None] * s
    C_th = model.W * sin_diff * dtheta[None, :]
    return model.M_map.T @ C_th @ model.M_map


def gravity_vector(model: PlanarBiped, q) -> np.ndarray:
    """Gravity torque vector G_q(q)."""
    return _checked_rows(model, "gravity_vector", q)[0][_G]


def potential_energy(model: PlanarBiped, q) -> float:
    """Gravitational PE with the zero level at the ground plane, m g z_c."""
    return float(model.m_total * model.g * _checked_rows(model, "potential_energy", q)[0][_PC][1])


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


def _checked_solve(D: np.ndarray, rhs: np.ndarray, what: str) -> np.ndarray:
    """x with D x = rhs, for one system, D (n, n) with rhs (n,), or for a
    stack of N systems, D (N, n, n) with rhs (N, n).  Each system must meet
    the relative residual bound.  `what` names the system in an error, which
    names the first failing lane of a stack."""
    lead = D.shape[:-2]
    # np.linalg.solve reads a stack of vectors as one matrix: give each
    # system's vector a column of its own.
    b = rhs[..., None] if lead else rhs
    try:
        x = np.linalg.solve(D, b)
    except np.linalg.LinAlgError:
        bad, why = np.linalg.det(D) == 0, "singular matrix"  # the same LU as the solve's
    else:
        # Cheap residual check to catch silently-garbage solves near singularity,
        # max |D x - b| <= 1e-8 max(|D| |x| + |b|) in each system; a NaN or inf
        # in x fails it.  A residual within 1e-8 max |b| passes without the
        # full scale, which is never smaller.  (A list's all() beats ndarray's.)
        mul, flat = (np.matmul if lead else np.dot), lead + (-1,)
        both = np.abs(np.array((mul(D, x) - b, b))).reshape((2,) + flat)
        res, b_max = np.maximum.reduce(both, -1)
        ok = res <= 1e-8 * b_max
        if not all(ok.ravel().tolist()):
            scale = np.maximum.reduce((mul(np.abs(D), np.abs(x)) + np.abs(b)).reshape(flat), -1)
            ok = res / (scale + 1e-300) <= 1e-8
        if all(ok.ravel().tolist()):
            return x[..., 0] if lead else x
        bad = ~ok
        why = "ill-conditioned solve" if np.isfinite(x[bad]).all() else "non-finite solve result"
    if lead:
        why += f" in lane {np.argmax(bad)} of {lead[0]}"  # the first failing system
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
    return _checked_rows(model, "com_position", q)[0][_PC]


def com_velocity(model: PlanarBiped, q, dq) -> np.ndarray:
    """CoM velocity (x, z)."""
    rows, dq = _checked_rows(model, "com_velocity", q, dq)
    return rows[_JC].reshape(2, 5).dot(dq)


def com_acceleration(model: PlanarBiped, q, dq, ddq) -> np.ndarray:
    """CoM acceleration (x, z) given joint accelerations ddq."""
    q, dq, ddq = (_as_vec5(f"com_acceleration.{n}", v)
                  for n, v in (("q", q), ("dq", dq), ("ddq", ddq)))
    rows = _state_rows(model, q, dq)[1]
    return np.array(_centroidal_terms(model, rows, dq.tolist(), ddq.tolist())[4])


def com_jacobian(model: PlanarBiped, q) -> np.ndarray:
    """2x5 Jacobian of the CoM position w.r.t. q."""
    return _checked_rows(model, "com_jacobian", q)[0][_JC].reshape(2, 5)


def swing_foot_position(model: PlanarBiped, q) -> np.ndarray:
    """Swing-foot (x, z) relative to the stance contact."""
    return _checked_rows(model, "swing_foot_position", q)[0][_PSW]


def swing_foot_velocity(model: PlanarBiped, q, dq) -> np.ndarray:
    """Swing-foot velocity (x, z)."""
    rows, dq = _checked_rows(model, "swing_foot_velocity", q, dq)
    return rows[_JSW].reshape(2, 5).dot(dq)


def swing_foot_jacobian(model: PlanarBiped, q) -> np.ndarray:
    """2x5 Jacobian of the swing-foot position w.r.t. q."""
    return _checked_rows(model, "swing_foot_jacobian", q)[0][_JSW].reshape(2, 5)


def centroidal(model: PlanarBiped, state: BipedState) -> CentroidalState:
    """Centroidal quantities of the pinned model.

    L, the sum of each link's m_i * wedge(p_i, v_i) plus its spin
    I_i * dtheta_i, is the momentum conjugate to the cyclic q0 and is
    computed as such, (D dq)_0; L_c = L - m * wedge(p_c, v_c).
    """
    rows = _state_rows(model, state.q, state.dq)[1]
    p_c, v_c, L, L_c, _ = _centroidal_terms(model, rows, state.dq.tolist())
    return CentroidalState(p_c=np.array(p_c), v_c=np.array(v_c), L=L, L_c=L_c)


def _centroidal_terms(model: PlanarBiped, rows: list, dq: list, ddq: list | None = None):
    """Unchecked kernel of centroidal, com_acceleration and the five-link
    recorder, on one state's floats: (p_c, v_c, L, L_c, a_c), a_c None
    without ddq."""
    jx, jz, (x, z, ax, az) = _JC.start, _JC.start + 5, rows[_PC.start : _JDOTC.stop]
    v_c = _dot(rows, jx, dq), _dot(rows, jz, dq)
    L = _dot(rows, _D0.start, dq)
    L_c = L - model.m_total * wedge((x, z), v_c)
    a_c = None if ddq is None else (_dot(rows, jx, ddq) + ax, _dot(rows, jz, ddq) + az)
    return (x, z), v_c, L, L_c, a_c


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


def _impact_solution(model: PlanarBiped, state_minus: BipedState, rows: list):
    """Solve the rigid impact at the swing foot on the floating-base model.

    Unknowns: post-impact rates (dq, v_base) of the 7-DoF unpinned chain
    plus the (x, z) impulse at the new contact.  The old contact releases (no
    impulse there); the new contact point's velocity is zeroed:

        [M_e  -J^T] [xdot+  ]   [M_e xdot-]        M_e = [D    S^T]
        [J     0  ] [impulse] = [0        ],             [S    m I],

    with S = m J_c (J_c the CoM Jacobian) and J = [J_sw, I] (J_sw the
    swing-foot Jacobian).  D, J_c and J_sw are read from `rows`, the list of
    state_minus's term rows (_state_rows), which hold every other touchdown
    quantity too.

    Raises InfeasibleImpactError if the vertical impulse is negative (the
    ground would have to pull).  Returns (state_plus, impulse) with the legs
    already relabeled.
    """
    q, dq, m = state_minus.q, state_minus.dq, model.m_total
    D, J_c, J_sw = (np.reshape(rows[part], (-1, 5)) for part in (_D, _JC, _JSW))
    S, J = m * J_c, np.hstack([J_sw, np.eye(2)])
    K, rhs = np.zeros((9, 9)), np.zeros(9)
    K[:5, :5], K[5:7, :5], K[:5, 5:7], K[5:7, 5:7] = D, S, S.T, m * np.eye(2)
    K[:7, 7:], K[7:, :7] = -J.T, J
    rhs[:7] = K[:7, :5] @ dq  # M_e [dq; 0]
    sol = _checked_solve(K, rhs, "impact_map")
    dq_plus, impulse = sol[:5], sol[7:9]
    if impulse[1] < -1e-9 * max(1.0, float(np.linalg.norm(impulse))):
        raise InfeasibleImpactError(
            f"impact_map: vertical impulse {impulse[1]:.6e} < 0 "
            "(plastic contact infeasible)",
            impulse=impulse,
        )
    state_plus = BipedState(model.R_relabel @ q, model.R_relabel @ dq_plus)
    return state_plus, impulse


def impact_map(model: PlanarBiped, state_minus: BipedState) -> BipedState:
    """Plastic impact at the swing foot followed by leg relabeling.

    The pre-impact state should satisfy the guard (swing foot at the ground,
    descending); the map itself is defined for any state.  Raises
    InfeasibleImpactError if the computed vertical contact impulse is
    negative (the ground would have to pull).
    """
    rows = _state_rows(model, state_minus.q, state_minus.dq)[1]
    return _impact_solution(model, state_minus, rows)[0]


def guard(model: PlanarBiped, state: BipedState) -> bool:
    """Touchdown guard: swing-foot height <= 0 with negative vertical rate."""
    rows, dq = _checked_rows(model, "guard", state.q, state.dq)
    return bool(rows[_PSW][1] <= 0.0 and rows[_JSW].reshape(2, 5).dot(dq)[1] < 0.0)
