"""Reduced-order pendulum models for planar walking.

Three point-mass models of single-support, all with the stance contact at the
origin of an inertial (x, z) frame, x forward and z up:

  * ALIP  -- constant-height pendulum in (x_c, L) coordinates, where L is the
    angular momentum about the contact point.  Dynamics
        dx_c/dt = L / (m H),      dL/dt = m g x_c + u_a,
    with u_a an optional ankle torque.  L is insensitive to joint-level forces,
    which is the whole reason to prefer it over velocity as a control variable.
  * LIP   -- same pendulum in (x_c, v_c) coordinates, ddx_c = (g/H) x_c.
  * polar -- constant-leg-length nonlinear pendulum in (theta_c, L), used to
    quantify how small the small-angle error actually is over walking ranges.

Sign convention (used package-wide): for planar vectors a = (a_x, a_z),

    wedge(a, b) = a_z * b_x - a_x * b_z,

the out-of-plane component of the 3-D cross product for vectors in the
sagittal plane (with the lateral axis pointing left).  Forward walking --- CoM
moving in +x above the contact --- gives positive angular momentum
L = m * wedge(p_c, v_c), consistent with dL/dt = m g x_c (a CoM ahead of the
contact pumps momentum up).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import ValidationError

__all__ = [
    "PendulumParams",
    "AlipState",
    "LipState",
    "PolarPendulumState",
    "wedge",
    "alip_derivative",
    "alip_transition",
    "lip_derivative",
    "lip_transition",
    "polar_derivative",
    "transfer_angular_momentum",
    "alip_reset",
    "alip_energy",
]


def wedge(a, b) -> float:
    """Planar wedge product a_z*b_x - a_x*b_z for (x, z) vectors.

    This is the single place the sign convention is fixed; every transfer of
    angular momentum between reference points goes through it.
    """
    return a[1] * b[0] - a[0] * b[1]


def _require_finite(name: str, *values: float) -> None:
    for v in values:
        if not math.isfinite(v):
            raise ValidationError(f"{name}: non-finite value {v!r}")


@dataclass(frozen=True)
class PendulumParams:
    """Point-mass pendulum parameters.

    Attributes:
        m: total mass [kg].
        H: nominal CoM height [m].
        g: gravity [m/s^2].
        ell: natural frequency sqrt(g / H) [1/s].  Derived from H and g on
            every construction (replace() included); it is not an argument.
    """

    m: float
    H: float
    g: float = 9.81
    ell: float = field(init=False)

    def __post_init__(self):
        _require_finite("PendulumParams", self.m, self.H, self.g)
        if self.m <= 0 or self.H <= 0 or self.g <= 0:
            raise ValidationError(
                f"PendulumParams: m, H, g must be positive "
                f"(got m={self.m}, H={self.H}, g={self.g})"
            )
        object.__setattr__(self, "ell", math.sqrt(self.g / self.H))


@dataclass(frozen=True)
class AlipState:
    """ALIP state: CoM abscissa x_c [m] relative to the stance contact,
    angular momentum L [kg m^2/s] about the contact, and time-in-step tau [s].
    """

    x_c: float
    L: float
    tau: float = 0.0

    def __post_init__(self):
        _require_finite("AlipState", self.x_c, self.L, self.tau)
        if self.tau < 0:
            raise ValidationError(f"AlipState: tau must be >= 0 (got {self.tau})")


@dataclass(frozen=True)
class LipState:
    """LIP state: CoM abscissa x_c [m] and CoM velocity v_c [m/s]."""

    x_c: float
    v_c: float
    tau: float = 0.0

    def __post_init__(self):
        _require_finite("LipState", self.x_c, self.v_c, self.tau)
        if self.tau < 0:
            raise ValidationError(f"LipState: tau must be >= 0 (got {self.tau})")


@dataclass(frozen=True)
class PolarPendulumState:
    """Constant-leg-length pendulum state.

    Attributes:
        theta_c: leg angle from the upright vertical [rad], positive forward.
            Restricted to |theta_c| < pi/2 (single-support walking range).
        L: angular momentum about the contact [kg m^2/s].
        R: leg length [m].
    """

    theta_c: float
    L: float
    R: float

    def __post_init__(self):
        _require_finite("PolarPendulumState", self.theta_c, self.L, self.R)
        if not abs(self.theta_c) < math.pi / 2:
            raise ValidationError(
                f"PolarPendulumState: |theta_c| must be < pi/2 (got {self.theta_c})"
            )
        if self.R <= 0:
            raise ValidationError(f"PolarPendulumState: R must be > 0 (got {self.R})")


def _point_mass_field(
    c1: float, c2: float, d: float, x: float, v: float, u: float
) -> tuple[float, float]:
    """The ALIP and LIP vector field on plain floats, (x, v)' = (v / c1,
    c2 x + u / d): ALIP (c1, c2, d) = (m H, m g, 1.0), LIP (1.0, g / H, m H);
    division by 1.0 is exact, so each keeps its own bits.  The one place it
    is written, for alip_derivative and lip_derivative; simlab's RK4 inlines
    it, in this operation order."""
    return v / c1, c2 * x + u / d


def alip_derivative(
    params: PendulumParams, s: AlipState, u_a: float = 0.0
) -> tuple[float, float]:
    """Time derivative (dx_c/dt, dL/dt) of the ALIP.

    dx_c/dt = L/(m H); dL/dt = m g x_c + u_a.  The contact force passes
    through the contact point, so only gravity and the ankle torque u_a move L.
    """
    _require_finite("alip_derivative", u_a)
    return _point_mass_field(params.m * params.H, params.m * params.g, 1.0, s.x_c, s.L, u_a)


def lip_derivative(
    params: PendulumParams, s: LipState, u_a: float = 0.0
) -> tuple[float, float]:
    """Time derivative (dx_c/dt, dv_c/dt) of the LIP, the ALIP's twin in
    velocity coordinates: dx_c/dt = v_c; dv_c/dt = (g/H) x_c + u_a/(m H).
    """
    _require_finite("lip_derivative", u_a)
    return _point_mass_field(1.0, params.g / params.H, params.m * params.H, s.x_c, s.v_c, u_a)


def alip_transition(params: PendulumParams, s: AlipState, dt: float) -> AlipState:
    """Closed-form ALIP flow over dt with u_a = 0.

    [x_c; L](t+dt) = A(dt) [x_c; L](t),
    A(dt) = [[cosh(ell dt),            sinh(ell dt)/(m H ell)],
             [m H ell sinh(ell dt),    cosh(ell dt)          ]].

    Nonzero ankle torque has no closed form here; integrate numerically
    (simlab does this with its fixed-step RK4).
    """
    _require_finite("alip_transition", dt)
    if dt < 0:
        raise ValidationError(f"alip_transition: dt must be >= 0 (got {dt})")
    ell = params.ell
    mHl = params.m * params.H * ell
    ch = math.cosh(ell * dt)
    sh = math.sinh(ell * dt)
    return AlipState(
        x_c=ch * s.x_c + sh / mHl * s.L,
        L=mHl * sh * s.x_c + ch * s.L,
        tau=s.tau + dt,
    )


def lip_transition(params: PendulumParams, s: LipState, dt: float) -> LipState:
    """Closed-form LIP flow over dt: ddx_c = (g/H) x_c.

    [x_c; v_c](t+dt) = [[cosh(ell dt), sinh(ell dt)/ell],
                        [ell sinh(ell dt), cosh(ell dt)]] [x_c; v_c](t).
    """
    _require_finite("lip_transition", dt)
    if dt < 0:
        raise ValidationError(f"lip_transition: dt must be >= 0 (got {dt})")
    ell = params.ell
    ch = math.cosh(ell * dt)
    sh = math.sinh(ell * dt)
    return LipState(
        x_c=ch * s.x_c + sh / ell * s.v_c,
        v_c=ell * sh * s.x_c + ch * s.v_c,
        tau=s.tau + dt,
    )


def polar_derivative(
    s: PolarPendulumState,
    params: PendulumParams,
    u_a: float = 0.0,
    linear_gain: float | None = None,
) -> tuple[float, float]:
    """Time derivative (dtheta_c/dt, dL/dt) of the constant-length pendulum.

    dtheta_c/dt = L/(m R^2); dL/dt = m g R sin(theta_c) + u_a.

    With linear_gain=K the gravity torque is replaced by m g R K theta_c --
    the small-angle surrogate used to measure how well a single constant gain
    K covers a walking angle range.  K=1 with R=H makes the model an ALIP in
    the coordinate x_c = R theta_c.
    """
    _require_finite("polar_derivative", u_a)
    dtheta = s.L / (params.m * s.R * s.R)
    if linear_gain is None:
        dL = params.m * params.g * s.R * math.sin(s.theta_c) + u_a
    else:
        dL = params.m * params.g * s.R * linear_gain * s.theta_c + u_a
    return dtheta, dL


def transfer_angular_momentum(L1: float, p_2to1, v_c, m: float) -> float:
    """Angular momentum about point 2 given momentum L1 about point 1.

    L2 = L1 + m * wedge(p_2to1, v_c), where p_2to1 = p1 - p2 is the planar
    vector from the new reference point to the old one and v_c is the CoM
    velocity.  Pure kinematic identity -- same motion, different reference.
    """
    _require_finite("transfer_angular_momentum", L1, m)
    return L1 + m * wedge(p_2to1, v_c)


def alip_reset(
    s_minus: AlipState, p_sw_x: float, p_st_x: float, v_z: float, m: float
) -> AlipState:
    """Discrete ALIP update at foot exchange on level ground.

    Arguments p_sw_x and p_st_x are the CoM positions relative to the swing
    (about-to-be-stance) and stance feet at touchdown, i.e. x-components of
    the foot-to-CoM vectors.  The CoM state is continuous; only the reference
    point for L moves, from the old contact to the new one:

        L+ = L- + m * wedge(p_new_to_old, v_c),
        p_new_to_old = (p_sw_x - p_st_x, 0)  on level ground,
        v_c = (v_x, v_z)
        =>  L+ = L- - m * v_z * (p_sw_x - p_st_x).

    With v_z = 0 (height held constant) L is continuous across the exchange.
    The new abscissa is measured from the new contact: x_c+ = p_sw_x.
    """
    _require_finite("alip_reset", p_sw_x, p_st_x, v_z, m)
    L_plus = s_minus.L - m * v_z * (p_sw_x - p_st_x)
    return AlipState(x_c=p_sw_x, L=L_plus, tau=0.0)


def alip_energy(params: PendulumParams, s: AlipState) -> float:
    """Conserved quantity of the unforced ALIP:
    E = L^2/(2 m H) - (m g / 2) x_c^2.  Constant along alip_transition flows.
    """
    return s.L * s.L / (2.0 * params.m * params.H) - 0.5 * params.m * params.g * s.x_c * s.x_c
