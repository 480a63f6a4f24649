"""Hybrid simulation workbench: fixed-step integration with impact events,
scenario configs, walking controllers, and CSV/JSON artifact emission.

One step loop: `run_scenario` walks ALIP, LIP and five-link scenarios through
the same loop.  Each step sets its L_des target, runs `integrate_step` with
the sample recorder, performs the foot exchange, and records one ImpactEvent
and the StepRecord built from it.  What differs between plants lives in two
private plant objects (point mass, five-link), each giving the start state,
the sample row and the exchange.

Determinism contract: fixed-step RK4 (default 1e-4 s) with bisection event
refinement (default 1e-9 s), hand-rolled so step placement and event times
are bit-reproducible across runs and platforms.  Reduced plants (ALIP / LIP)
switch steps on the clock at exactly T; they step on Python floats through
pendulum's field cores, in _rk4's operation order (the same bits, no array
per step).  The five-link plant switches on the touchdown guard, armed from
mid-step onward so liftoff never retriggers it.  Samples are kept in one
float array per column.

Artifacts: trace.csv (per-sample), per_step.csv, events.csv, and a
scenario.json sidecar echoing the config plus the sha256 and size of every
file, which write_csv computes as it writes the file in bounded chunks.
Floats are written with 17 significant digits (lossless round-trip).
"""

from __future__ import annotations

import hashlib
import io
import json
import math
from array import array
from dataclasses import dataclass, field, replace
from itertools import islice
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from . import biped as bp
from ._fields import Config, check_fields
from .biped import BipedState, PlanarBiped
from .control import (
    GaitCommand,
    VirtualConstraintSpec,
    _io_torque_core,
    foot_placement_asymptotic,
    foot_placement_velocity,
    planar_outputs,
)
from .errors import GaitFailureError, NumericalError, ValidationError
from .pendulum import AlipState, LipState, PendulumParams, alip_reset, wedge
from .pendulum import _alip_field, _lip_field

__all__ = [
    "IntegratorConfig",
    "ScenarioConfig",
    "ImpactEvent",
    "StepRecord",
    "HybridTrace",
    "SineHeightProfile",
    "WalkingController",
    "assemble_posture",
    "integrate_step",
    "run_scenario",
    "make_five_link_return_map",
    "lip_vs_alip_comparison",
    "write_csv",
]

_PLANTS = ("ALIP", "LIP", "FIVE_LINK")
_ARTIFACTS = ("trace", "per_step", "events")

# The most RK4 steps a scenario may imply: duration * T / step_size, doubled
# for the five-link plant, whose guard search may run to 2T.  Ten million is
# over 30x the largest scenario in the tests, CLI defaults and benchmark.
MAX_RK4_STEPS = 10_000_000


def _check_placement(owner: str, source: str, update: str) -> None:
    """The one check of the placement options, for configs and controllers."""
    if source not in ("L", "v"):
        raise ValidationError(
            f"{owner}.placement_source: must be 'L' or 'v' (got {source!r})"
        )
    if update not in ("continuous", "step_start"):
        raise ValidationError(
            f"{owner}.placement_update: must be 'continuous' or 'step_start' "
            f"(got {update!r})"
        )


@dataclass(frozen=True)
class IntegratorConfig(Config):
    """Fixed-step RK4 settings: step_size [s] and the bisection tolerance on
    the impact time [s].  event_tolerance must be smaller than step_size."""

    step_size: float = 1e-4
    event_tolerance: float = 1e-9

    def __post_init__(self):
        check_fields(self)
        if not 0.0 < self.event_tolerance < self.step_size:
            raise ValidationError(
                "IntegratorConfig: need 0 < event_tolerance < step_size (got "
                f"event_tolerance={self.event_tolerance}, step_size={self.step_size})"
            )


@dataclass(frozen=True)
class ScenarioConfig(Config):
    """Everything needed to reproduce a rollout.

    Attributes:
        plant: "ALIP", "LIP", or "FIVE_LINK".
        gait: per-step command (L_des, T, alpha, ...).
        constraints: virtual-constraint geometry/gains (five-link tracking).
        duration: number of steps (0 allowed: empty trace, header-only CSVs).
        integrator: RK4/event settings.
        seed: RNG seed echoed into artifacts (rollouts themselves are
            deterministic; the seed feeds noise-using demos).
        outputs: artifact names to write, subset of {trace, per_step, events}.
        initial_velocity: starting CoM x-velocity [m/s]; default = the
            commanded speed L_des/(m H).
        initial_com_x: starting CoM abscissa relative to the stance contact
            [m]; default = the steady-gait step-start value for the starting
            momentum (pass 0.0 to start centered over the contact).
        l_des_final: if set, L_des ramps linearly to this value across steps.
        ankle_amplitude: stance-ankle disturbance u_a = A sin(2 pi tau / T).
        z_amplitude: if > 0, the commanded CoM height follows
            H + a + a sin(2 pi tau / T - pi/2) each step (five-link only).
        model_doc: optional five-link model document (JSON name "model").
        placement_source: "L" (momentum placement) or "v" (velocity placement).
        placement_update: "continuous" (re-evaluate the placement at every
            torque evaluation) or "step_start" (commit it once per step from
            the fresh post-impact state).
    """

    plant: str
    gait: GaitCommand
    constraints: VirtualConstraintSpec
    duration: int
    integrator: IntegratorConfig = field(default_factory=IntegratorConfig)
    seed: int = 0
    outputs: tuple = _ARTIFACTS
    initial_velocity: float | None = None
    initial_com_x: float | None = None
    l_des_final: float | None = None
    ankle_amplitude: float = 0.0
    z_amplitude: float = 0.0
    model_doc: dict | None = field(default=None, metadata={"json": "model"})
    placement_source: str = "L"
    placement_update: str = "continuous"

    def __post_init__(self):
        check_fields(self)
        if self.plant not in _PLANTS:
            raise ValidationError(
                f"ScenarioConfig.plant: must be one of {_PLANTS} (got {self.plant!r})"
            )
        for name in self.outputs:
            if name not in _ARTIFACTS:
                raise ValidationError(
                    f"ScenarioConfig.outputs: unknown artifact name {name!r} "
                    f"(allowed: {_ARTIFACTS})"
                )
        _check_placement("ScenarioConfig", self.placement_source, self.placement_update)
        if self.z_amplitude < 0:
            raise ValidationError("ScenarioConfig.z_amplitude: must be >= 0")
        guard_span = 2.0 if self.plant == "FIVE_LINK" else 1.0
        limit = MAX_RK4_STEPS / max(1.0, guard_span * self.gait.T / self.integrator.step_size)
        if not 0 <= self.duration <= limit:
            raise ValidationError(
                f"ScenarioConfig.duration: must be in [0, {limit:.0f}] to stay within "
                f"MAX_RK4_STEPS = {MAX_RK4_STEPS} (got {self.duration})"
            )

    @classmethod
    def from_json(cls, doc) -> "ScenarioConfig":
        """Parse a config from a JSON object or the path of a JSON file."""
        if isinstance(doc, (str, Path)):
            doc = json.loads(Path(doc).read_text())
        return super().from_json(doc)

    def build_model(self) -> PlanarBiped:
        return PlanarBiped.from_json(self.model_doc) if self.model_doc else PlanarBiped.default()


@dataclass
class ImpactEvent:
    """One recorded foot exchange: absolute time, pre/post states, momenta
    about old/new contacts, CoM velocity at touchdown, the displacement
    p_2to1 = (old contact - new contact), contact impulse (five-link), and
    the placement in effect."""

    step: int
    t: float
    state_minus: object
    state_plus: object
    L_minus: float
    L_plus: float
    v_c_minus: np.ndarray
    p_2to1: np.ndarray
    impulse: np.ndarray | None
    placement: float


@dataclass
class StepRecord:
    """Per-step summary row."""

    step: int
    t_start: float
    t_end: float
    L_end_minus: float
    L_start_plus: float
    placement: float
    mean_vx: float


@dataclass
class HybridTrace:
    """Sampled rollout: column arrays in `samples`, impact `events`, and
    `per_step` summaries.  Column sets: reduced plants (t, step, x_c, L,
    vx_c); five-link adds q/dq, CoM z and vz, L_c, output errors y*, torques
    u*."""

    samples: dict
    events: list
    per_step: list
    meta: dict


@dataclass(frozen=True)
class SineHeightProfile:
    """Commanded CoM height z(tau) = H + a + a sin(2 pi tau / T - pi/2):
    one oscillation per step, starting each step at the minimum H."""

    H: float
    amplitude: float
    T: float

    def __call__(self, tau: float) -> tuple[float, float, float]:
        w = 2.0 * math.pi / self.T
        ph = w * tau - math.pi / 2.0
        a = self.amplitude
        return (
            self.H + a + a * math.sin(ph),
            a * w * math.cos(ph),
            -a * w * w * math.sin(ph),
        )


# ---------------------------------------------------------------------------
# walking controller (five-link stance phase)
# ---------------------------------------------------------------------------


class WalkingController:
    """Stance-phase controller: momentum-based foot placement feeding the
    four-output virtual-constraint tracker.

    Holds the per-step context (step-start outputs, current placement target,
    per-step L_des); one instance belongs to exactly one rollout.
    """

    def __init__(
        self,
        model: PlanarBiped,
        gait: GaitCommand,
        constraints: VirtualConstraintSpec,
        z_profile: Callable[[float], Sequence[float]] | None = None,
        ankle_fn: Callable[[float], float] | None = None,
        placement_source: str = "L",
        placement_update: str = "continuous",
    ):
        _check_placement("WalkingController", placement_source, placement_update)
        self.model = model
        self.gait = gait
        self.vc = constraints
        self.params = PendulumParams(m=model.m_total, H=constraints.H, g=model.g)
        self.z_profile = z_profile
        self.ankle_fn = ankle_fn
        self.placement_source = placement_source
        self.placement_update = placement_update
        self.L_des = gait.L_des
        self._Kp = np.diag(constraints.Kp)
        self._Kd = np.diag(constraints.Kd)
        self._h0_start = np.zeros(4)
        self.p_des = 0.0
        # Kinematic workspace clamp on the placement target: the swing foot
        # cannot land beyond the leg's reach from the hip (which rides a
        # little above the CoM for humanoid mass splits).  Keeps transient
        # corrections from demanding a fully straightened knee, where the
        # output decoupling matrix degenerates.
        leg_reach = 0.97 * (model.thigh.length + model.shin.length)
        hip_z = constraints.H + 0.08
        self._p_max = math.sqrt(max(leg_reach * leg_reach - hip_z * hip_z, 1e-6))

    def set_target(self, L_des: float) -> None:
        self.L_des = float(L_des)

    def on_step_start(self, state: BipedState) -> None:
        h0, _ = planar_outputs(self.model, state.q)
        self._h0_start = h0.copy()
        if self.placement_update == "step_start":
            # Decide the whole step's placement from the fresh post-impact
            # state; the reference curve then stays fixed for the step.
            terms = bp._dyn_terms(self.model, state.q, state.dq)
            self.p_des = self._placement(state.q, state.dq, terms, 0.0)
        else:
            self.p_des = float(h0[2])  # refined immediately by the first torque eval

    def _placement(self, q: np.ndarray, dq: np.ndarray, terms, tau: float) -> float:
        D_q = terms[0]
        _, s, c, dtheta = terms[3]
        p = self.params
        x_c = float(self.model.w_vec @ s) / self.model.m_total
        remaining = max(self.gait.T - tau, 0.0)
        ell = p.ell
        sh, ch = math.sinh(ell * remaining), math.cosh(ell * remaining)
        if self.placement_source == "v":
            vx = float(self.model.w_vec @ (c * dtheta)) / self.model.m_total
            v_hat = ell * sh * x_c + ch * vx
            v_des = self.L_des / (p.m * p.H)
            return self._clamp(
                foot_placement_velocity(p, v_hat, v_des, self.gait.T, self.gait.alpha)
            )
        L = float(D_q[0] @ dq)  # momentum conjugate to q0 = L about the contact
        L_hat = p.m * p.H * ell * sh * x_c + ch * L
        return self._clamp(
            foot_placement_asymptotic(p, L_hat, self.L_des, self.gait.T, self.gait.alpha)
        )

    def _clamp(self, p_raw: float) -> float:
        return min(max(p_raw, -self._p_max), self._p_max)

    def _reference(self, s_phase: float, tau: float):
        from .control import virtual_constraint_derivatives

        h_d, dh_d, ddh_d = virtual_constraint_derivatives(
            self.vc, self.gait, s_phase, self._h0_start, self.p_des
        )
        if self.z_profile is not None:
            z, dz, ddz = self.z_profile(min(tau, self.gait.T))[:3]
            h_d = h_d.copy()
            dh_d = dh_d.copy()
            ddh_d = ddh_d.copy()
            h_d[1], dh_d[1], ddh_d[1] = z, dz, ddz
        return h_d, dh_d, ddh_d

    def torques_from_terms(self, q, dq, tau, terms):
        """(u, y, X) at in-step time tau, given precomputed dynamics terms.
        X is the mass-matrix solve block reused by the plant derivative."""
        if self.placement_update == "continuous":
            self.p_des = self._placement(q, dq, terms, tau)
        s_phase = min(tau / self.gait.T, 1.0)
        h_d, dh_d, ddh_d = self._reference(s_phase, tau)
        u, X, y, _dy = _io_torque_core(
            self.model, q, dq, terms, h_d, dh_d, ddh_d, self._Kp, self._Kd
        )
        return u, y, X

    def ankle(self, tau: float) -> float:
        return float(self.ankle_fn(tau)) if self.ankle_fn is not None else 0.0


# ---------------------------------------------------------------------------
# posture assembly (initial conditions)
# ---------------------------------------------------------------------------


def _two_link_ik(hip, foot, l_th, l_sh):
    """Absolute (thigh, shin) angles for a leg from foot to hip, knee bent
    forward (+x).  Raises NumericalError if the target is out of reach."""
    w = np.asarray(hip, dtype=float) - np.asarray(foot, dtype=float)
    r = float(np.hypot(w[0], w[1]))
    if not abs(l_th - l_sh) + 1e-9 <= r <= l_th + l_sh - 1e-9:  # NaN fails too
        raise NumericalError(f"_two_link_ik: hip-foot distance {r:.4f} unreachable")
    phi = math.atan2(w[0], w[1])
    cos_a = (l_sh * l_sh + r * r - l_th * l_th) / (2.0 * l_sh * r)
    a = math.acos(max(-1.0, min(1.0, cos_a)))
    theta_shin = phi + a
    knee = np.asarray(foot, dtype=float) + l_sh * np.array(
        [math.sin(theta_shin), math.cos(theta_shin)]
    )
    d = np.asarray(hip, dtype=float) - knee
    theta_thigh = math.atan2(d[0], d[1])
    return theta_thigh, theta_shin


def assemble_posture(
    model: PlanarBiped,
    com_x: float,
    com_z: float,
    swing_foot_x: float,
    swing_foot_z: float = 0.0,
    com_velocity=(0.0, 0.0),
    torso_pitch: float = 0.0,
    swing_foot_velocity=None,
) -> BipedState:
    """Kinematically consistent state: CoM at (com_x, com_z), swing foot at
    (swing_foot_x, swing_foot_z), torso at torso_pitch, stance foot at the
    origin; CoM velocity as given with the torso pitch rate zero.

    With swing_foot_velocity=None (default) the joint rates are the
    minimum-norm solution of the three velocity constraints, which stays
    tame at any walking speed; passing a 2-vector pins the swing-foot
    velocity too (five constraints, exact solve).

    Uses leg IK for the initial guess and Newton iterations on the exact CoM
    constraint.  Raises NumericalError if the posture is unreachable.
    """
    l_th, l_sh = model.thigh.length, model.shin.length
    # Initial guess: hip a bit above the CoM (torso mass pulls the CoM up,
    # legs pull it down; the offset only needs to land in Newton's basin).
    hip_guess = np.array([com_x, com_z + 0.07])
    th1, th0 = _two_link_ik(hip_guess, (0.0, 0.0), l_th, l_sh)
    th4_t, th4_s = _two_link_ik(hip_guess, (swing_foot_x, swing_foot_z), l_th, l_sh)
    theta = np.array([th0, th1, torso_pitch, th4_t, th4_s])
    q = model.M_inv @ theta

    target = np.array([torso_pitch, com_x, com_z, swing_foot_x, swing_foot_z])
    for _ in range(60):
        com = bp.com_position(model, q)
        sw = bp.swing_foot_position(model, q)
        f = np.array([model.M_map[2] @ q, com[0], com[1], sw[0], sw[1]]) - target
        if np.max(np.abs(f)) < 1e-12:
            break
        J = np.vstack(
            [
                model.M_map[2:3, :],
                bp.com_jacobian(model, q),
                bp.swing_foot_jacobian(model, q),
            ]
        )
        try:
            dq_step = np.linalg.solve(J, f)
        except np.linalg.LinAlgError as exc:
            raise NumericalError("assemble_posture: singular posture Jacobian") from exc
        q = q - dq_step
    else:
        raise NumericalError(
            f"assemble_posture: Newton did not converge (residual {np.max(np.abs(f)):.2e})"
        )

    if swing_foot_velocity is None:
        J = np.vstack([model.M_map[2:3, :], bp.com_jacobian(model, q)])
        rates = np.array([0.0, com_velocity[0], com_velocity[1]])
        dq, *_ = np.linalg.lstsq(J, rates, rcond=None)
        if not np.all(np.isfinite(dq)):
            raise NumericalError("assemble_posture: degenerate velocity Jacobian")
    else:
        J = np.vstack(
            [
                model.M_map[2:3, :],
                bp.com_jacobian(model, q),
                bp.swing_foot_jacobian(model, q),
            ]
        )
        rates = np.array(
            [
                0.0,
                com_velocity[0],
                com_velocity[1],
                swing_foot_velocity[0],
                swing_foot_velocity[1],
            ]
        )
        try:
            dq = np.linalg.solve(J, rates)
        except np.linalg.LinAlgError as exc:
            raise NumericalError("assemble_posture: singular velocity Jacobian") from exc
    return BipedState(q, dq)


# ---------------------------------------------------------------------------
# integration
# ---------------------------------------------------------------------------


def _five_link_rhs(model, controller, tau, y):
    """Closed-loop derivative; returns (ydot, u, y_out) sharing one mass-matrix
    solve between controller and plant."""
    q, dq = y[:5], y[5:]
    terms = bp._dyn_terms(model, q, dq)
    u, y_out, X = controller.torques_from_terms(q, dq, tau, terms)
    u_a = controller.ankle(tau)
    ddq = X[:, :4] @ u + X[:, 4] + X[:, 5] * u_a
    return np.concatenate([dq, ddq]), u, y_out


def _rk4(f, tau, y, h, k1=None):
    """One classic RK4 step of dy/dtau = f(tau, y) from (tau, y) by h; a
    negative h steps backward.  k1 = f(tau, y) may be passed in if known."""
    if k1 is None:
        k1 = f(tau, y)
    k2 = f(tau + h / 2.0, y + (h / 2.0) * k1)
    k3 = f(tau + h / 2.0, y + (h / 2.0) * k2)
    k4 = f(tau + h, y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _rk4_advance(model, controller, tau, y, h, k1=None):
    """One RK4 step of the five-link closed loop from (tau, y) by h."""
    return _rk4(lambda t, x: _five_link_rhs(model, controller, t, x)[0], tau, y, h, k1)


def _swing_z(model, y) -> float:
    theta = model.M_map @ y[:5]
    return float(model.b_sw @ np.cos(theta))


def integrate_step(model, controller, state, T, integrator: IntegratorConfig, recorder=None):
    """Integrate one step; returns (pre-switch state, switch time).

    Five-link (PlanarBiped) plants run closed-loop RK4 and locate the
    touchdown guard crossing by bisection to integrator.event_tolerance; the
    guard is armed at tau >= T/2 (the swing trajectory peaks mid-step).  If no
    impact occurs by 2T a GaitFailureError is raised.  Reduced plants (pass
    PendulumParams as `model`, AlipState/LipState as `state`) switch at
    exactly tau = T; `controller` may provide `ankle(tau)` for a disturbance
    torque.  `recorder(tau, y, u, y_out)` is called at every accepted grid
    point after the first (and at the event time); for the five-link plant
    `y` is the state ndarray [q; dq] and the recorder also receives `ydot=`
    (the state derivative at that point, so integrand-exact rates need no
    refactoring downstream); for reduced plants `y` is an (x_c, L) or
    (x_c, v_c) tuple of floats.
    """
    # Divergence is detected by explicit finite/residual checks; silence the
    # overflow warnings numpy would emit on the way there.
    with np.errstate(over="ignore", invalid="ignore"):
        if isinstance(model, PlanarBiped):
            return _integrate_step_five_link(model, controller, state, T, integrator, recorder)
        if isinstance(model, PendulumParams):
            return _integrate_step_reduced(model, controller, state, T, integrator, recorder)
    raise ValidationError(f"integrate_step: unsupported model type {type(model)!r}")


def _integrate_step_five_link(model, controller, state, T, cfg, recorder):
    h = cfg.step_size
    tau = 0.0
    y = np.concatenate([state.q, state.dq])
    rhs, u, y_out = _five_link_rhs(model, controller, tau, y)
    if recorder is not None:
        recorder(tau, y, u, y_out, ydot=rhs, first=True)
    pz_prev = _swing_z(model, y)
    while tau < 2.0 * T - 1e-12:
        y_next = _rk4_advance(model, controller, tau, y, h, k1=rhs)
        if not np.all(np.isfinite(y_next)):
            raise GaitFailureError(
                f"integrate_step: state diverged at tau = {tau + h:.4f} s"
            )
        tau_next = tau + h
        pz_next = _swing_z(model, y_next)
        armed = tau_next >= 0.5 * T and pz_prev > 0.0
        if armed and pz_next <= 0.0:
            # Bisect the sub-step length until the crossing time is pinned.
            lo, hi = 0.0, h
            y_hi = y_next
            while hi - lo > cfg.event_tolerance:
                mid = 0.5 * (lo + hi)
                if not lo < mid < hi:
                    break  # bracket one float wide: the tolerance is below resolution
                y_mid = _rk4_advance(model, controller, tau, y, mid, k1=rhs)
                if _swing_z(model, y_mid) <= 0.0:
                    hi, y_hi = mid, y_mid
                else:
                    lo = mid
            t_event = tau + hi
            rhs_e, u_e, y_out_e = _five_link_rhs(model, controller, t_event, y_hi)
            if recorder is not None:
                recorder(t_event, y_hi, u_e, y_out_e, ydot=rhs_e)
            return BipedState(y_hi[:5], y_hi[5:]), t_event
        rhs, u, y_out = _five_link_rhs(model, controller, tau_next, y_next)
        if recorder is not None:
            recorder(tau_next, y_next, u, y_out, ydot=rhs)
        tau, y, pz_prev = tau_next, y_next, pz_next
    raise GaitFailureError(
        f"integrate_step: no impact within 2T = {2 * T:.3f} s (gait failure)"
    )


def _integrate_step_reduced(params, controller, state, T, cfg, recorder):
    m, H, g = params.m, params.H, params.g
    if isinstance(state, AlipState):
        field, c1, c2, x, v = _alip_field, m * H, m * g, state.x_c, state.L
    elif isinstance(state, LipState):
        field, c1, c2, x, v = _lip_field, g / H, m * H, state.x_c, state.v_c
    else:
        raise ValidationError(
            f"integrate_step: reduced state must be AlipState or LipState "
            f"(got {type(state)!r})"
        )
    ankle = controller.ankle if controller is not None else (lambda tau: 0.0)

    def rk4(tau, x, v, h):
        # _rk4 on Python floats, operation for operation: the same bits
        h2 = h / 2.0
        u2 = ankle(tau + h2)
        a1, b1 = field(c1, c2, x, v, ankle(tau))
        a2, b2 = field(c1, c2, x + h2 * a1, v + h2 * b1, u2)
        a3, b3 = field(c1, c2, x + h2 * a2, v + h2 * b2, u2)
        a4, b4 = field(c1, c2, x + h * a3, v + h * b3, ankle(tau + h))
        h6 = h / 6.0
        return x + h6 * (a1 + 2.0 * a2 + 2.0 * a3 + a4), v + h6 * (b1 + 2.0 * b2 + 2.0 * b3 + b4)

    h = cfg.step_size
    n_full = int(math.floor(T / h + 1e-12))
    tau = 0.0
    if recorder is not None:
        recorder(tau, (x, v), 0.0, None, first=True)
    for i in range(n_full):
        x, v = rk4(tau, x, v, h)
        tau = (i + 1) * h
        if recorder is not None:
            recorder(tau, (x, v), ankle(tau), None)
    rem = T - tau
    if rem > 1e-12:
        x, v = rk4(tau, x, v, rem)
        if recorder is not None:
            recorder(T, (x, v), ankle(T), None)
    if not (math.isfinite(x) and math.isfinite(v)):
        raise GaitFailureError(f"integrate_step: state diverged within the step (T = {T} s)")
    return type(state)(float(x), float(v), state.tau), T


# ---------------------------------------------------------------------------
# scenario runner
# ---------------------------------------------------------------------------


def _step_target(gait: GaitCommand, l_des_final, duration: int, k: int) -> float:
    """L_des commanded for the end of step k (linear ramp if configured)."""
    if l_des_final is None or duration <= 0:
        return gait.L_des
    frac = min(k, duration) / duration
    return gait.L_des + (l_des_final - gait.L_des) * frac


_REDUCED_COLS = ("t", "step", "x_c", "L", "vx_c")
_FIVE_COLS = (
    ("t", "step")
    + tuple(f"q{i}" for i in range(5))
    + tuple(f"dq{i}" for i in range(5))
    + ("x_c", "z_c", "vx_c", "vz_c", "L", "L_c", "dL_c")
    + ("y_torso", "y_height", "y_swing_x", "y_swing_z")
    + tuple(f"u{i}" for i in range(1, 5))
)


class _SampleBuffer:
    """Samples kept column by column, one float array per column."""

    def __init__(self, columns):
        self.columns = columns
        self.data = [array("d") for _ in columns]
        self._appends = [col.append for col in self.data]

    def __len__(self) -> int:
        return len(self.data[0])

    def append(self, row):
        for append, v in zip(self._appends, row):
            append(v)

    def column(self, name: str, start: int = 0) -> np.ndarray:
        return np.array(self.data[self.columns.index(name)][start:])

    def as_dict(self) -> dict:
        return {c: np.array(col) for c, col in zip(self.columns, self.data)}


def _ankle_fn(config: ScenarioConfig) -> Callable[[float], float] | None:
    """The stance-ankle disturbance u_a = A sin(2 pi tau / T); None if A = 0."""
    A, T = config.ankle_amplitude, config.gait.T
    return (lambda tau: A * math.sin(2.0 * math.pi * tau / T)) if A else None


def _steady_start(config: ScenarioConfig, params: PendulumParams) -> tuple[float, float, float]:
    """(x_c0, v0, x_c_end): starting CoM abscissa and x-velocity, and the
    abscissa the unforced ALIP reaches from them at T.  v0 defaults to the
    commanded speed L_des/(m H); x_c0 defaults to the step-start abscissa of
    the steady gait whose steps begin and end at momentum m H v0.  Raises
    NumericalError, naming the config fields, if the start overflows."""
    mH = params.m * params.H
    v0 = config.initial_velocity
    if v0 is None:
        v0 = config.gait.L_des / mH
    L0 = mH * v0
    ell, T = params.ell, config.gait.T
    try:
        ch, sh = math.cosh(ell * T), math.sinh(ell * T)
    except OverflowError:
        ch = sh = math.inf
    if config.initial_com_x is not None:
        x_c0 = config.initial_com_x
    elif L0 == 0:
        x_c0 = 0.0  # the formula below gives -0.0, written to CSV as "-0"
    else:
        x_c0 = (1.0 - ch) * L0 / (mH * ell * sh)
    x_c_end = ch * x_c0 + sh * L0 / (mH * ell)
    if not all(math.isfinite(v) for v in (ch, L0, x_c0, x_c_end)):
        raise NumericalError(
            f"start state overflows (x_c0 = {x_c0}, L0 = {L0}, cosh(ell T) = {ch}): "
            f"initial_velocity, constraints.H or gait.T out of range"
        )
    return x_c0, v0, x_c_end


class _PointMassPlant:
    """ALIP or LIP: the step switches on the clock at T, and the placement
    law picks the landing point at the exchange from the pre-impact state."""

    columns = _REDUCED_COLS

    def __init__(self, config: ScenarioConfig):
        model = config.build_model()
        self.config = config
        self.params = PendulumParams(m=model.m_total, H=config.constraints.H, g=model.g)
        self.model = self.params  # what integrate_step integrates
        self.mH = self.params.m * self.params.H
        self.is_alip = config.plant == "ALIP"
        self.ankle_fn = _ankle_fn(config)
        # integrate_step reads the disturbance from the controller's ankle(tau)
        self.controller = self if self.ankle_fn else None
        self.L_des = config.gait.L_des

    def ankle(self, tau: float) -> float:
        return self.ankle_fn(tau)

    def start(self):
        x_c0, v0, _ = _steady_start(self.config, self.params)
        return AlipState(x_c=x_c0, L=self.mH * v0) if self.is_alip else LipState(x_c=x_c0, v_c=v0)

    def begin_step(self, state, L_des: float) -> None:
        self.L_des = L_des

    def row(self, tau, y, u, y_out, ydot):
        if self.is_alip:
            return y[0], y[1], y[1] / self.mH
        return y[0], self.mH * y[1], y[1]

    def exchange(self, s):
        gait, mH = self.config.gait, self.mH
        if self.is_alip:
            L = s.L
            v = L / mH
        else:
            v = s.v_c
            L = mH * v
        # The placement law follows placement_source on either plant; on a
        # point mass L = m H v exactly, so the two laws coincide.
        if self.config.placement_source == "L":
            p = foot_placement_asymptotic(self.params, L, self.L_des, gait.T, gait.alpha)
        else:
            p = foot_placement_velocity(self.params, v, self.L_des / mH, gait.T, gait.alpha)
        if not math.isfinite(p):
            raise GaitFailureError(f"foot placement overflowed (p = {p})")
        if self.is_alip:
            plus = alip_reset(s, p_sw_x=p, p_st_x=s.x_c, v_z=0.0, m=self.params.m)
            L_plus = plus.L
        else:
            plus, L_plus = LipState(x_c=p, v_c=v), L
        return plus, L, L_plus, np.array([v, 0.0]), np.array([p - s.x_c, 0.0]), None, p


class _FiveLinkPlant:
    """The five-link biped under WalkingController: the step ends on the
    touchdown guard, and the impact map gives the post-impact state."""

    columns = _FIVE_COLS

    def __init__(self, config: ScenarioConfig):
        gait, vc = config.gait, config.constraints
        self.config = config
        self.model = config.build_model()
        z_profile = (
            SineHeightProfile(vc.H, config.z_amplitude, gait.T) if config.z_amplitude else None
        )
        self.controller = WalkingController(
            self.model,
            gait,
            vc,
            z_profile=z_profile,
            ankle_fn=_ankle_fn(config),
            placement_source=config.placement_source,
            placement_update=config.placement_update,
        )
        self.params = self.controller.params

    def start(self) -> BipedState:
        x_c0, v0, x_c_end = _steady_start(self.config, self.params)
        swing_x = x_c0 - x_c_end  # previous stance foot, now swing, in stance frame
        if abs(swing_x) < 0.04:
            swing_x = -0.04
        return assemble_posture(
            self.model,
            com_x=x_c0,
            com_z=self.params.H,
            swing_foot_x=swing_x,
            com_velocity=(v0, 0.0),
        )

    def begin_step(self, state: BipedState, L_des: float) -> None:
        self.controller.set_target(L_des)
        self.controller.on_step_start(state)

    def row(self, tau, y, u, y_out, ydot):
        model = self.model
        q, dq = y[:5], y[5:]
        cs = bp.centroidal(model, BipedState(q, dq))
        # Analytic rate of the centroidal momentum: differentiate
        # L_c = L - m*wedge(p_c, v_c) using dL/dt = m g x_c + u_a.
        a_c = bp.com_acceleration(model, q, dq, ydot[5:])
        dL_c = (
            model.m_total * model.g * cs.p_c[0]
            + self.controller.ankle(tau)
            - model.m_total * wedge(cs.p_c, a_c)
        )
        return (
            tuple(q)
            + tuple(dq)
            + (cs.p_c[0], cs.p_c[1], cs.v_c[0], cs.v_c[1], cs.L, cs.L_c, dL_c)
            + tuple(y_out)
            + tuple(u)
        )

    def exchange(self, s: BipedState):
        model = self.model
        cs_minus = bp.centroidal(model, s)
        plus, impulse = bp._impact_solution(model, s)
        p_sw = bp.swing_foot_position(model, s.q)
        return (
            plus,
            float(cs_minus.L),
            float(bp.centroidal(model, plus).L),
            cs_minus.v_c.copy(),
            np.array([-p_sw[0], -p_sw[1]]),
            np.asarray(impulse, dtype=float),
            float(self.controller.p_des),
        )


def run_scenario(config: ScenarioConfig, out_dir=None) -> HybridTrace:
    """Execute a scenario and (optionally) write its artifacts.

    Returns the HybridTrace; when out_dir is given, writes the artifacts
    selected in config.outputs plus a scenario.json sidecar with the config
    echo and sha256 checksums.  Same config (and seed) => bit-identical files.
    """
    plant = (_FiveLinkPlant if config.plant == "FIVE_LINK" else _PointMassPlant)(config)
    gait = config.gait
    buf = _SampleBuffer(plant.columns)
    events: list[ImpactEvent] = []
    per_step: list[StepRecord] = []
    state, t_base, k = plant.start(), 0.0, 0

    def recorder(tau, y, u, y_out, ydot=None, first=False):
        if first and k > 0:
            return  # boundary sample already recorded by the previous step
        buf.append((t_base + tau, k) + plant.row(tau, y, u, y_out, ydot))

    for k in range(config.duration):
        plant.begin_step(state, _step_target(gait, config.l_des_final, config.duration, k + 1))
        n_before = len(buf)
        state_minus, t_imp = integrate_step(
            plant.model, plant.controller, state, gait.T, config.integrator, recorder
        )
        # exchange() returns the event's fields from state_plus on
        state, *fields = plant.exchange(state_minus)
        ev = ImpactEvent(k, t_base + t_imp, state_minus, state, *fields)
        events.append(ev)
        step_vx = buf.column("vx_c", n_before)
        mean_vx = float(np.mean(step_vx)) if step_vx.size else 0.0
        per_step.append(
            StepRecord(k, t_base, ev.t, ev.L_minus, ev.L_plus, ev.placement, mean_vx)
        )
        t_base = ev.t
    trace = HybridTrace(
        samples=buf.as_dict(),
        events=events,
        per_step=per_step,
        meta={
            "config": config.to_json_dict(),
            "params": {"m": plant.params.m, "H": plant.params.H},
        },
    )
    if out_dir is not None:
        _write_artifacts(config, trace, Path(out_dir))
    return trace


def make_five_link_return_map(
    model: PlanarBiped,
    gait: GaitCommand,
    constraints: VirtualConstraintSpec,
    integrator: IntegratorConfig,
    steps_per_return: int = 2,
) -> Callable[[np.ndarray], np.ndarray]:
    """The (q, dq) -> (q, dq) return map on the just-after-impact section.

    Each invocation runs its own controller context (fresh per-step state),
    so the callable is safe to evaluate at perturbed points in any order.
    """

    def step_map(x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        state = BipedState(x[:5], x[5:])
        controller = WalkingController(model, gait, constraints)
        for _ in range(steps_per_return):
            controller.on_step_start(state)
            state_minus, _ = integrate_step(model, controller, state, gait.T, integrator)
            state = bp.impact_map(model, state_minus)
        return np.concatenate([state.q, state.dq])

    return step_map


def lip_vs_alip_comparison(config: ScenarioConfig) -> dict:
    """Twin rollouts from one initial condition: momentum-based placement
    ("L") versus velocity-based placement ("v"), same plant, same everything
    else.  Returns per-step placements, mean CoM velocities, end-of-step
    momenta, a per-step placement gap, and the two traces.

    Protocol: both controllers follow the same design — measure the state
    just after impact, predict the end-of-step value of their own model's
    momentum coordinate, and commit the step's placement from it
    (placement_update="step_start").  On the five-link plant the CoM starts
    centered over the contact.  The comparison isolates the choice of
    regulated variable: v_c loses information to the centroidal angular
    momentum at impact, L about the new contact does not.

    The "gap" entry holds, per step, |p("L") - p("v")| with both laws
    evaluated at the SAME post-impact states (those of the momentum-based
    rollout), so it measures pure law disagreement rather than trajectory
    divergence.  On a point-mass plant the gap vanishes identically; on the
    five-link it is positive and scales with the momentum carried by the
    legs.
    """
    if config.plant == "FIVE_LINK" and config.initial_com_x is None:
        # Comparison protocol: start with the CoM centered over the contact.
        config = replace(config, initial_com_x=0.0)
    config = replace(config, placement_update="step_start")
    out: dict = {"plant": config.plant, "summary": {}}
    traces = {}
    for source in ("L", "v"):
        cfg = replace(config, placement_source=source)
        traces[source] = run_scenario(cfg)
    out["traces"] = traces
    for source in ("L", "v"):
        tr = traces[source]
        out["summary"][source] = {
            "placements": [r.placement for r in tr.per_step],
            "mean_vx": [r.mean_vx for r in tr.per_step],
            "L_end": [r.L_end_minus for r in tr.per_step],
        }
    out["gap"] = _placement_gap(config, traces)
    out["mean_gap"] = float(np.mean(out["gap"])) if out["gap"] else 0.0
    return out


def _placement_gap(config: ScenarioConfig, traces: dict) -> list[float]:
    """Per-step |momentum-law placement - velocity-law placement| along the
    step-start states of the momentum-based rollout."""
    trace_L = traces["L"]
    if config.plant != "FIVE_LINK":
        # Point-mass plants evolve identically under either law (L = m H v
        # exactly), so the twin rollouts' states coincide and the recorded
        # placements are directly comparable.
        return [
            abs(a.placement - b.placement)
            for a, b in zip(trace_L.per_step, traces["v"].per_step)
        ]
    twin = _FiveLinkPlant(
        replace(config, placement_source="v", placement_update="step_start")
    )
    states = [twin.start()] + [ev.state_plus for ev in trace_L.events[:-1]]
    gaps = []
    for k, (state, rec) in enumerate(zip(states, trace_L.per_step)):
        target = _step_target(config.gait, config.l_des_final, config.duration, k + 1)
        twin.begin_step(state, target)
        gaps.append(abs(rec.placement - twin.controller.p_des))
    return gaps


# ---------------------------------------------------------------------------
# artifact emission
# ---------------------------------------------------------------------------


_CSV_CHUNK_CELLS = 16384  # cells formatted at a time: bounds the text held in memory


def _csv_text(rows) -> str:
    """Rows as csv.writer writes them, numbers with 17 significant digits."""
    import csv  # here, not at module level, to keep `import stridelab` cheap
    buf = io.StringIO()
    writer = csv.writer(buf)
    for row in rows:
        writer.writerow([v if isinstance(v, str) else format(float(v), ".17g") for v in row])
    return buf.getvalue()


def _chunks(header, rows):
    """The text of a CSV, chunk by chunk.  `rows` is an iterable of rows, or
    a dict of equal-length numeric columns keyed by the header names, which
    is formatted a column at a time."""
    yield _csv_text([header])
    n = max(1, _CSV_CHUNK_CELLS // max(1, len(header)))  # rows per chunk
    if isinstance(rows, dict):
        cols = [np.asarray(rows[name]) for name in header]
        for i in range(0, max(map(len, cols), default=0), n):
            # "%.17g" % v is format(float(v), ".17g") for a number v
            cells = [list(map("%.17g".__mod__, col[i : i + n].tolist())) for col in cols]
            yield "\r\n".join(map(",".join, zip(*cells))) + "\r\n"
        return
    it = iter(rows)
    while chunk := list(islice(it, n)):
        yield _csv_text(chunk)


def write_csv(path, header: Sequence[str], rows) -> tuple[str, int]:
    """Write a CSV (csv.writer layout, floats with 17 significant digits,
    columns in header order) in bounded chunks, hashing as it writes.
    `rows` is an iterable of rows or a dict of columns keyed by the header
    names.  Returns (sha256 hex digest, byte count) of the file."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    digest, size = hashlib.sha256(), 0
    with path.open("wb") as fh:
        for text in _chunks(list(header), rows):
            data = text.encode()
            fh.write(data)
            digest.update(data)
            size += len(data)
    return digest.hexdigest(), size


_EVENT_COLS = (
    "step",
    "t",
    "L_minus",
    "L_plus",
    "vx_c_minus",
    "vz_c_minus",
    "p2to1_x",
    "p2to1_z",
    "impulse_x",
    "impulse_z",
    "placement",
)
_PER_STEP_COLS = (
    "step",
    "t_start",
    "t_end",
    "L_end_minus",
    "L_start_plus",
    "placement",
    "mean_vx",
)


def _write_artifacts(config: ScenarioConfig, trace: HybridTrace, out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    columns = _FIVE_COLS if config.plant == "FIVE_LINK" else _REDUCED_COLS
    files: dict[str, dict] = {}
    if "trace" in config.outputs:
        sha, size = write_csv(out_dir / "trace.csv", columns, trace.samples)
        files["trace.csv"] = {"sha256": sha, "bytes": size}
    if "per_step" in config.outputs:
        sha, size = write_csv(
            out_dir / "per_step.csv",
            _PER_STEP_COLS,
            (
                [r.step, r.t_start, r.t_end, r.L_end_minus, r.L_start_plus, r.placement, r.mean_vx]
                for r in trace.per_step
            ),
        )
        files["per_step.csv"] = {"sha256": sha, "bytes": size}
    if "events" in config.outputs:
        sha, size = write_csv(
            out_dir / "events.csv",
            _EVENT_COLS,
            (
                [
                    e.step,
                    e.t,
                    e.L_minus,
                    e.L_plus,
                    e.v_c_minus[0],
                    e.v_c_minus[1],
                    e.p_2to1[0],
                    e.p_2to1[1],
                    e.impulse[0] if e.impulse is not None else 0.0,
                    e.impulse[1] if e.impulse is not None else 0.0,
                    e.placement,
                ]
                for e in trace.events
            ),
        )
        files["events.csv"] = {"sha256": sha, "bytes": size}
    sidecar = {"config": config.to_json_dict(), "files": files}
    (out_dir / "scenario.json").write_text(json.dumps(sidecar, indent=2, sort_keys=True) + "\n")
