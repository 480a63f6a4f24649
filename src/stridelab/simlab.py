"""Hybrid simulation workbench: fixed-step integration with impact events,
scenario configs, walking controllers, and CSV/JSON artifact emission.

One step loop: `run_scenario` walks ALIP, LIP and five-link scenarios through
the same loop.  Each step sets its L_des target, runs `integrate_step` with
the recorder, performs the foot exchange, and records one ImpactEvent and
the StepRecord built from it.  What differs between plants lives in two
private plant objects (point mass, five-link), each giving the start state,
the step's sample columns and the exchange.

Determinism contract: fixed-step RK4 (default 1e-4 s) with bisection event
refinement (default 1e-9 s), hand-rolled so step placement and event times
are bit-reproducible across runs and platforms.  Reduced plants (ALIP / LIP)
switch steps on the clock at exactly T; they step on Python floats through
pendulum's field cores, in _rk4's operation order (the same bits).  The
five-link plant switches on the touchdown guard, armed from mid-step onward
so liftoff never retriggers it.  Every plant hands the recorder each whole
step at once, after the switch; samples are kept in one float array per
column.

Artifacts: trace.csv (per-sample, the columns of HybridTrace.samples),
per_step.csv (the fields of StepRecord), events.csv, and a scenario.json
sidecar echoing the config plus the sha256 and size of every file, which
write_csv computes as it writes the file in bounded chunks.  Floats are
written with 17 significant digits (lossless round-trip).
"""

from __future__ import annotations

import copy
import hashlib
import io
import json
import math
from array import array
from dataclasses import dataclass, field, fields, replace
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
    _check_placement_finite,
    _finite,
    _io_torque_core,
    _placement_law,
    _reference_rows,
    foot_placement_asymptotic,
    foot_placement_velocity,
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


def _max_duration(plant: str, T: float, step_size: float) -> float:
    """The most steps a scenario of this plant, step duration and RK4 step
    may run within MAX_RK4_STEPS."""
    guard_span = 2.0 if plant == "FIVE_LINK" else 1.0
    return MAX_RK4_STEPS / max(1.0, guard_span * T / step_size)


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
        limit = _max_duration(self.plant, self.gait.T, self.integrator.step_size)
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
    per-step L_des); one instance belongs to exactly one rollout.  For a
    stack of N states stepping in lockstep (lanes) the context is per lane:
    `_h0_start` is (N, 4) and `p_des` is (N,).
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
        if gait.T * gait.T == 0.0:  # the reference's accelerations divide by T * T
            raise ValidationError(
                f"WalkingController: gait.T = {gait.T} is too short: T * T underflows to 0"
            )
        self.model = model
        self.gait = gait
        self.vc = constraints
        self.params = PendulumParams(m=model.m_total, H=constraints.H, g=model.g)
        self.z_profile = z_profile
        self.ankle_fn = ankle_fn
        self.placement_source = placement_source
        self.placement_update = placement_update
        self.L_des = gait.L_des
        self._Kp, self._Kd = constraints.Kp, constraints.Kd
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

    def on_step_start(self, state) -> None:
        """Start a step from a BipedState, or from an (N, 10) stack of
        [q; dq] rows, one per lane."""
        if isinstance(state, BipedState):
            q, dq = state.q, state.dq
        elif np.ndim(state) == 2 and np.shape(state)[1] == 10:
            q, dq = state[:, :5], state[:, 5:]
        else:  # the one check of the shape _reference relies on
            shape = np.shape(state)
            raise ValidationError(f"on_step_start: expected a BipedState or (N, 10), got {shape}")
        terms = bp._dyn_terms(self.model, q, dq)
        h0 = self._h0_start = terms[3][..., bp._H0]
        if self.placement_update == "step_start":
            # Decide the whole step's placement from the fresh post-impact
            # state; the reference curve then stays fixed for the step.
            self.p_des = self._placement(q, dq, terms, 0.0)
        else:
            # refined immediately by the first torque eval
            self.p_des = float(h0[2]) if h0.ndim == 1 else h0[:, 2].copy()

    def _lanes(self, idx) -> "WalkingController":
        """This controller cut to the lanes idx (an index array or mask); an
        int gives the single-state controller of that one lane."""
        lanes = copy.copy(self)
        lanes._h0_start, lanes.p_des = self._h0_start[idx], self.p_des[idx]
        return lanes

    def _placement(self, q: np.ndarray, dq: np.ndarray, terms, tau: float):
        rows, p = terms[3], self.params
        at_dq = (lambda a: a.dot(dq)) if q.ndim == 1 else (lambda a: np.einsum("ni,ni->n", a, dq))
        x_c = rows[..., bp._PC.start]
        remaining = max(self.gait.T - tau, 0.0)
        ell = p.ell
        sh, ch = math.sinh(ell * remaining), math.cosh(ell * remaining)
        if self.placement_source == "v":
            vx = at_dq(rows[..., bp._JC.start : bp._JC.start + 5])  # the CoM Jacobian's x row
            law, gain, des = "foot_placement_velocity", 1.0, self.L_des / (p.m * p.H)
            hat = ell * sh * x_c + ch * vx
        else:
            # momentum conjugate to q0 = L about the contact
            law, gain, des = "foot_placement_asymptotic", p.m * p.H, self.L_des
            hat = p.m * p.H * ell * sh * x_c + ch * at_dq(rows[..., bp._D0])
        _check_placement_finite(law, des)  # the target; T and alpha are GaitCommand's to check
        if not _finite(hat):
            raise GaitFailureError(
                f"{law}: predicted end-of-step value is not finite at tau = {tau:.4f} s"
            )
        p_raw = _placement_law(gain, ell, hat, des, self.gait.T, self.gait.alpha)
        if q.ndim == 1:
            return self._clamp(float(p_raw))
        return np.array([self._clamp(v) for v in p_raw.tolist()])  # lane by lane

    def _clamp(self, p_raw: float) -> float:
        return min(max(p_raw, -self._p_max), self._p_max)

    def _reference(self, s_phase: float, tau: float):
        # on_step_start gave _h0_start its shape and s_phase lies in [0, 1];
        # only p_des, refined as the state moves, can turn bad on the way.
        if not _finite(self.p_des):
            raise ValidationError("virtual_constraint_reference: non-finite p_des")
        T = self.gait.T
        z = (self.vc.H, 0.0, 0.0) if self.z_profile is None else self.z_profile(min(tau, T))
        return _reference_rows(self.vc, T, s_phase, self._h0_start, self.p_des, z)

    def torques_from_terms(self, q, dq, tau, terms, u_a):
        """(u, y, ddq) at in-step time tau, given precomputed dynamics terms;
        ddq is the acceleration under u and the ankle torque u_a."""
        if self.placement_update == "continuous":
            self.p_des = self._placement(q, dq, terms, tau)
        s_phase = min(tau / self.gait.T, 1.0)
        h_d, dh_d, ddh_d = self._reference(s_phase, tau)
        u, ddq, y = _io_torque_core(
            self.model, q, dq, terms, h_d, dh_d, ddh_d, self._Kp, self._Kd, u_a
        )
        return u, y, ddq

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

    def constraints(q):
        """Torso pitch, CoM and swing foot at q, and their 5x5 Jacobian."""
        rows = bp._term_rows(model, q, np.zeros(5))
        f = np.concatenate([[model.M_map[2] @ q], rows[bp._PC], rows[bp._PSW]])
        J = np.vstack([model.M_map[2:3], rows[bp._JC].reshape(2, 5), rows[bp._JSW].reshape(2, 5)])
        return f, J

    for _ in range(60):
        f, J = constraints(q)
        f = f - target
        if np.max(np.abs(f)) < 1e-12:
            break
        try:
            dq_step = np.linalg.solve(J, f)
        except np.linalg.LinAlgError as exc:
            raise NumericalError("assemble_posture: singular posture Jacobian") from exc
        q = q - dq_step
    else:
        raise NumericalError(
            f"assemble_posture: Newton did not converge (residual {np.max(np.abs(f)):.2e})"
        )

    J = constraints(q)[1]
    if swing_foot_velocity is None:
        dq, *_ = np.linalg.lstsq(J[:3], np.array([0.0, *com_velocity]), rcond=None)
        if not np.all(np.isfinite(dq)):
            raise NumericalError("assemble_posture: degenerate velocity Jacobian")
    else:
        try:
            dq = np.linalg.solve(J, np.array([0.0, *com_velocity, *swing_foot_velocity]))
        except np.linalg.LinAlgError as exc:
            raise NumericalError("assemble_posture: singular velocity Jacobian") from exc
    return BipedState(q, dq)


# ---------------------------------------------------------------------------
# integration
# ---------------------------------------------------------------------------


def _five_link_rhs(model, controller, tau, y):
    """Closed-loop derivative (ydot, u, y_out), with u and ddq from one solve
    of the [D_0; J] system.  y is one state [q; dq], or an (N, 10) stack of
    lanes at the same tau, and then each result is stacked."""
    q, dq = y[..., :5], y[..., 5:]
    terms = bp._dyn_terms(model, q, dq)
    u, y_out, ddq = controller.torques_from_terms(q, dq, tau, terms, controller.ankle(tau))
    return np.concatenate([dq, ddq], axis=-1), u, y_out


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


def _swing_z(model, y):
    """Swing-foot height of one state (a float), or of each row of a stack."""
    z = np.cos(y[..., :5].dot(model.M_map.T)).dot(model.b_sw)
    return float(z) if y.ndim == 1 else z


def integrate_step(model, controller, state, T, integrator: IntegratorConfig, recorder=None):
    """Integrate one step; returns (pre-switch state, switch time).

    Five-link (PlanarBiped) plants run closed-loop RK4 and locate the
    touchdown guard crossing by bisection to integrator.event_tolerance; the
    guard is armed at tau >= T/2 (the swing trajectory peaks mid-step).  If no
    impact occurs by 2T a GaitFailureError is raised.  The five-link `state`
    is a BipedState, or an (N, 10) stack of [q; dq] rows (lanes) under a
    controller that holds N lanes' context: the lanes step in lockstep on
    one tau grid, a lane leaves the stack at its own guard crossing, which
    is bisected on that lane alone, and the result is the (N, 10) stack of
    pre-switch states with the (N,) switch times.  Reduced plants (pass
    PendulumParams as `model`, AlipState/LipState as `state`) switch at
    exactly tau = T; `controller` may provide `ankle(tau)` for a disturbance
    torque.  `recorder(taus, y, us, y_out, ydot=None)` is called once per
    step, after the switch, with the whole step: `taus` is the float64
    ndarray of grid times from 0 to the switch time (included), `us` the
    float64 input there and `y` the states.  Five-link: `y` is the (n, 10)
    float64 stack of [q; dq], `us` and `y_out` the (n, 4) torques and output
    errors, and `ydot` the (n, 10) state derivatives, so integrand-exact
    rates need no refactoring downstream; the samples are the first state,
    each accepted grid point and the event.  Reduced: `y` is (xs, vs),
    array('d') of x_c and of L (ALIP) or v_c (LIP), `us` the ankle torque
    (0.0 at tau = 0), `y_out` None and no `ydot`.
    A stack of lanes takes no recorder.
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
    stacked = not isinstance(state, BipedState)
    if stacked and not (np.ndim(state) == 2 and np.shape(state)[1] == 10 and recorder is None):
        raise ValidationError(
            "integrate_step: a five-link state is a BipedState, or an (N, 10) stack "
            "of lanes without a recorder"
        )
    h = cfg.step_size
    tau = 0.0
    y = state if stacked else np.concatenate([state.q, state.dq])
    # The rows of y are the lanes still stepping; lanes[i] is row i's place
    # in the result, which holds each crossed lane's pre-switch state and time.
    lanes = np.arange(len(y) if stacked else 1)
    y_sw, t_sw = np.empty((len(lanes), 10)), np.empty(len(lanes))
    caller = controller  # keeps every lane's p_des; `controller` drops crossed lanes
    rhs, u, y_out = _five_link_rhs(model, controller, tau, y)
    samples = [(tau, y, u, y_out, rhs)]  # the recorder's, in (tau, y, u, y_out, ydot) order
    pz_prev = _swing_z(model, y)
    while tau < 2.0 * T - 1e-12:
        y_next = _rk4_advance(model, controller, tau, y, h, k1=rhs)
        if not np.all(np.isfinite(y_next)):
            raise GaitFailureError(
                f"integrate_step: state diverged at tau = {tau + h:.4f} s"
            )
        tau_next = tau + h
        pz_next = _swing_z(model, y_next)
        if tau_next >= 0.5 * T and np.any(hit := (pz_prev > 0.0) & (pz_next <= 0.0)):
            for i in np.flatnonzero(hit):
                # Bisect the lane's sub-step length until the crossing time is
                # pinned, on that one lane's state.
                lane = controller._lanes(i) if stacked else controller
                y0, k1 = y.reshape(-1, 10)[i], rhs.reshape(-1, 10)[i]
                lo, hi = 0.0, h
                y_hi = y_next.reshape(-1, 10)[i]
                while hi - lo > cfg.event_tolerance:
                    mid = 0.5 * (lo + hi)
                    if not lo < mid < hi:
                        break  # bracket one float wide: the tolerance is below resolution
                    y_mid = _rk4_advance(model, lane, tau, y0, mid, k1=k1)
                    if _swing_z(model, y_mid) <= 0.0:
                        hi, y_hi = mid, y_mid
                    else:
                        lo = mid
                t_event = tau + hi
                rhs_e, u_e, y_out_e = _five_link_rhs(model, lane, t_event, y_hi)
                y_sw[lanes[i]], t_sw[lanes[i]] = y_hi, t_event
                if stacked:
                    caller.p_des[lanes[i]] = lane.p_des  # the placement at the lane's event
            if not stacked:
                if recorder is not None:
                    samples.append((t_event, y_hi, u_e, y_out_e, rhs_e))
                    taus, ys, us, y_outs, ydots = map(np.array, zip(*samples))
                    recorder(taus, ys, us, y_outs, ydot=ydots)
                return BipedState(y_hi[:5], y_hi[5:]), t_event
            keep = ~hit
            if not keep.any():
                return y_sw, t_sw
            lanes, controller = lanes[keep], controller._lanes(keep)
            y_next, pz_next = y_next[keep], pz_next[keep]
        rhs, u, y_out = _five_link_rhs(model, controller, tau_next, y_next)
        if recorder is not None:
            samples.append((tau_next, y_next, u, y_out, rhs))
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
    h = cfg.step_size
    n_full = int(math.floor(T / h + 1e-12))
    taus = np.arange(n_full + 1) * h  # the grid tau = i * h, with i * h's bits
    grid = taus.tolist()
    rem = T - grid[-1]
    passes = [(h, grid[:-1])]
    if rem > 1e-12:  # a last, shorter step lands on T exactly
        passes.append((rem, grid[-1:]))
        taus = np.append(taus, T)
    ankle = controller.ankle if controller is not None else None
    xs, vs = array("d", [x]), array("d", [v])
    for dt, starts in passes:
        # _rk4 on Python floats, operation for operation: the same bits
        h2, h6 = dt / 2.0, dt / 6.0
        stage_u = [(0.0, 0.0, 0.0)] * len(starts) if ankle is None else [
            (ankle(tau), ankle(tau + h2), ankle(tau + dt)) for tau in starts
        ]
        for u1, u2, u4 in stage_u:
            a1, b1 = field(c1, c2, x, v, u1)
            a2, b2 = field(c1, c2, x + h2 * a1, v + h2 * b1, u2)
            a3, b3 = field(c1, c2, x + h2 * a2, v + h2 * b2, u2)
            a4, b4 = field(c1, c2, x + dt * a3, v + dt * b3, u4)
            x = x + h6 * (a1 + 2.0 * a2 + 2.0 * a3 + a4)
            v = v + h6 * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
            xs.append(x)
            vs.append(v)
    if recorder is not None:
        us = np.zeros(len(taus))  # u at tau = 0 is 0.0, as it always was recorded
        if ankle is not None:
            us[1:] = [ankle(tau) for tau in taus[1:].tolist()]
        recorder(taus, (xs, vs), us, None)
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


class _SampleBuffer:
    """Samples kept column by column, one float array per column."""

    def __init__(self, columns):
        self.columns = columns
        self.data = [array("d") for _ in columns]

    def __len__(self) -> int:
        return len(self.data[0])

    def extend(self, columns):  # a block of rows as equal-length float64 columns
        for col, values in zip(self.data, columns):
            col.frombytes(values.tobytes())

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

    columns = ("t", "step", "x_c", "L", "vx_c")

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

    def row(self, taus, y, us, y_out, ydot):
        """The step's columns after t and step, from integrate_step's recorder
        arguments."""
        x, m = map(np.frombuffer, y)
        if self.is_alip:
            return x, m, m / self.mH
        return x, self.mH * m, m

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

    columns = (
        ("t", "step")
        + tuple(f"q{i}" for i in range(5))
        + tuple(f"dq{i}" for i in range(5))
        + ("x_c", "z_c", "vx_c", "vz_c", "L", "L_c", "dL_c")
        + ("y_torso", "y_height", "y_swing_x", "y_swing_z")
        + tuple(f"u{i}" for i in range(1, 5))
    )

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

    def row(self, taus, ys, us, y_outs, ydots):
        """The step's columns after t and step, from integrate_step's recorder
        arguments: a column per name, one row per sample."""
        model = self.model
        # Every recorded y has passed integrate_step's finiteness check, so
        # each sample calls the unchecked kernel.
        terms = [bp._centroidal_terms(model, y[:5], y[5:], a[5:]) for y, a in zip(ys, ydots)]
        p_c, v_c, L, L_c, a_c = map(np.array, zip(*terms))
        ankle = np.array([self.controller.ankle(tau) for tau in taus.tolist()])
        # Analytic rate of the centroidal momentum: differentiate
        # L_c = L - m*wedge(p_c, v_c) using dL/dt = m g x_c + u_a.
        m = model.m_total
        dL_c = m * model.g * p_c[:, 0] + ankle - m * wedge(p_c.T, a_c.T)
        return (*ys.T, *p_c.T, *v_c.T, L, L_c, dL_c, *y_outs.T, *us.T)

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

    def recorder(taus, y, us, y_out, ydot=None):
        head = (t_base + taus, np.full(len(taus), float(k)))
        # The boundary sample at k > 0 is already recorded by the previous step.
        cut = int(k > 0)
        buf.extend(c[cut:] for c in head + plant.row(taus, y, us, y_out, ydot))

    for k in range(config.duration):
        plant.begin_step(state, _step_target(gait, config.l_des_final, config.duration, k + 1))
        n_before = len(buf)
        state_minus, t_imp = integrate_step(
            plant.model, plant.controller, state, gait.T, config.integrator, recorder
        )
        # exchange() returns the event's fields from state_plus on
        state, *exchanged = plant.exchange(state_minus)
        ev = ImpactEvent(k, t_base + t_imp, state_minus, state, *exchanged)
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

    The map takes one state of shape (10,) and returns its image, or a stack
    of k states of shape (k, 10) and returns the (k, 10) stack of their
    images, row for row.  A stack runs as one lockstep integration of k
    lanes, each to its own touchdown; its rows equal the map of each row
    alone to rounding.  Each invocation runs its own controller context
    (fresh per-step state), so the callable is safe to evaluate at perturbed
    points in any order.
    """

    def impact(y: np.ndarray) -> np.ndarray:
        plus = bp.impact_map(model, BipedState(y[:5], y[5:]))
        return np.concatenate([plus.q, plus.dq])

    def step_map(x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        stacked = x.ndim == 2
        if not stacked:
            state = BipedState(x[:5], x[5:])
        elif len(x) and x.shape[1] == 10 and np.all(np.isfinite(x)):
            state = x
        else:
            raise ValidationError(
                f"return map: expected a state (10,) or a finite stack (k, 10), got {x.shape}"
            )
        controller = WalkingController(model, gait, constraints)
        for _ in range(steps_per_return):
            controller.on_step_start(state)
            state_minus, _ = integrate_step(model, controller, state, gait.T, integrator)
            if stacked:
                state = np.array([impact(y) for y in state_minus])
            else:
                state = bp.impact_map(model, state_minus)
        return state if stacked else np.concatenate([state.q, state.dq])

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
    is formatted a block of rows at a time."""
    yield _csv_text([header])
    n = max(1, _CSV_CHUNK_CELLS // max(1, len(header)))  # rows per chunk
    if isinstance(rows, dict):
        cols = [np.asarray(rows[name]) for name in header]
        # "%.17g" % v is format(float(v), ".17g"); stacking rounds ints as float(v)
        row_format = ",".join(["%.17g"] * len(cols)) + "\r\n"
        for i in range(0, max(map(len, cols), default=0), n):
            block = np.column_stack([col[i : i + n] for col in cols])
            yield (row_format * len(block)) % tuple(block.ravel().tolist())
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


def _write_artifacts(config: ScenarioConfig, trace: HybridTrace, out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    files: dict[str, dict] = {}
    if "trace" in config.outputs:
        sha, size = write_csv(out_dir / "trace.csv", list(trace.samples), trace.samples)
        files["trace.csv"] = {"sha256": sha, "bytes": size}
    if "per_step" in config.outputs:
        names = [f.name for f in fields(StepRecord)]
        rows = ([getattr(r, name) for name in names] for r in trace.per_step)
        sha, size = write_csv(out_dir / "per_step.csv", names, rows)
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
