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
sidecar echoing the config plus the sha256 and size of every file.  Every
CSV (the CLI's too) is one write_csv call on numeric columns keyed by header,
written in bounded chunks and hashed as written, floats with 17 significant
digits (lossless round-trip).
"""

from __future__ import annotations

import copy
import functools
import hashlib
import json
import math
from array import array
from dataclasses import dataclass, field, fields, replace
from itertools import accumulate
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from . import biped as bp
from ._fields import Config, check_fields
from .biped import BipedState, PlanarBiped
from .control import (
    GaitCommand,
    VirtualConstraintSpec,
    _finite,
    _io_torque_core,
    _placement_from,
    _placement_terms,
    _reference_rows,
    _reference_terms,
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
        seed: echoed into scenario.json and read by nothing else: every
            rollout is deterministic, and run_scenario draws no random numbers.
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

    Holds the per-step context only (step-start outputs, the placement
    committed under "step_start", per-step L_des and the law's and reference's
    constants formed from it), which no derivative writes; one instance
    belongs to exactly one rollout.  One state runs on floats; for
    a stack of N states stepping in lockstep (lanes, which take no ankle
    torque) the context is per lane: `_h0_start` is (N, 4) and `p_des` (N,).
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
        self._gains = constraints.Kp.tolist(), constraints.Kd.tolist()  # lanes take vc's arrays
        self._h0_start = [0.0] * 4
        self.p_des = None
        # Kinematic workspace clamp on the placement target: the swing foot
        # cannot land beyond the leg's reach from the hip (which rides a
        # little above the CoM for humanoid mass splits).  Keeps transient
        # corrections from demanding a fully straightened knee, where the
        # output decoupling matrix degenerates.
        leg_reach = 0.97 * (model.thigh.length + model.shin.length)
        hip_z = constraints.H + 0.08
        self._p_max = math.sqrt(max(leg_reach * leg_reach - hip_z * hip_z, 1e-6))
        self.set_target(gait.L_des)

    def set_target(self, L_des: float) -> None:
        """Set L_des, and form the step's constants (on_step_start does too)."""
        self.L_des = float(L_des)
        p, T, v = self.params, self.gait.T, self.placement_source == "v"
        gain = 1.0 if v else p.m * p.H  # the law on the CoM x-velocity, or on L
        des = self.L_des / (p.m * p.H) if v else self.L_des
        self._law = _placement_terms(gain, p.ell, des, T, self.gait.alpha)
        self._hat_gain, self._rate_row = gain * p.ell, (bp._JC if v else bp._D0).start
        self._ref, self._z = _reference_terms(self.vc, T), (self.vc.H, 0.0, 0.0)

    def on_step_start(self, state) -> None:
        """Start a step from a BipedState, or from an (N, 10) stack of
        [q; dq] rows, one per lane, which an ankle torque rules out."""
        if isinstance(state, BipedState):
            dq = state.dq.tolist()
            rows = bp._state_rows(self.model, state.q, state.dq)[1]
            self._h0_start = rows[bp._H0]
        elif np.ndim(state) == 2 and np.shape(state)[1] == 10:
            if self.ankle_fn is not None:
                raise ValidationError("on_step_start: a stack of lanes takes no ankle torque")
            dq = state[:, 5:]
            rows = bp._dyn_terms(self.model, state[:, :5], dq)[3]
            self._h0_start = rows[:, bp._H0]
        else:  # the one check of the shape _reference relies on
            shape = np.shape(state)
            raise ValidationError(f"on_step_start: expected a BipedState or (N, 10), got {shape}")
        self.set_target(self.L_des)
        step_start = self.placement_update == "step_start"  # placed once, from this state
        self.p_des = self._placement(rows, dq, 0.0) if step_start else None

    def _lanes(self, idx) -> "WalkingController":
        """This controller cut to the lanes idx (an index array or mask); an
        integer gives the single-state controller of that one lane."""
        lanes, one = copy.copy(self), np.ndim(idx) == 0
        lanes._h0_start = self._h0_start[idx].tolist() if one else self._h0_start[idx]
        if self.p_des is not None:  # committed under "step_start"
            lanes.p_des = float(self.p_des[idx]) if one else self.p_des[idx]
        return lanes

    def placement(self, rows, dq, tau: float):
        """The placement target at in-step time tau: the step's committed
        p_des under "step_start", else the law at the term rows and dq."""
        if self.placement_update == "step_start":
            return self.p_des
        return self._placement(rows, dq, tau)

    def _placement(self, rows, dq, tau: float):
        """The target at in-step time tau from term rows and dq: one state's
        floats, or lanes' arrays."""
        T, ell, one = self.gait.T, self.params.ell, type(dq) is list
        remaining = T - tau if tau < T else 0.0
        sh, ch = math.sinh(ell * remaining), math.cosh(ell * remaining)
        i, j = bp._PC.start, self._rate_row  # rate: L about the contact, or the CoM x-velocity
        if one:
            x_c, rate = rows[i], bp._dot(rows, j, dq)
        else:
            x_c, rate = rows[:, i], np.einsum("ni,ni->n", rows[:, j : j + 5], dq)
        hat = self._hat_gain * sh * x_c + ch * rate
        p_raw = _placement_from(self._law, hat)
        if not _finite(p_raw):  # name a non-finite target, else a non-finite prediction
            v = self.placement_source == "v"
            law = "foot_placement_velocity" if v else "foot_placement_asymptotic"
            if not math.isfinite(self._law[0]):  # (1 - alpha) des: finite with the target
                raise ValidationError(f"{law}: non-finite input")
            if not _finite(hat):
                raise GaitFailureError(
                    f"{law}: predicted end-of-step value is not finite at tau = {tau:.4f} s"
                )
        if one:
            return self._clamp(p_raw)
        return np.minimum(np.maximum(p_raw, -self._p_max), self._p_max)  # _clamp's bits

    def _clamp(self, p_raw: float) -> float:
        return min(max(p_raw, -self._p_max), self._p_max)

    def _reference(self, s_phase: float, tau: float, p_des):
        # on_step_start gave _h0_start its shape, s_phase lies in [0, 1], and
        # p_des is finite: _placement raises on a non-finite prediction and
        # clamps every other target.
        z = self._z if self.z_profile is None else self.z_profile(min(tau, self.gait.T))
        if type(p_des) is float:
            return _reference_rows(self._ref, s_phase, self._h0_start[2], p_des, z)
        rows = _reference_rows(self._ref, s_phase, self._h0_start[:, 2], p_des, z)
        out = np.array([(a, b, 0.0, d) for a, b, _, d in rows])[..., None].repeat(len(p_des), -1)
        out[:, 2] = [row[2] for row in rows]  # the swing-x arrays
        return out.transpose(0, 2, 1)  # the (3, N, 4) stack of the lanes' rows

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


def _five_link_rhs(model, controller, tau, y, with_u=True):
    """Closed-loop derivative (ydot, u, y_out, rows), with u and ddq from one
    solve of the [D_0; J] system, and rows the term rows of y; u is None when
    with_u is False (an RK4 stage).  y is one state [q; dq], a list of 10
    floats giving lists, or an (N, 10) stack of lanes at one tau giving arrays;
    pure in (tau, y) under the controller's step context and integrate_step's errstate."""
    one = type(y) is list
    q, dq = (y[:5], y[5:]) if one else (y[:, :5], y[:, 5:])
    terms = (bp._state_rows if one else bp._dyn_terms)(model, q, dq)
    p_des = controller.placement(terms[-1], dq, tau)
    s_phase = min(tau / controller.gait.T, 1.0)
    refs = controller._reference(s_phase, tau, p_des)  # h_d, dh_d and ddh_d
    Kp, Kd = controller._gains if one else (controller.vc.Kp, controller.vc.Kd)
    u, ddq, y_out = _io_torque_core(dq, terms, *refs, Kp, Kd, controller.ankle(tau), with_u)
    ydot = dq + ddq if one else np.concatenate([dq, ddq], axis=-1)
    return ydot, u, y_out, terms[-1]  # the rows: a list of floats, or an array


def _rk4(f, tau, y, h, k1=None):
    """One classic RK4 step of dy/dtau = f(tau, y) from (tau, y) by h; a
    negative h steps backward.  k1 = f(tau, y) may be passed in if known."""
    if k1 is None:
        k1 = f(tau, y)
    k2 = f(tau + h / 2.0, y + (h / 2.0) * k1)
    k3 = f(tau + h / 2.0, y + (h / 2.0) * k2)
    k4 = f(tau + h, y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _rk4_floats(f, tau, y, h, k1):
    """_rk4 on lists of floats, operation for operation: the same bits."""
    h2, h6 = h / 2.0, h / 6.0
    k2 = f(tau + h2, [a + h2 * b for a, b in zip(y, k1)])
    k3 = f(tau + h2, [a + h2 * b for a, b in zip(y, k2)])
    k4 = f(tau + h, [a + h * b for a, b in zip(y, k3)])
    stages = zip(y, k1, k2, k3, k4)
    return [a + h6 * (b1 + 2.0 * b2 + 2.0 * b3 + b4) for a, b1, b2, b3, b4 in stages]


def _rk4_advance(model, controller, tau, y, h, k1):
    """One RK4 step of the five-link closed loop from (tau, y) by h, given
    k1: on floats for one state (a list), on arrays for a stack of lanes."""
    step = _rk4_floats if type(y) is list else _rk4
    return step(lambda t, x: _five_link_rhs(model, controller, t, x, False)[0], tau, y, h, k1)


def _swing_z(model, y):
    """Swing-foot height of one state (a list, a float), or of each row of a stack."""
    if type(y) is not list:
        return np.cos(y[:, :5].dot(model.M_map.T)).dot(model.b_sw)
    try:
        return bp._dot([*map(math.cos, accumulate(y[:5]))], 0, model.b_sw_floats)  # cos theta
    except ValueError:  # math.cos of an infinite angle
        return math.nan


def _bisect(model, controller, tau, y, k1, h, y_hi, tol, with_u):
    """(t_event, y_event, the derivative there, with u only if with_u) of
    one state's floats: the RK4 sub-step from (tau, y) that ends on the
    guard, h (ending at y_hi) bisected until the crossing time is pinned."""
    lo, hi = 0.0, h
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break  # bracket one float wide: the tolerance is below resolution
        y_mid = _rk4_advance(model, controller, tau, y, mid, k1)
        if _swing_z(model, y_mid) <= 0.0:
            hi, y_hi = mid, y_mid
        else:
            lo = mid
    return tau + hi, y_hi, _five_link_rhs(model, controller, tau + hi, y_hi, with_u)


def integrate_step(model, controller, state, T, integrator: IntegratorConfig, recorder=None):
    """Integrate one step; returns (pre-switch state, switch time).

    Five-link (PlanarBiped) plants run closed-loop RK4 and locate the
    touchdown guard crossing by bisection to integrator.event_tolerance; the
    guard is armed at tau >= T/2 (the swing trajectory peaks mid-step).  If no
    impact occurs by 2T a GaitFailureError is raised.  The five-link `state`
    is a BipedState, stepped on Python floats (numpy forms only the term
    rows and the solve), or an (N, 10) stack of [q; dq] rows (lanes),
    stepped on arrays under a controller that holds N lanes' context and no
    ankle torque: the lanes step in lockstep on one tau grid, a lane leaves
    the stack at its own guard crossing, bisected on that lane's floats, and
    the result is the (N, 10) stack of pre-switch states with the (N,)
    switch times; a lane agrees with its state alone to about 1e-12.  No
    call writes to the controller.  Reduced plants (pass
    PendulumParams as `model`, AlipState/LipState as `state`) switch at
    exactly tau = T; `controller` may provide `ankle(tau)` for a disturbance
    torque.  `recorder(taus, y, us, y_out, centroidal=None)` is called once
    per step, after the switch, with the whole step: `taus` is the float64
    ndarray of grid times from 0 to the switch time (included) and `y` the
    states there.  Five-link: `y` is the (n, 10) float64 stack of [q; dq],
    `us` and `y_out` the (n, 4) torques and output errors, and `centroidal`
    the n tuples (p_c, v_c, L, L_c, a_c) of biped._centroidal_terms, each
    formed from its sample's derivative (the term rows and ddq), so
    integrand-exact rates need no second pass; the samples are the first
    state, each accepted grid point and the event.
    Reduced: `y` is (xs, vs), array('d') of x_c and of L (ALIP) or v_c
    (LIP); no column records a torque, so `us` and `y_out` are None, with
    no `centroidal`.  A stack of lanes takes no recorder.
    """
    # Divergence is detected by explicit finite/residual checks; silence the
    # overflow warnings numpy would emit on the way there.
    with np.errstate(over="ignore", invalid="ignore"):
        if isinstance(model, PlanarBiped):
            one = isinstance(state, BipedState)
            step = _integrate_step_one if one else _integrate_step_lanes
            return step(model, controller, state, T, integrator, recorder)
        if isinstance(model, PendulumParams):
            return _integrate_step_reduced(model, controller, state, T, integrator, recorder)
    raise ValidationError(f"integrate_step: unsupported model type {type(model)!r}")


def _no_impact(T: float) -> GaitFailureError:
    return GaitFailureError(f"integrate_step: no impact within 2T = {2 * T:.6g} s (gait failure)")


def _integrate_step_one(model, controller, state, T, cfg, recorder):
    h, tol, tau, with_u = cfg.step_size, cfg.event_tolerance, 0.0, recorder is not None
    y = state.q.tolist() + state.dq.tolist()
    samples, cents = [], []  # the recorder's (tau, y, u, y_out), and centroidal terms

    def record(tau, y, out):  # keeps out = (ydot, u, y_out, rows) at (tau, y); gives ydot
        if recorder is not None:
            samples.append((tau, y, out[1], out[2]))
            cents.append(bp._centroidal_terms(model, out[3], y[5:], out[0][5:]))
        return out[0]

    rhs = record(tau, y, _five_link_rhs(model, controller, tau, y, with_u))
    pz_prev = _swing_z(model, y)
    while tau < 2.0 * T - 1e-12:
        y_next = _rk4_advance(model, controller, tau, y, h, rhs)
        if not all(map(math.isfinite, y_next)):
            raise GaitFailureError(f"integrate_step: state diverged at tau = {tau + h:.4f} s")
        tau_next, pz_next = tau + h, _swing_z(model, y_next)
        if tau_next >= 0.5 * T and pz_prev > 0.0 and pz_next <= 0.0:
            t_event, y_hi, out = _bisect(model, controller, tau, y, rhs, h, y_next, tol, with_u)
            record(t_event, y_hi, out)
            if recorder is not None:
                recorder(*map(np.array, zip(*samples)), centroidal=cents)
            return BipedState(y_hi[:5], y_hi[5:]), t_event
        rhs = record(tau_next, y_next, _five_link_rhs(model, controller, tau_next, y_next, with_u))
        tau, y, pz_prev = tau_next, y_next, pz_next
    raise _no_impact(T)


def _integrate_step_lanes(model, controller, state, T, cfg, recorder):
    if not (np.ndim(state) == 2 and np.shape(state)[1] == 10 and recorder is None):
        raise ValidationError(
            "integrate_step: a five-link state is a BipedState, or an (N, 10) stack "
            "of lanes without a recorder"
        )
    h, tau, y = cfg.step_size, 0.0, state
    # The rows of y are the lanes still stepping; lanes[i] is row i's place
    # in the result, which holds each crossed lane's pre-switch state and time.
    lanes = np.arange(len(y))
    y_sw, t_sw = np.empty((len(lanes), 10)), np.empty(len(lanes))
    rhs = _five_link_rhs(model, controller, tau, y, False)[0]
    pz_prev = _swing_z(model, y)
    while tau < 2.0 * T - 1e-12:
        y_next = _rk4_advance(model, controller, tau, y, h, rhs)
        if not np.all(np.isfinite(y_next)):
            raise GaitFailureError(f"integrate_step: state diverged at tau = {tau + h:.4f} s")
        tau_next, pz_next = tau + h, _swing_z(model, y_next)
        if tau_next >= 0.5 * T and np.any(hit := (pz_prev > 0.0) & (pz_next <= 0.0)):
            for i in np.flatnonzero(hit).tolist():
                t_sw[lanes[i]], y_sw[lanes[i]], _ = _bisect(
                    model, controller._lanes(i), tau, y[i].tolist(), rhs[i].tolist(), h,
                    y_next[i].tolist(), cfg.event_tolerance, False,
                )
            keep = ~hit
            if not keep.any():
                return y_sw, t_sw
            lanes, controller = lanes[keep], controller._lanes(keep)
            y_next, pz_next = y_next[keep], pz_next[keep]
        rhs = _five_link_rhs(model, controller, tau_next, y_next, False)[0]
        tau, y, pz_prev = tau_next, y_next, pz_next
    raise _no_impact(T)


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
        recorder(taus, (xs, vs), None, None)
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
        """Each column as an ndarray view of its float array, no copy: the
        buffer must not grow after this (its arrays refuse to resize while
        a view holds them)."""
        return {c: np.frombuffer(col) for c, col in zip(self.columns, self.data)}


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

    def row(self, taus, y, us, y_out, centroidal):
        """The step's columns after t and step, from integrate_step's recorder
        arguments."""
        x, m = map(np.frombuffer, y)
        if self.is_alip:
            return x, m, m / self.mH
        return x, self.mH * m, m

    def exchange(self, s, t_imp: float):  # t_imp is T: the step switches on the clock
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
        try:
            return assemble_posture(
                self.model,
                com_x=x_c0,
                com_z=self.params.H,
                swing_foot_x=swing_x,
                com_velocity=(v0, 0.0),
            )
        except NumericalError as exc:
            raise ValidationError(
                f"five-link start: no posture puts the CoM at ({x_c0:.4g}, {self.params.H:.4g}) "
                f"with the swing foot at x = {swing_x:.4g}: initial_velocity, initial_com_x, "
                "constraints.H or gait.T out of range"
            ) from exc

    def begin_step(self, state: BipedState, L_des: float) -> None:
        self.controller.set_target(L_des)
        self.controller.on_step_start(state)

    def row(self, taus, ys, us, y_outs, centroidal):
        """The step's columns after t and step, from integrate_step's recorder
        arguments: a column per name, one row per sample."""
        p_c, v_c, L, L_c, a_c = map(np.array, zip(*centroidal))
        ankle = np.array([self.controller.ankle(tau) for tau in taus.tolist()])
        # Analytic rate of the centroidal momentum: differentiate
        # L_c = L - m*wedge(p_c, v_c) using dL/dt = m g x_c + u_a.
        m, g = self.model.m_total, self.model.g
        dL_c = m * g * p_c[:, 0] + ankle - m * wedge(p_c.T, a_c.T)
        return (*ys.T, *p_c.T, *v_c.T, L, L_c, dL_c, *y_outs.T, *us.T)

    def exchange(self, s: BipedState, t_imp: float):
        # Every touchdown quantity from one evaluation of the pre-impact
        # state's term rows.  These are the inputs of the guard search's last
        # derivative (the state at t_imp), so the placement has its bits.
        model, dq = self.model, s.dq.tolist()
        rows = bp._state_rows(model, s.q, s.dq)[1]
        _, v_c, L, _, _ = bp._centroidal_terms(model, rows, dq)
        plus, impulse = bp._impact_solution(model, s, rows)
        x_sw, z_sw = rows[bp._PSW]
        L_plus, placement = bp.centroidal(model, plus).L, self.controller.placement(rows, dq, t_imp)
        return plus, L, L_plus, np.array(v_c), np.array([-x_sw, -z_sw]), impulse, placement


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

    def recorder(taus, y, us, y_out, centroidal=None):
        head = (t_base + taus, np.full(len(taus), float(k)))
        # The boundary sample at k > 0 is already recorded by the previous step.
        cut = int(k > 0)
        buf.extend(c[cut:] for c in head + plant.row(taus, y, us, y_out, centroidal))

    for k in range(config.duration):
        plant.begin_step(state, _step_target(gait, config.l_des_final, config.duration, k + 1))
        n_before = len(buf)
        state_minus, t_imp = integrate_step(
            plant.model, plant.controller, state, gait.T, config.integrator, recorder
        )
        # exchange() returns the event's fields from state_plus on
        state, *exchanged = plant.exchange(state_minus, t_imp)
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


# Cells encoded at a time.  The encoder's arrays for one chunk must keep
# write_csv of five 200 000-row columns under the 2 MB tracemalloc bound of
# test_write_csv_columns_hold_one_chunk_at_a_time.
_CSV_CHUNK_CELLS = 4096

# The %.17g encoder lays each cell out in 48 source bytes: '-', '0', '.',
# '0', '0', '0', then the 17 digits each followed by '.', then 'e', the
# exponent's sign and two digits, ',', '\r', '\n' and a NUL pad.  A cell's
# text is the source bytes its template keeps, in order: the others are
# zeroed and every NUL deleted.
_G17_EXP, _G17_ZERO = 21, 22  # layout classes after the fixed ones, X + 4 for -4 <= X < 17


def _g17_layout(cls: int, k: int) -> list[int]:
    """Source bytes of an unsigned cell of layout class cls with k significant digits."""
    digit = [6 + 2 * i for i in range(17)]
    if cls == _G17_ZERO:
        return [1]
    if cls == _G17_EXP:
        return [6] + ([7] + digit[1:k] if k > 1 else []) + [40, 41, 42, 43]
    X = cls - 4
    if X < 0:
        return [1, 2, 3, 4, 5][: 1 - X] + digit[:k]
    return digit[: X + 1] + ([7 + 2 * X] + digit[X + 1 : k] if k > X + 1 else [])


@functools.cache
def _g17_tables():
    """The encoder's read-only constants, built on the first write (none at
    import): the least double >= 10^k for k = -30..18; 10^s = hi + lo
    exactly for s = 0..45, hi in Veltkamp halves; the half-distance under
    which a remainder counts as a tie at each s; the little-endian source
    words of the lead digit, of each 4-digit group (b"d.d.d.d.") and of each
    exponent; the trailing zeros of each group; the first template of each
    X's layout class; and the templates as word masks, 68 per class: 17
    digit counts, two signs, two cell ends."""
    pow10 = [float(10**k) for k in range(19)]  # exact
    for k in range(1, 31):
        v = 1 / 10**k  # correctly rounded
        num, den = v.as_integer_ratio()
        pow10.insert(0, math.nextafter(v, math.inf) if num * 10**k < den else v)
    hi = np.array([float(10**s) for s in range(46)])
    lo = np.array([float(10**s - int(h)) for s, h in zip(range(46), hi)])
    hi1 = hi * 134217729.0
    hi1 -= hi1 - hi
    words = lambda texts: np.array([int.from_bytes(t, "little") for t in texts], "<u8")
    lead = words(b"-0.000%d." % d for d in range(10))
    tail = words(b"e%+03d,\r\n\0" % X for X in range(-30, 19))
    g = np.arange(10_000, dtype="<u8")
    group = sum((g // 10 ** (3 - j) % 10 + 48 + (46 << 8)) << np.uint64(16 * j) for j in range(4))
    zeros4 = sum((g % 10**j == 0).astype(np.uint8) for j in (1, 2, 3)) + (g == 0)
    first = np.array([X + 4 if -4 <= X < 17 else _G17_EXP for X in range(-30, 19)]) * 68
    keep = np.zeros((23 * 17 * 4, 48), np.uint8)
    for t in range(len(keep)):
        c, k, neg, last = t // 68, t // 4 % 17 + 1, t // 2 % 2, t % 2
        keep[t, [0] * neg + _g17_layout(c, k) + ([45, 46] if last else [44])] = 0xFF
    tie = np.where(lo == 0.0, 0.0, 1e-7)  # lo = 0: r is exact, and so is rint's half-even
    tables = (np.array(pow10), hi, hi1, hi - hi1, lo, tie, lead, group, tail, zeros4, first,
              keep.view("<u8"))
    for t in tables:
        t.flags.writeable = False
    return tables


def _g17_rows(block: np.ndarray) -> bytes | None:
    """The rows of a 2-D numeric block as "%.17g" cells joined by ',', each
    row ending in '\\r\\n', byte for byte; None if a cell is not proven.

    A nonzero cell |x| in [1e-28, 1e17) with decimal exponent X has the
    digits D = round(|x| 10^s), s = 16 - X, in [10^16, 10^17).  X is
    floor(log10|x|) corrected by comparing |x| with the least doubles >= 10^X
    and 10^(X+1), so it is exact.  |x| 10^s is a Dekker two-product with the
    exact pair hi + lo = 10^s, whose rounded high part p is an even integer,
    plus a remainder r: D = p + rint(r), and D = 10^17 means X + 1 with
    D = 10^16.  For s <= 22, lo = 0 and r is exact, so rint's half-even is
    %.17g's tie rule; for s > 22, r is good to 1e-14 and no exact tie exists.
    Proven means D in [10^16, 10^17] and, for s > 22, r not within 1e-7 of
    a half.  The digits go to ASCII four at a time; each cell keeps the
    source bytes of its %g layout (fixed for -4 <= X < 17 with trailing
    zeros and a bare point dropped, else d.ddde±XX; '0' and '-0' for zeros),
    and one translate of the block deletes the rest."""
    if block.dtype.kind not in "biuf" or block.itemsize > 8:
        return None
    rows, width = block.shape
    x = block.astype(float, copy=False).ravel()  # float(v) of ints and bools
    a = np.abs(x)
    zero = a == 0.0
    if not ((a < 1e17) & ((a >= 1e-28) | zero)).all():  # also false on nan
        return None
    pow10, hi, hi1, hi2, lo, tie, lead_word, group_word, tail_word, zeros4, first, keep = (
        _g17_tables()
    )
    a[zero] = 1.0
    X = np.floor(np.log10(a)).astype(np.intp)
    X += a >= pow10[X + 31]
    X -= a < pow10[X + 30]
    s = 16 - X
    p = a * hi[s]
    a1 = a * 134217729.0
    a1 -= a1 - a
    a2 = a - a1
    h1, h2 = hi1[s], hi2[s]
    r = ((a1 * h1 - p) + a1 * h2 + a2 * h1) + a2 * h2 + a * lo[s]
    n = np.rint(r)
    D = p.astype(np.int64) + n.astype(np.int64)
    if not ((np.abs(np.abs(r - n) - 0.5) >= tie[s]) & (D >= 10**16) & (D <= 10**17)).all():
        return None
    top = D == 10**17
    X += top
    D[top] = 10**16
    lead, rest = np.divmod(D, 10**16)
    hi8, lo8 = np.divmod(rest, 10**8)
    groups = np.empty((len(D), 4), np.int64)
    np.divmod(hi8, 10**4, out=(groups[:, 0], groups[:, 1]))
    np.divmod(lo8, 10**4, out=(groups[:, 2], groups[:, 3]))
    z = zeros4.take(groups)
    tz = z[:, 0]  # trailing zeros of D, from the leading group down
    for j in (1, 2, 3):
        tz = z[:, j] + (z[:, j] == 4) * tz
    tid = first.take(X + 30)  # template: class * 68 + (digits - 1) * 4 + sign * 2 + end
    tid[zero] = _G17_ZERO * 68
    tid += (16 - tz) * 4 + np.signbit(x) * 2
    tid.reshape(rows, width)[:, -1] += 1  # the row's last cell ends in '\r\n'
    src = np.empty((len(D), 6), "<u8")
    src[:, 0] = lead_word.take(lead)
    src[:, 1:5] = group_word.take(groups)
    src[:, 5] = tail_word.take(X + 30)
    src &= keep.take(tid, axis=0)
    return src.tobytes().translate(None, b"\0")


def _chunks(columns: dict):
    """The bytes of a CSV, chunk by chunk: the header, then blocks of rows,
    each through _g17_rows, or through Python's "%.17g" if the encoder
    cannot prove the block (a non-finite value, |x| outside [1e-28, 1e17) or,
    below 1e-6, a near-tie), so every byte is what Python writes."""
    yield (",".join(columns) + "\r\n").encode()
    cols = [np.asarray(col) for col in columns.values()]
    n = max(1, _CSV_CHUNK_CELLS // max(1, len(cols)))  # rows per chunk
    # "%.17g" % v is format(float(v), ".17g"); stacking rounds ints as float(v)
    row_format = ",".join(["%.17g"] * len(cols)) + "\r\n"
    for i in range(0, max(map(len, cols), default=0), n):
        block = np.column_stack([col[i : i + n] for col in cols])
        data = _g17_rows(block)
        if data is None:
            data = ((row_format * len(block)) % tuple(block.ravel().tolist())).encode()
        yield data


def write_csv(path, columns: dict) -> tuple[str, int]:
    """Write a dict of equal-length numeric columns as a CSV whose header is
    its keys, which must need no quoting (csv.writer layout, floats with 17
    significant digits, the bytes of Python's "%.17g"), a block of rows at a
    time, hashing as it writes.  Cells are encoded on whole numpy blocks
    (_g17_rows); a block the encoder cannot prove exact goes through "%.17g".
    Returns (sha256 hex digest, byte count) of the file."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    digest, size = hashlib.sha256(), 0
    with path.open("wb") as fh:
        for data in _chunks(columns):
            fh.write(data)
            digest.update(data)
            size += len(data)
    return digest.hexdigest(), size


def _write_artifacts(config: ScenarioConfig, trace: HybridTrace, out_dir: Path) -> None:
    ev = trace.events
    impulses = [(0.0, 0.0) if e.impulse is None else e.impulse for e in ev]
    tables = {
        "trace": trace.samples,
        "per_step": {
            f.name: [getattr(r, f.name) for r in trace.per_step] for f in fields(StepRecord)
        },
        "events": {
            "step": [e.step for e in ev],
            "t": [e.t for e in ev],
            "L_minus": [e.L_minus for e in ev],
            "L_plus": [e.L_plus for e in ev],
            "vx_c_minus": [e.v_c_minus[0] for e in ev],
            "vz_c_minus": [e.v_c_minus[1] for e in ev],
            "p2to1_x": [e.p_2to1[0] for e in ev],
            "p2to1_z": [e.p_2to1[1] for e in ev],
            "impulse_x": [imp[0] for imp in impulses],
            "impulse_z": [imp[1] for imp in impulses],
            "placement": [e.placement for e in ev],
        },
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    files: dict[str, dict] = {}
    for name in _ARTIFACTS:
        if name in config.outputs:
            sha, size = write_csv(out_dir / f"{name}.csv", tables[name])
            files[f"{name}.csv"] = {"sha256": sha, "bytes": size}
    sidecar = {"config": config.to_json_dict(), "files": files}
    (out_dir / "scenario.json").write_text(json.dumps(sidecar, indent=2, sort_keys=True) + "\n")
