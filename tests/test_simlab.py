"""Hybrid rollouts: reduced plants against exact transition oracles,
five-link stepping against its own conservation laws and event bookkeeping,
artifact determinism/round-trip, and the twin-placement comparison protocol.
"""

import csv
import dataclasses
import hashlib
import json
import math
import tempfile
import tracemalloc
from array import array
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import stridelab as sl
from stridelab import (
    AlipState,
    GaitCommand,
    IntegratorConfig,
    LinkParams,
    LipState,
    NumericalError,
    PendulumParams,
    PlanarBiped,
    ScenarioConfig,
    ValidationError,
    VirtualConstraintSpec,
    alip_transition,
    transfer_angular_momentum,
    wedge,
)
from stridelab import control, simlab
from stridelab.biped import (
    centroidal,
    com_acceleration,
    com_velocity,
    coriolis_matrix,
    gravity_vector,
    mass_matrix,
)
from stridelab.control import planar_outputs, virtual_constraint_derivatives
from stridelab.errors import GaitFailureError
from stridelab.simlab import (
    SineHeightProfile,
    _rk4,
    _two_link_ik,
    WalkingController,
    assemble_posture,
    integrate_step,
    lip_vs_alip_comparison,
    run_scenario,
)

PARAMS = PendulumParams(m=32.0, H=0.6)
MH = PARAMS.m * PARAMS.H
VC = VirtualConstraintSpec(H=0.6, z_cl=0.07)


def reduced_config(**kw):
    base = dict(
        plant="ALIP",
        gait=GaitCommand(L_des=14.4, T=0.3, alpha=0.0),
        constraints=VC,
        duration=4,
        integrator=IntegratorConfig(step_size=1e-3),
    )
    base.update(kw)
    return ScenarioConfig(**base)


# ---------------------------------------------------------------------------
# configuration plumbing
# ---------------------------------------------------------------------------


def test_integrator_config_validation():
    with pytest.raises(ValidationError):
        IntegratorConfig(step_size=0.0)
    with pytest.raises(ValidationError):
        IntegratorConfig(step_size=1e-4, event_tolerance=1e-4)


def test_scenario_json_round_trip():
    cfg = reduced_config(
        plant="FIVE_LINK",
        initial_velocity=0.8,
        initial_com_x=0.0,
        l_des_final=20.0,
        ankle_amplitude=1.5,
        z_amplitude=0.03,
        placement_source="v",
        placement_update="step_start",
        seed=7,
    )
    clone = ScenarioConfig.from_json(cfg.to_json_dict())
    assert clone.plant == cfg.plant
    assert clone.gait == cfg.gait
    assert clone.duration == cfg.duration
    assert clone.initial_velocity == cfg.initial_velocity
    assert clone.initial_com_x == cfg.initial_com_x
    assert clone.l_des_final == cfg.l_des_final
    assert clone.ankle_amplitude == cfg.ankle_amplitude
    assert clone.z_amplitude == cfg.z_amplitude
    assert clone.placement_source == cfg.placement_source
    assert clone.placement_update == cfg.placement_update
    assert clone.seed == cfg.seed


def test_scenario_from_json_file(tmp_path):
    cfg = reduced_config(duration=2)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(cfg.to_json_dict()))
    clone = ScenarioConfig.from_json(path)
    assert clone.gait == cfg.gait and clone.duration == 2


def test_scenario_accepts_integral_float_duration():
    doc = reduced_config(duration=3).to_json_dict()
    doc["duration"] = 3.0
    assert ScenarioConfig.from_json(doc).duration == 3


def test_scenario_validation():
    with pytest.raises(ValidationError):
        reduced_config(plant="IP")
    with pytest.raises(ValidationError):
        reduced_config(duration=-1)
    with pytest.raises(ValidationError):
        reduced_config(duration=2.5)
    with pytest.raises(ValidationError):
        reduced_config(outputs=("trace", "movie"))
    with pytest.raises(ValidationError):
        reduced_config(placement_source="momentum")
    with pytest.raises(ValidationError):
        reduced_config(placement_update="sometimes")
    with pytest.raises(ValidationError):
        reduced_config(z_amplitude=-0.1)
    with pytest.raises(ValidationError):
        ScenarioConfig.from_json({"plant": "ALIP"})
    # work beyond MAX_RK4_STEPS is refused when the config is built
    with pytest.raises(ValidationError, match="MAX_RK4_STEPS"):
        reduced_config(integrator=IntegratorConfig(step_size=1e-300, event_tolerance=1e-301))
    with pytest.raises(ValidationError, match="MAX_RK4_STEPS"):
        reduced_config(duration=10**12)
    with pytest.raises(ValidationError, match="MAX_RK4_STEPS"):
        reduced_config(duration=10**400)


def test_walking_controller_validation():
    model = PlanarBiped.default()
    gait = GaitCommand(L_des=14.4, T=0.3)
    with pytest.raises(ValidationError):
        WalkingController(model, gait, VC, placement_source="x")
    with pytest.raises(ValidationError):
        WalkingController(model, gait, VC, placement_update="later")


# ---------------------------------------------------------------------------
# reduced-plant rollouts
# ---------------------------------------------------------------------------


def test_reduced_switches_exactly_on_the_clock():
    T = 0.3
    tr = run_scenario(reduced_config(duration=4))
    assert len(tr.events) == 4 and len(tr.per_step) == 4
    for k, ev in enumerate(tr.events):
        assert abs(ev.t - (k + 1) * T) <= 1e-12
    t = tr.samples["t"]
    assert np.all(np.diff(t) > 0)  # strictly increasing across switches


def test_reduced_deadbeat_lands_on_target_from_step_two():
    cfg = reduced_config(duration=5, initial_velocity=0.3)  # start off the gait
    tr = run_scenario(cfg)
    for rec in tr.per_step[1:]:
        assert abs(rec.L_end_minus - 14.4) <= 1e-9


@pytest.mark.parametrize("plant", ["ALIP", "LIP"])
@pytest.mark.parametrize("x0", [0.0, -0.05])
def test_reduced_initial_state_honors_initial_com_x(plant, x0):
    tr = run_scenario(reduced_config(plant=plant, duration=1, initial_com_x=x0))
    assert tr.samples["x_c"][0] == x0
    assert abs(tr.samples["L"][0] - 14.4) < 1e-12


def test_reduced_default_start_is_the_steady_gait():
    # Unset initial_com_x: start where the period-one gait at L_des begins,
    # so every step starts and ends at the same momentum.
    tr = run_scenario(reduced_config(duration=2))
    x_c = tr.samples["x_c"]
    assert x_c[0] < 0.0
    assert abs(tr.events[0].state_plus.x_c - x_c[0]) < 1e-9
    assert abs(tr.per_step[0].L_end_minus - 14.4) < 1e-9


def test_reduced_velocity_column_is_momentum_scaled():
    tr = run_scenario(reduced_config(duration=2))
    assert np.max(np.abs(tr.samples["vx_c"] - tr.samples["L"] / MH)) < 1e-14


def test_reduced_rk4_is_fourth_order():
    s0 = AlipState(x_c=0.05, L=8.0)
    T = 0.3
    exact = alip_transition(PARAMS, s0, T)
    errs = {}
    for h in (2e-3, 1e-3):
        out, t_imp = integrate_step(PARAMS, None, s0, T, IntegratorConfig(step_size=h))
        assert t_imp == T
        errs[h] = abs(out.L - exact.L) + abs(out.x_c - exact.x_c)
    ratio = errs[2e-3] / errs[1e-3]
    assert 12.0 < ratio < 20.0


def test_forced_ankle_matches_variation_of_parameters():
    # sinusoidal ankle torque A sin(w tau): particular solution
    # x_p = -(A/mH) sin(w tau) / (w^2 + ell^2), homogeneous part from the
    # adjusted initial condition; integrate_step must match at 1e-12.
    A, T = 4.0, 0.3
    w = 2.0 * math.pi / T
    ell = PARAMS.ell

    class Ankle:
        def ankle(self, tau):
            return A * math.sin(w * tau)

    s0 = AlipState(x_c=0.03, L=5.0)
    out, _ = integrate_step(PARAMS, Ankle(), s0, T, IntegratorConfig(step_size=1e-4))
    den = w * w + ell * ell
    vp0 = -(A / MH) * w / den
    hom = alip_transition(PARAMS, AlipState(x_c=s0.x_c, L=s0.L - MH * vp0), T)
    x_exact = hom.x_c - (A / MH) * math.sin(w * T) / den
    L_exact = hom.L + MH * (-(A / MH) * w * math.cos(w * T) / den)
    assert abs(out.x_c - x_exact) < 1e-12
    assert abs(out.L - L_exact) < 1e-12


def test_ramp_walks_the_target_up_with_one_step_lag():
    cfg = reduced_config(
        gait=GaitCommand(L_des=0.0, T=0.3, alpha=0.0), duration=12, l_des_final=12.0
    )
    tr = run_scenario(cfg)
    ends = [r.L_end_minus for r in tr.per_step]
    rung = 12.0 / 12
    for k, L_end in enumerate(ends):
        assert abs(L_end - k * rung) <= 1e-9 * max(1.0, k)
    assert all(b > a for a, b in zip(ends, ends[1:]))
    # the final step still chases the last rung: it ends one rung short
    assert abs(ends[-1] - (12.0 - rung)) <= 1e-9


def check_step_bookkeeping(tr):
    """What the one step loop promises on every plant: each step's event
    and summary row agree, and the trace hands over at the event time."""
    t, step, vx = tr.samples["t"], tr.samples["step"], tr.samples["vx_c"]
    assert t[0] == 0.0 and tr.per_step[0].t_start == 0.0
    for k, (ev, rec) in enumerate(zip(tr.events, tr.per_step, strict=True)):
        assert ev.step == rec.step == k
        assert ev.t == rec.t_end
        if k + 1 < len(tr.per_step):
            assert tr.per_step[k + 1].t_start == ev.t
        assert (ev.L_minus, ev.L_plus, ev.placement) == (
            rec.L_end_minus,
            rec.L_start_plus,
            rec.placement,
        )
        assert t[step == k][-1] == ev.t
        assert rec.mean_vx == float(np.mean(vx[step == k]))


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(
    L_des=st.floats(-20.0, 20.0),
    alpha=st.floats(0.0, 0.9),
    v0=st.floats(-1.0, 1.0),
    x0=st.none() | st.floats(-0.1, 0.1),
    l_des_final=st.none() | st.floats(-20.0, 20.0),
    ankle=st.floats(-3.0, 3.0),
    source=st.sampled_from(["L", "v"]),
)
def test_point_mass_loop_bookkeeping_and_twins(L_des, alpha, v0, x0, l_des_final, ankle, source):
    traces = {
        plant: run_scenario(
            reduced_config(
                plant=plant,
                gait=GaitCommand(L_des=L_des, T=0.3, alpha=alpha),
                duration=2,
                initial_velocity=v0,
                initial_com_x=x0,
                l_des_final=l_des_final,
                ankle_amplitude=ankle,
                placement_source=source,
            )
        )
        for plant in ("ALIP", "LIP")
    }
    for tr in traces.values():
        check_step_bookkeeping(tr)
    # ALIP integrates (x_c, L), LIP integrates (x_c, v_c = L / m H): the same
    # flow, so the twins agree up to rounding
    for a, b in zip(traces["ALIP"].per_step, traces["LIP"].per_step, strict=True):
        assert b.L_end_minus == pytest.approx(a.L_end_minus, rel=1e-9, abs=1e-12)
        assert b.placement == pytest.approx(a.placement, rel=1e-9, abs=1e-12)


def reference_reduced_step(params, controller, state, T, cfg, recorder):
    """The reduced-plant step as an array RK4: simlab._rk4 on the ALIP and LIP
    fields written inline, one numpy array per stage.  The recorder gets the
    samples in integrate_step's whole-step layout."""
    mH = params.m * params.H

    def ankle(tau):
        return controller.ankle(tau) if controller is not None else 0.0

    if isinstance(state, AlipState):
        def f(tau, y):
            return np.array([y[1] / mH, params.m * params.g * y[0] + ankle(tau)])

        y = np.array([state.x_c, state.L])
    else:
        def f(tau, y):
            return np.array([y[1], (params.g / params.H) * y[0] + ankle(tau) / mH])

        y = np.array([state.x_c, state.v_c])
    h = cfg.step_size
    n_full = int(math.floor(T / h + 1e-12))
    tau = 0.0
    samples = [(tau, *y, 0.0)]
    for i in range(n_full):
        y = _rk4(f, tau, y, h)
        tau = (i + 1) * h
        samples.append((tau, *y, ankle(tau)))
    rem = T - tau
    assert rem > 1e-12  # the drawn h leaves a remainder step
    y = _rk4(f, tau, y, rem)
    samples.append((T, *y, ankle(T)))
    if recorder is not None:
        taus, xs, vs, us = zip(*samples)
        recorder(np.array(taus), (array("d", xs), array("d", vs)), np.array(us), None)
    assert np.all(np.isfinite(y))
    return type(state)(float(y[0]), float(y[1]), state.tau), T


def bits(v):
    """A value with every float spelled out by float.hex (so -0.0 != 0.0)."""
    if dataclasses.is_dataclass(v):
        return tuple(bits(getattr(v, f.name)) for f in dataclasses.fields(v))
    if isinstance(v, np.ndarray):
        return tuple(float(x).hex() for x in v.ravel())
    return float(v).hex() if isinstance(v, float) else v


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(
    plant=st.sampled_from(["ALIP", "LIP"]),
    v0=st.none() | st.floats(-1.0, 1.5),
    x0=st.none() | st.sampled_from([0.0, -0.0]) | st.floats(-0.1, 0.1),
    L_des=st.sampled_from([0.0]) | st.floats(-20.0, 25.0),
    l_des_final=st.none() | st.floats(-20.0, 25.0),
    alpha=st.floats(0.0, 0.9),
    ankle=st.sampled_from([0.0]) | st.floats(-3.0, 3.0),
    source=st.sampled_from(["L", "v"]),
    T=st.floats(0.2, 0.4),
    n=st.integers(40, 300),
    frac=st.floats(0.05, 0.95),
    duration=st.integers(1, 3),
)
def test_float_stepping_is_bit_exact(
    plant, v0, x0, L_des, l_des_final, alpha, ankle, source, T, n, frac, duration
):
    # h = T / (n + frac) does not divide T, so every step ends on a remainder
    cfg = reduced_config(
        plant=plant,
        gait=GaitCommand(L_des=L_des, T=T, alpha=alpha),
        duration=duration,
        integrator=IntegratorConfig(step_size=T / (n + frac)),
        initial_velocity=v0,
        initial_com_x=x0,
        l_des_final=l_des_final,
        ankle_amplitude=ankle,
        placement_source=source,
    )
    tr = run_scenario(cfg)
    float_step = simlab._integrate_step_reduced
    simlab._integrate_step_reduced = reference_reduced_step
    try:
        ref = run_scenario(cfg)
    finally:
        simlab._integrate_step_reduced = float_step
    assert list(tr.samples) == list(ref.samples)
    for name, col in tr.samples.items():
        assert col.dtype == np.float64 and bits(col) == bits(ref.samples[name]), name
    assert [bits(e) for e in tr.events] == [bits(e) for e in ref.events]
    assert [bits(r) for r in tr.per_step] == [bits(r) for r in ref.per_step]
    step = tr.samples["step"]
    for k, rec in enumerate(tr.per_step):  # mean_vx as a mean over a list of floats
        rows = [float(v) for v in tr.samples["vx_c"][step == k]]
        assert bits(rec.mean_vx) == bits(float(np.mean(rows)))


class SineAnkle:
    """A controller that provides only the ankle torque A sin(2 pi tau / T)."""

    def __init__(self, A, T):
        self.A, self.T = A, T

    def ankle(self, tau):
        return self.A * math.sin(2.0 * math.pi * tau / self.T)


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(
    plant=st.sampled_from(["ALIP", "LIP"]),
    x0=st.floats(-0.1, 0.1),
    L0=st.floats(-25.0, 25.0),
    ankle=st.sampled_from([0.0]) | st.floats(-3.0, 3.0),
    T=st.floats(0.2, 0.4),
    n=st.integers(40, 300),
    frac=st.sampled_from([0.0]) | st.floats(0.05, 0.95),
)
def test_reduced_step_records_the_whole_step_in_one_call(plant, x0, L0, ankle, T, n, frac):
    # The reduced-plant recorder contract of integrate_step: one call per
    # step with (taus, (xs, vs), us, None), the grid from 0 to T, bit for bit
    # the samples of the array RK4 stepped one numpy array at a time.
    cfg = IntegratorConfig(step_size=T / (n + frac))
    state = AlipState(x_c=x0, L=L0) if plant == "ALIP" else LipState(x_c=x0, v_c=L0 / MH)
    controller = SineAnkle(ankle, T) if ankle else None
    calls = []
    end, t_end = integrate_step(
        PARAMS, controller, state, T, cfg, lambda *a, **kw: calls.append((a, kw))
    )
    assert len(calls) == 1
    (taus, y, us, y_out), kwargs = calls[0]
    assert kwargs == {} and y_out is None and t_end == T
    assert isinstance(taus, np.ndarray) and taus.dtype == np.float64 and taus.ndim == 1
    assert isinstance(us, np.ndarray) and us.dtype == np.float64 and us.shape == taus.shape
    assert isinstance(y, tuple) and len(y) == 2
    xs, vs = y
    assert all(isinstance(c, array) and c.typecode == "d" and len(c) == len(taus) for c in y)
    h = cfg.step_size
    n_full = int(math.floor(T / h + 1e-12))
    has_rem = T - n_full * h > 1e-12
    assert len(taus) == n_full + 1 + has_rem
    assert taus[0] == 0.0 and taus[-1] == (T if has_rem else n_full * h)
    assert bits(end) == bits(type(state)(xs[-1], vs[-1], state.tau))
    if not has_rem:
        return  # the reference below steps only grids with a remainder step
    ref = []
    reference_reduced_step(
        PARAMS, controller, state, T, cfg,
        lambda taus, y, us, y_out: ref.extend(zip(taus.tolist(), *y, us.tolist())),
    )
    assert [bits(float(v)) for v in taus] == [bits(r[0]) for r in ref]
    assert [bits(v) for v in xs] == [bits(float(r[1])) for r in ref]
    assert [bits(v) for v in vs] == [bits(float(r[2])) for r in ref]
    assert [bits(float(v)) for v in us] == [bits(float(r[3])) for r in ref]


def test_five_link_loop_bookkeeping():
    cfg = ScenarioConfig(
        plant="FIVE_LINK",
        gait=GaitCommand(L_des=14.4, T=0.35, alpha=0.5),
        constraints=VC,
        duration=2,
        integrator=IntegratorConfig(step_size=1e-3),
        l_des_final=16.0,
        ankle_amplitude=1.0,
        placement_source="v",
    )
    tr = run_scenario(cfg)
    check_step_bookkeeping(tr)
    assert all(ev.impulse is not None for ev in tr.events)


# ---------------------------------------------------------------------------
# five-link rollouts
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def nominal_five_link_trace():
    cfg = ScenarioConfig(
        plant="FIVE_LINK",
        gait=GaitCommand(L_des=14.4, T=0.35, alpha=0.5),
        constraints=VC,
        duration=8,
        integrator=IntegratorConfig(step_size=1e-3),
    )
    return run_scenario(cfg)


def test_five_link_impact_timing_near_nominal(nominal_five_link_trace):
    T = 0.35
    for rec in nominal_five_link_trace.per_step:
        assert abs((rec.t_end - rec.t_start) - T) <= 0.05 * T


def test_five_link_event_momentum_transfer(nominal_five_link_trace):
    # L about the new contact == transfer of L about the old contact through
    # the recorded touchdown displacement and CoM velocity
    for ev in nominal_five_link_trace.events:
        L_pred = transfer_angular_momentum(ev.L_minus, ev.p_2to1, ev.v_c_minus, 32.0)
        assert abs(ev.L_plus - L_pred) <= 1e-9 * max(1.0, abs(L_pred))


def test_five_link_centroidal_rate_column(nominal_five_link_trace):
    # the stored dL_c column differentiates the stored L_c column (checked
    # by central differences away from the impacts)
    s = nominal_five_link_trace.samples
    t, L_c, dL_c, step = s["t"], s["L_c"], s["dL_c"], s["step"]
    fd = (L_c[2:] - L_c[:-2]) / (t[2:] - t[:-2])
    interior = (step[1:-1] == step[:-2]) & (step[1:-1] == step[2:])
    resid = np.abs(fd - dL_c[1:-1])[interior]
    assert np.max(resid) <= 1e-3 * np.max(np.abs(dL_c))


def test_five_link_tracks_commanded_height(nominal_five_link_trace):
    z = nominal_five_link_trace.samples["z_c"]
    assert np.max(np.abs(z - 0.6)) < 0.02


def test_five_link_initial_state_honors_config():
    cfg = ScenarioConfig(
        plant="FIVE_LINK",
        gait=GaitCommand(L_des=15.36, T=0.3, alpha=0.4),
        constraints=VC,
        duration=1,
        integrator=IntegratorConfig(step_size=1e-3),
        initial_velocity=0.8,
        initial_com_x=0.0,
    )
    tr = run_scenario(cfg)
    s = tr.samples
    assert abs(s["x_c"][0]) < 1e-10
    assert abs(s["z_c"][0] - 0.6) < 1e-10
    assert abs(s["vx_c"][0] - 0.8) < 1e-8


def test_event_tolerance_below_float_resolution_terminates():
    # 1e-20 is below the spacing of floats near h = 1e-3: the bisection must
    # stop at a one-float bracket rather than loop forever
    def one_step(tol):
        cfg = ScenarioConfig(
            plant="FIVE_LINK",
            gait=GaitCommand(L_des=14.4, T=0.3, alpha=0.4),
            constraints=VC,
            duration=1,
            integrator=IntegratorConfig(step_size=1e-3, event_tolerance=tol),
        )
        return run_scenario(cfg).events[0].t

    assert abs(one_step(1e-20) - one_step(1e-15)) <= 1e-15


@pytest.mark.filterwarnings("error")
def test_reduced_overflow_is_a_gait_failure():
    with pytest.raises(GaitFailureError, match="diverged"):
        run_scenario(reduced_config(gait=GaitCommand(L_des=1e308, T=0.3)))
    # at rest on the contact the state stays finite, but no placement reaches
    # a target this large within a 1 ms step
    for source in ("L", "v"):
        cfg = reduced_config(
            gait=GaitCommand(L_des=1e308, T=1e-3),
            integrator=IntegratorConfig(step_size=1e-4),
            initial_velocity=0.0,
            initial_com_x=0.0,
            placement_source=source,
        )
        with pytest.raises(GaitFailureError, match="placement"):
            run_scenario(cfg)


@pytest.mark.parametrize("source", ["L", "v"])
@pytest.mark.parametrize("L_des", [math.nan, math.inf, -math.inf])
def test_controller_placement_rejects_a_non_finite_target(source, L_des):
    # The controller skips the public laws' checks of T and alpha, not that of
    # the target: an infinite one would otherwise clamp to a finite p_des.
    plant = five_link_plant(0.0, source=source)
    state = plant.start()
    plant.begin_step(state, L_des)
    law = "foot_placement_velocity" if source == "v" else "foot_placement_asymptotic"
    y = np.concatenate([state.q, state.dq])
    with pytest.raises(ValidationError, match=f"{law}: non-finite input"):
        simlab._five_link_rhs(plant.model, plant.controller, 0.1, y)


def test_gait_failure_when_swing_never_lands():
    model = PlanarBiped.default()
    controller = WalkingController(model, GaitCommand(L_des=14.4, T=1.0), VC)
    state = assemble_posture(
        model, com_x=0.0, com_z=0.6, swing_foot_x=-0.2, com_velocity=(0.5, 0.0)
    )
    controller.on_step_start(state)
    with pytest.raises(GaitFailureError):
        integrate_step(model, controller, state, 0.1, IntegratorConfig(step_size=1e-3))


# ---------------------------------------------------------------------------
# artifacts
# ---------------------------------------------------------------------------


def test_artifacts_deterministic(tmp_path):
    cfg = reduced_config(duration=2)
    d1, d2 = tmp_path / "a", tmp_path / "b"
    run_scenario(cfg, out_dir=d1)
    run_scenario(cfg, out_dir=d2)
    for name in ("trace.csv", "per_step.csv", "events.csv", "scenario.json"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


def test_artifact_sidecar_checksums(tmp_path):
    cfg = reduced_config(duration=2)
    run_scenario(cfg, out_dir=tmp_path)
    sidecar = json.loads((tmp_path / "scenario.json").read_text())
    assert sidecar["config"] == cfg.to_json_dict()
    for name, entry in sidecar["files"].items():
        blob = (tmp_path / name).read_bytes()
        assert hashlib.sha256(blob).hexdigest() == entry["sha256"]
        assert len(blob) == entry["bytes"]


def test_artifact_csv_round_trip_is_exact(tmp_path):
    cfg = reduced_config(duration=2)
    tr = run_scenario(cfg, out_dir=tmp_path)
    lines = (tmp_path / "trace.csv").read_text().strip().splitlines()
    header = lines[0].split(",")
    assert header == ["t", "step", "x_c", "L", "vx_c"]
    values = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    for j, col in enumerate(header):
        assert np.array_equal(values[:, j], tr.samples[col])  # 17 digits: lossless


def test_artifact_outputs_subset(tmp_path):
    cfg = reduced_config(duration=1, outputs=("trace",))
    run_scenario(cfg, out_dir=tmp_path)
    assert (tmp_path / "trace.csv").exists()
    assert not (tmp_path / "per_step.csv").exists()
    assert not (tmp_path / "events.csv").exists()
    sidecar = json.loads((tmp_path / "scenario.json").read_text())
    assert list(sidecar["files"]) == ["trace.csv"]


def test_duration_zero_writes_headers_only(tmp_path):
    cfg = reduced_config(duration=0)
    tr = run_scenario(cfg, out_dir=tmp_path)
    assert tr.samples["t"].size == 0 and not tr.events and not tr.per_step
    for name in ("trace.csv", "per_step.csv", "events.csv"):
        lines = (tmp_path / name).read_text().strip().splitlines()
        assert len(lines) == 1  # header only
    assert (tmp_path / "scenario.json").exists()


def reference_csv(path, header, rows):
    """The CSV as csv.writer writes it, numbers through format(float(v), ".17g")."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(header))
        for row in rows:
            writer.writerow([v if isinstance(v, str) else format(float(v), ".17g") for v in row])


EXTREMES = [-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, 2.2250738585072014e-308, 0.1, 1 / 3]
CSV_CASES = {
    "empty": [],
    "extremes": [EXTREMES[i : i + 3] for i in range(0, len(EXTREMES), 3)],
    "ints_and_numpy": [
        [0, -7, 2**53 + 1, True],
        [np.float64(-0.0), np.int64(3), np.float32(0.1), np.float64(1e-300)],
    ],
    "strings": [
        ["plain", 1.5, "a,b"],
        ['say "hi"', -0.0, "two\nlines"],
        ["", 5e-324, " lead"],
    ],
    "ragged_and_empty_rows": [[1.0, 2.0], [], [3.0], [""], [4.0, "x", 5.0]],
    "many_chunks": [
        [i * 0.1, -(i / 7.0), float(i), i] for i in range(3 * simlab._CSV_CHUNK_CELLS // 4 + 17)
    ],
}


@pytest.mark.parametrize("case", sorted(CSV_CASES))
def test_write_csv_matches_csv_writer(tmp_path, case):
    rows = CSV_CASES[case]
    width = max((len(r) for r in rows), default=3)
    header = [f"c{i}" for i in range(width)]
    sha, size = simlab.write_csv(tmp_path / "a.csv", header, iter(rows))
    reference_csv(tmp_path / "ref.csv", header, rows)
    blob = (tmp_path / "a.csv").read_bytes()
    assert blob == (tmp_path / "ref.csv").read_bytes()
    assert (sha, size) == (hashlib.sha256(blob).hexdigest(), len(blob))


CELLS = st.one_of(
    st.floats(),
    st.sampled_from(EXTREMES),
    st.integers(-(2**70), 2**70),
    st.text(max_size=4),
)


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(rows=st.lists(st.lists(CELLS, max_size=4), max_size=12), width=st.integers(1, 4))
def test_write_csv_matches_csv_writer_on_generated_rows(rows, width):
    header = [f"c{i}" for i in range(width)]
    with tempfile.TemporaryDirectory() as tmp:
        got = simlab.write_csv(Path(tmp) / "a.csv", header, rows)
        reference_csv(Path(tmp) / "ref.csv", header, rows)
        blob = (Path(tmp) / "a.csv").read_bytes()
        assert blob == (Path(tmp) / "ref.csv").read_bytes()
    assert got == (hashlib.sha256(blob).hexdigest(), len(blob))


def test_write_csv_columns_match_rows(tmp_path):
    rng = np.random.default_rng(3)
    n = 2 * simlab._CSV_CHUNK_CELLS // 3 + 5  # three chunks
    cols = {"t": np.arange(n) * 1e-4, "x": rng.standard_normal(n) * 1e300, "z": -np.zeros(n)}
    cols["x"][:4] = [5e-324, -5e-324, 1e308, -1e308]
    got = simlab.write_csv(tmp_path / "cols.csv", list(cols), cols)
    reference_csv(tmp_path / "ref.csv", list(cols), zip(*cols.values()))
    blob = (tmp_path / "cols.csv").read_bytes()
    assert blob == (tmp_path / "ref.csv").read_bytes()
    assert got == (hashlib.sha256(blob).hexdigest(), len(blob))
    empty = {"t": np.empty(0), "x": np.empty(0)}
    assert simlab.write_csv(tmp_path / "e.csv", ["t", "x"], empty)[1] == len(b"t,x\r\n")


SPECIAL_FLOATS = [-0.0, 0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324, 1e-310, 1e308,
                  float(2**53 + 1), 0.1, 1 / 3]
SPECIAL_INTS = [0, -1, 2**53 + 1, -(2**53) - 1, 2**63 - 1, -(2**63), 7]


@st.composite
def column_dicts(draw):
    """Equal-length float64 and int64 columns of 0 to 3 chunks' worth of rows:
    drawn special values at drawn rows, the rest seeded noise over the whole
    exponent range."""
    width = draw(st.integers(1, 4))
    per_chunk = simlab._CSV_CHUNK_CELLS // width
    edges = [0, 1, per_chunk - 1, per_chunk, per_chunk + 1, 2 * per_chunk, 3 * per_chunk]
    n = draw(st.sampled_from(edges) | st.integers(0, 3 * per_chunk))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cols = {}
    for j in range(width):
        is_int = draw(st.booleans())
        specials = draw(st.lists(st.sampled_from(SPECIAL_INTS if is_int else SPECIAL_FLOATS)
                                 | (st.integers(-(2**63), 2**63 - 1) if is_int else st.floats()),
                                 max_size=6))
        if is_int:
            col = rng.integers(-(2**62), 2**62, n, dtype=np.int64) >> rng.integers(0, 62, n)
        else:
            col = rng.standard_normal(n) * 10.0 ** rng.integers(-320, 308, n).astype(float)
        at = rng.integers(0, max(n, 1), len(specials))
        if n:
            col[at] = np.array(specials, dtype=col.dtype)
        cols[f"c{j}"] = col
    return cols


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(cols=column_dicts())
def test_write_csv_columns_match_rows_on_generated_columns(cols):
    header = list(cols)
    with tempfile.TemporaryDirectory() as tmp:
        got = simlab.write_csv(Path(tmp) / "cols.csv", header, cols)
        reference_csv(Path(tmp) / "ref.csv", header, zip(*cols.values()))
        blob = (Path(tmp) / "cols.csv").read_bytes()
        assert blob == (Path(tmp) / "ref.csv").read_bytes()
    assert got == (hashlib.sha256(blob).hexdigest(), len(blob))


def test_write_csv_columns_hold_one_chunk_at_a_time(tmp_path):
    # The writer formats one block of rows at a time: stacking the whole
    # trace instead would hold 8 MB of floats here, and their text.
    rng = np.random.default_rng(5)
    cols = {f"c{j}": rng.standard_normal(200_000) for j in range(5)}
    tracemalloc.start()
    try:
        simlab.write_csv(tmp_path / "big.csv", list(cols), cols)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000


# ---------------------------------------------------------------------------
# placement-twin comparison
# ---------------------------------------------------------------------------


def test_point_mass_twins_agree_exactly():
    cfg = reduced_config(
        gait=GaitCommand(L_des=0.0, T=0.3, alpha=0.4),
        duration=4,
        initial_velocity=0.5,
    )
    out = lip_vs_alip_comparison(cfg)
    assert out["plant"] == "ALIP"
    assert max(out["gap"]) <= 1e-12  # L = m H v exactly: same law, same numbers
    assert out["mean_gap"] <= 1e-12


def leg_scaled_doc(leg_scale):
    # shrink the legs, fatten the torso: total mass fixed at 32 kg
    m_th, m_sh = 6.8 * leg_scale, 3.2 * leg_scale
    m_to = 32.0 - 2.0 * (m_th + m_sh)

    def rod(m, l):
        return LinkParams(m, l, l / 2, max(m * l * l / 12, 1e-12))

    model = PlanarBiped(
        rod(m_to, 0.625), rod(m_th, 0.4), rod(m_sh, 0.4), rod(m_th, 0.4), rod(m_sh, 0.4)
    )
    return model.to_json_dict()


def test_placement_gap_shrinks_with_leg_mass():
    # the two regulated variables differ by the momentum the legs carry;
    # push the mass into the torso and the disagreement must die with it
    gaps = []
    for scale in (1.0, 0.5, 0.25):
        cfg = ScenarioConfig(
            plant="FIVE_LINK",
            gait=GaitCommand(L_des=0.0, T=0.3, alpha=0.4),
            constraints=VC,
            duration=5,
            integrator=IntegratorConfig(step_size=1e-3),
            initial_velocity=0.5,
            model_doc=leg_scaled_doc(scale),
        )
        assert cfg.build_model().m_total == pytest.approx(32.0)
        gaps.append(lip_vs_alip_comparison(cfg)["mean_gap"])
    assert gaps[0] > gaps[1] > gaps[2] > 0.0
    assert gaps[2] < 0.3 * gaps[0]


# ---------------------------------------------------------------------------
# posture assembly and height profile
# ---------------------------------------------------------------------------


def test_assemble_posture_hits_targets():
    model = PlanarBiped.default()
    st = assemble_posture(
        model, com_x=0.03, com_z=0.58, swing_foot_x=-0.18, swing_foot_z=0.04,
        com_velocity=(0.7, -0.1), torso_pitch=0.05,
    )
    from stridelab.biped import com_position, swing_foot_position

    p_c = com_position(model, st.q)
    p_sw = swing_foot_position(model, st.q)
    assert abs(p_c[0] - 0.03) < 1e-10 and abs(p_c[1] - 0.58) < 1e-10
    assert abs(p_sw[0] + 0.18) < 1e-10 and abs(p_sw[1] - 0.04) < 1e-10
    assert abs(st.q[0] + st.q[1] + st.q[2] - 0.05) < 1e-10
    v_c = com_velocity(model, st.q, st.dq)
    assert abs(v_c[0] - 0.7) < 1e-10 and abs(v_c[1] + 0.1) < 1e-10


def test_assemble_posture_pins_swing_velocity():
    model = PlanarBiped.default()
    st = assemble_posture(
        model, com_x=0.0, com_z=0.6, swing_foot_x=0.2, swing_foot_z=0.01,
        com_velocity=(0.5, 0.0), swing_foot_velocity=(-0.1, -0.3),
    )
    from stridelab.biped import swing_foot_velocity

    v_sw = swing_foot_velocity(model, st.q, st.dq)
    assert abs(v_sw[0] + 0.1) < 1e-10 and abs(v_sw[1] + 0.3) < 1e-10


def test_assemble_posture_unreachable_raises():
    model = PlanarBiped.default()
    with pytest.raises(NumericalError):
        assemble_posture(model, com_x=0.0, com_z=2.0, swing_foot_x=-0.1)


def test_two_link_ik_rejects_non_finite_distance():
    for hip in ((math.nan, 0.6), (math.inf, 0.6)):
        with pytest.raises(NumericalError, match="unreachable"):
            _two_link_ik(hip, (0.0, 0.0), 0.4, 0.4)


def test_sine_height_profile_shape():
    prof = SineHeightProfile(H=0.6, amplitude=0.05, T=0.3)
    z0, dz0, _ = prof(0.0)
    z_mid, dz_mid, _ = prof(0.15)
    z_end, _, _ = prof(0.3)
    assert z0 == pytest.approx(0.6, abs=1e-15)  # each step starts at the floor
    assert z_mid == pytest.approx(0.6 + 0.10, abs=1e-15)  # peak at mid-step
    assert z_end == pytest.approx(0.6, abs=1e-12)
    assert dz0 > 0.0 and abs(dz_mid) < 1e-12
    # derivative columns consistent with the height column
    eps = 1e-7
    for tau in (0.05, 0.11, 0.22):
        z_p = prof(tau + eps)[0]
        z_m = prof(tau - eps)[0]
        assert abs((z_p - z_m) / (2 * eps) - prof(tau)[1]) < 1e-6
        dz_p = prof(tau + eps)[1]
        dz_m = prof(tau - eps)[1]
        assert abs((dz_p - dz_m) / (2 * eps) - prof(tau)[2]) < 1e-5


# ---------------------------------------------------------------------------
# the five-link closed-loop derivative and the recorder row, against
# references built here from the public dynamics terms
# ---------------------------------------------------------------------------

FIVE_GAIT = GaitCommand(L_des=14.4, T=0.35, alpha=0.5)

five_link_states = st.builds(
    dict,
    com_x=st.floats(-0.15, 0.15),
    com_z=st.floats(0.56, 0.64),
    swing_foot_x=st.floats(0.08, 0.35) | st.floats(-0.35, -0.08),
    swing_foot_z=st.floats(0.0, 0.08),
    com_velocity=st.tuples(st.floats(0.2, 1.0), st.floats(-0.1, 0.1)),
    torso_pitch=st.floats(-0.1, 0.1),
)


def five_link_plant(ankle, z_amplitude=0.0, source="L"):
    return simlab._FiveLinkPlant(
        ScenarioConfig(
            plant="FIVE_LINK",
            gait=FIVE_GAIT,
            constraints=VC,
            duration=1,
            ankle_amplitude=ankle,
            z_amplitude=z_amplitude,
            placement_source=source,
        )
    )


def posture(model, kw):
    try:
        return assemble_posture(model, **kw)
    except NumericalError:
        assume(False)


def reference_terms(controller, tau, q, dq):
    """(D, C dq + G, J, Jdot dq, v, y) of one state under a single-state
    controller, from mass_matrix, coriolis_matrix, gravity_vector and
    planar_outputs: v = ddh_d - Kd dy - Kp y is the output acceleration the
    tracking law commands."""
    model, gait = controller.model, controller.gait
    D = mass_matrix(model, q)
    h = coriolis_matrix(model, q, dq) @ dq + gravity_vector(model, q)
    h0, J = planar_outputs(model, q)
    # Jdot dq from the output map's definition h0 = P_sin sin(theta) +
    # P_cos cos(theta) + P_lin q, with theta the running sum of q.
    theta, dtheta = np.cumsum(q), np.cumsum(dq)
    dt2 = dtheta * dtheta
    Jdot_dq = -(model.P_sin @ (np.sin(theta) * dt2)) - model.P_cos @ (np.cos(theta) * dt2)
    h_d, dh_d, ddh_d = virtual_constraint_derivatives(
        controller.vc, gait, min(tau / gait.T, 1.0), controller._h0_start, controller.p_des
    )
    if controller.z_profile is not None:
        h_d[1], dh_d[1], ddh_d[1] = controller.z_profile(min(tau, gait.T))
    y = h0 - h_d
    dy = J @ dq - dh_d
    v = ddh_d - controller.vc.Kd * dy - controller.vc.Kp * y
    return D, h, J, Jdot_dq, v, y


def reference_closed_loop(controller, tau, q, dq):
    """(ddq, u, y) of the input-output linearized closed loop, from
    reference_terms and plain solves: u makes J ddq + Jdot dq = v with the
    ankle torque left out (the tracking law treats it as unknown), and then
    D ddq + C dq + G = B u + B_a u_a."""
    D, h, J, Jdot_dq, v, y = reference_terms(controller, tau, q, dq)
    B = np.vstack([np.zeros(4), np.eye(4)])
    u = np.linalg.solve(J @ np.linalg.solve(D, B), v - Jdot_dq - J @ np.linalg.solve(D, -h))
    rhs = B @ u - h
    rhs[0] += controller.ankle(tau)
    return np.linalg.solve(D, rhs), u, y


def rel_gap(a, b):
    return float(np.max(np.abs(a - b)) / max(np.max(np.abs(b)), 1e-300))


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(
    kw=five_link_states,
    tau=st.floats(0.0, 0.35) | st.floats(0.35, 0.7),  # the guard search runs to 2T
    ankle=st.floats(0.0, 1.5),
    z_amplitude=st.sampled_from([0.0, 0.02]),
    source=st.sampled_from(["L", "v"]),
)
def test_five_link_rhs_matches_reference(kw, tau, ankle, z_amplitude, source):
    plant = five_link_plant(ankle, z_amplitude, source)
    state = posture(plant.model, kw)
    plant.begin_step(state, FIVE_GAIT.L_des)
    y = np.concatenate([state.q, state.dq])
    ydot, u, y_out = simlab._five_link_rhs(plant.model, plant.controller, tau, y)
    ddq, u_ref, y_ref = reference_closed_loop(plant.controller, tau, state.q, state.dq)
    assert np.array_equal(ydot[:5], state.dq)
    assert rel_gap(ydot[5:], ddq) <= 1e-12
    assert rel_gap(u, u_ref) <= 1e-12
    assert rel_gap(y_out, y_ref) <= 1e-12


def equation_gap(lhs, rhs, *terms):
    """max |lhs - rhs|, relative to the largest entry of the terms' sizes."""
    return float(np.max(np.abs(lhs - rhs)) / max(np.max(np.abs(terms)), 1e-300))


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(
    kws=st.lists(five_link_states, min_size=1, max_size=3),
    tau=st.floats(0.0, 0.7),
    ankle=st.sampled_from([0.0]) | st.floats(0.1, 1.5),
    z_amplitude=st.sampled_from([0.0, 0.02]),
    source=st.sampled_from(["L", "v"]),
)
def test_five_link_rhs_satisfies_the_closed_loop_equations(kws, tau, ankle, z_amplitude, source):
    # The derivative's (ddq, u), for one state and for a stack of lanes,
    # satisfy the plant's equations D ddq + C dq + G = B_b u + B_a u_a, and,
    # when no ankle torque disturbs the law, the commanded output
    # acceleration J ddq + Jdot dq = v.
    states = [posture(PlanarBiped.default(), kw) for kw in kws]
    Y = np.array([np.concatenate([s.q, s.dq]) for s in states])
    lanes = five_link_plant(ankle, z_amplitude, source).controller
    lanes.on_step_start(Y)
    ydot, u, _ = simlab._five_link_rhs(lanes.model, lanes, tau, Y)
    u_a, model = lanes.ankle(tau), lanes.model
    B = np.vstack([np.zeros(4), np.eye(4)])
    for i, state in enumerate(states):
        one = five_link_plant(ankle, z_amplitude, source).controller
        one.on_step_start(state)
        ydot_1, u_1, _ = simlab._five_link_rhs(model, one, tau, Y[i])
        D, h, J, Jdot_dq, v, _ = reference_terms(one, tau, state.q, state.dq)
        for ddq_k, u_k in ((ydot_1[5:], u_1), (ydot[i, 5:], u[i])):
            Bu = B @ u_k + np.eye(5)[0] * u_a
            assert equation_gap(D @ ddq_k + h, Bu, np.abs(D) @ np.abs(ddq_k), h, Bu) <= 1e-9
            if u_a == 0.0:
                Jddq_size = np.abs(J) @ np.abs(ddq_k)
                assert equation_gap(J @ ddq_k + Jdot_dq, v, Jddq_size, Jdot_dq, v) <= 1e-9
        assert rel_gap(ydot[i], ydot_1) <= 1e-12
        assert rel_gap(u[i], u_1) <= 1e-12


def test_five_link_rhs_makes_one_checked_solve(monkeypatch):
    # The tracking law and the plant share one solve: with the ankle torque
    # off or on, for one state and for a stack of lanes.
    calls = []
    solve = control._checked_solve

    def counted(*args):
        calls.append(args[0].shape)
        return solve(*args)

    monkeypatch.setattr(control, "_checked_solve", counted)
    state = assemble_posture(PlanarBiped.default(), 0.02, 0.6, -0.2, 0.02, (0.7, 0.0))
    y = np.concatenate([state.q, state.dq])
    for ankle, pair in ((0.0, ()), (1.0, (2,))):
        for Y in (y, np.array([y, y, y])):
            controller = five_link_plant(ankle).controller
            controller.on_step_start(Y if Y.ndim == 2 else state)
            simlab._five_link_rhs(controller.model, controller, 0.1, Y)
            assert calls == [Y.shape[:-1] + pair + (5, 5)]
            calls.clear()


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(
    samples=st.lists(
        st.tuples(
            five_link_states,
            st.floats(0.0, 0.7),
            st.lists(st.floats(-50.0, 50.0), min_size=5, max_size=5),
        ),
        min_size=1,
        max_size=3,
    ),
    ankle=st.floats(0.0, 1.5),
)
def test_five_link_row_matches_centroidal_bit_for_bit(samples, ankle):
    # The per-step row: one column per name after t and step, one row per
    # sample, each row the bits of the sample's centroidal terms alone.
    plant = five_link_plant(ankle)
    model = plant.model
    states = [posture(model, kw) for kw, _, _ in samples]
    taus = np.array([tau for _, tau, _ in samples])
    ys = np.array([np.concatenate([s.q, s.dq]) for s in states])
    ydots = np.array([np.concatenate([s.dq, ddq]) for s, (_, _, ddq) in zip(states, samples)])
    us = np.arange(1.0, 5.0) + np.arange(len(ys))[:, None]
    y_outs = np.arange(-4.0, 0.0) - np.arange(len(ys))[:, None]
    columns = plant.row(taus, ys, us, y_outs, ydots)
    assert len(columns) == len(plant.columns) - 2  # t and step come first
    for i, (state, (_, tau, ddq)) in enumerate(zip(states, samples)):
        cs = centroidal(model, state)
        a_c = com_acceleration(model, state.q, state.dq, ddq)
        dL_c = (
            model.m_total * model.g * cs.p_c[0]
            + plant.controller.ankle(tau)
            - model.m_total * wedge(cs.p_c, a_c)
        )
        expected = (*ys[i], *cs.p_c, *cs.v_c, cs.L, cs.L_c, dL_c, *y_outs[i], *us[i])
        row = [column[i] for column in columns]
        assert np.array(row).tobytes() == np.array(expected).tobytes()


@settings(derandomize=True, database=None, deadline=None, max_examples=6)
@given(
    ankle=st.sampled_from([0.0, 1.0]),
    source=st.sampled_from(["L", "v"]),
    update=st.sampled_from(["continuous", "step_start"]),
    h=st.floats(1e-3, 4e-3),
)
def test_five_link_step_records_the_whole_step_in_one_call(ankle, source, update, h):
    # The five-link recorder contract of integrate_step: one call per step,
    # after the event, with (taus, ys, us, y_outs, ydot=ydots) over the first
    # state, each accepted grid point and the event, each sample the bits of
    # _five_link_rhs at its (tau, y).
    plant = five_link_plant(ankle, source=source)
    plant.controller.placement_update = update
    state = plant.start()
    plant.begin_step(state, FIVE_GAIT.L_des)
    calls = []
    end, t_end = integrate_step(
        plant.model, plant.controller, state, FIVE_GAIT.T, IntegratorConfig(step_size=h),
        lambda *a, **kw: calls.append((a, kw)),
    )
    assert len(calls) == 1
    (taus, ys, us, y_outs), kwargs = calls[0]
    assert list(kwargs) == ["ydot"]
    ydots = kwargs["ydot"]
    n = len(taus)
    for array_, shape in ((taus, (n,)), (ys, (n, 10)), (us, (n, 4)), (y_outs, (n, 4)),
                          (ydots, (n, 10))):
        assert isinstance(array_, np.ndarray) and array_.dtype == np.float64
        assert array_.shape == shape
    assert taus[0] == 0.0 and taus[-1] == t_end and np.all(np.diff(taus) > 0)
    assert np.all(np.diff(taus[:-1]) == pytest.approx(h, rel=1e-9))
    assert 0.0 < t_end - taus[-2] <= h
    assert bits(ys[0]) == bits(np.concatenate([state.q, state.dq]))
    assert bits(ys[-1]) == bits(np.concatenate([end.q, end.dq]))
    for tau, y, u, y_out, ydot in zip(taus.tolist(), ys, us, y_outs, ydots):
        ydot_1, u_1, y_out_1 = simlab._five_link_rhs(plant.model, plant.controller, tau, y)
        assert (bits(ydot), bits(u), bits(y_out)) == (bits(ydot_1), bits(u_1), bits(y_out_1))


# ---------------------------------------------------------------------------
# lanes: a stack of states steps as one, and each row matches its single state
# ---------------------------------------------------------------------------


@settings(derandomize=True, database=None, deadline=None, max_examples=30)
@given(
    kws=st.lists(five_link_states, min_size=1, max_size=4),
    tau=st.floats(0.0, 0.7),
    ankle=st.floats(0.0, 1.5),
    z_amplitude=st.sampled_from([0.0, 0.02]),
    source=st.sampled_from(["L", "v"]),
    update=st.sampled_from(["continuous", "step_start"]),
)
def test_stacked_rhs_rows_match_single_states(kws, tau, ankle, z_amplitude, source, update):
    plant = five_link_plant(ankle, z_amplitude, source)
    plant.controller.placement_update = update
    states = [posture(plant.model, kw) for kw in kws]
    Y = np.array([np.concatenate([s.q, s.dq]) for s in states])
    lanes = plant.controller
    lanes.on_step_start(Y)
    ydot, u, y_out = simlab._five_link_rhs(plant.model, lanes, tau, Y)
    assert ydot.shape == Y.shape and u.shape == y_out.shape == (len(Y), 4)
    for i, state in enumerate(states):
        one = five_link_plant(ankle, z_amplitude, source).controller
        one.placement_update = update
        one.on_step_start(state)
        ydot_1, u_1, y_out_1 = simlab._five_link_rhs(plant.model, one, tau, Y[i])
        assert rel_gap(ydot[i], ydot_1) <= 1e-12
        assert rel_gap(u[i], u_1) <= 1e-12
        assert abs(lanes.p_des[i] - one.p_des) <= 1e-12


@pytest.fixture(scope="module")
def orbit_map():
    """A one-step five-link return map and a post-impact state on its gait."""
    cfg = ScenarioConfig(
        plant="FIVE_LINK",
        gait=FIVE_GAIT,
        constraints=VC,
        duration=2,
        integrator=IntegratorConfig(step_size=1e-3),
    )
    plus = run_scenario(cfg).events[-1].state_plus
    step_map = simlab.make_five_link_return_map(
        cfg.build_model(), FIVE_GAIT, VC, cfg.integrator, steps_per_return=1
    )
    return step_map, np.concatenate([plus.q, plus.dq]), cfg


# Faster or slower stance-shin rates move each touchdown by several 1 ms grid
# steps.
SPREAD_LANES = np.outer([0.0, 0.3, -0.3], np.eye(10)[5])


def test_stacked_lanes_cross_at_different_grid_steps(orbit_map):
    _, x0, cfg = orbit_map
    X = x0 + SPREAD_LANES
    model = cfg.build_model()
    lanes = WalkingController(model, FIVE_GAIT, VC)
    lanes.on_step_start(X)
    y_minus, t_minus = integrate_step(model, lanes, X, FIVE_GAIT.T, cfg.integrator)
    assert y_minus.shape == X.shape and t_minus.shape == (3,)
    assert len(set(np.floor(t_minus / cfg.integrator.step_size))) == 3
    for i, (x, y, t) in enumerate(zip(X, y_minus, t_minus)):
        one = WalkingController(model, FIVE_GAIT, VC)
        state = sl.BipedState(x[:5], x[5:])
        one.on_step_start(state)
        s_1, t_1 = integrate_step(model, one, state, FIVE_GAIT.T, cfg.integrator)
        assert abs(t - t_1) <= 1e-12
        assert np.max(np.abs(y - np.concatenate([s_1.q, s_1.dq]))) <= 1e-12 * np.max(np.abs(y))
        assert abs(lanes.p_des[i] - one.p_des) <= 1e-12  # the placement at each event


@settings(derandomize=True, database=None, deadline=None, max_examples=6)
@example(offsets=[[0.01] * 10])  # a stack of one
@example(offsets=SPREAD_LANES.tolist())  # lanes crossing in three different grid steps
@given(
    offsets=st.lists(
        st.lists(st.floats(-0.05, 0.05), min_size=10, max_size=10), min_size=1, max_size=3
    )
)
def test_stacked_map_rows_match_single_states(orbit_map, offsets):
    step_map, x0, _ = orbit_map
    X = x0 + np.array(offsets)
    images = step_map(X)
    assert images.shape == X.shape
    for x, image in zip(X, images):
        alone = step_map(x)
        assert np.max(np.abs(image - alone)) <= 1e-12 * np.max(np.abs(alone))


def test_stacked_map_rejects_bad_stacks(orbit_map):
    step_map, x0, _ = orbit_map
    for bad in (np.zeros((0, 10)), np.zeros((2, 9)), np.full((2, 10), np.nan)):
        with pytest.raises(ValidationError, match="stack"):
            step_map(bad)
    model = PlanarBiped.default()
    with pytest.raises(ValidationError, match="recorder"):
        integrate_step(
            model,
            WalkingController(model, FIVE_GAIT, VC),
            x0[None],
            FIVE_GAIT.T,
            IntegratorConfig(step_size=1e-3),
            lambda *args, **kwargs: None,
        )
