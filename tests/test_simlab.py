"""Hybrid rollouts: reduced plants against exact transition oracles,
five-link stepping against its own conservation laws and event bookkeeping,
artifact determinism/round-trip, and the twin-placement comparison protocol.
"""

import csv
import dataclasses
import hashlib
import itertools
import json
import math
import operator
import sys
import tempfile
import tracemalloc
import warnings
from array import array
from pathlib import Path
from unittest import mock

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
from stridelab import analysis, cli, control, simlab
from stridelab.biped import (
    _D0,
    _JC,
    _PC,
    _centroidal_terms,
    _impact_solution,
    _state_rows,
    _term_rows,
    centroidal,
    com_acceleration,
    com_velocity,
    coriolis_matrix,
    gravity_vector,
    impact_map,
    mass_matrix,
    swing_foot_position,
)
from stridelab.control import (
    foot_placement_asymptotic,
    foot_placement_velocity,
    planar_outputs,
    predict_L_end,
    virtual_constraint_derivatives,
)
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
    duration = ScenarioConfig.from_json(doc).duration
    assert duration == 3 and type(duration) is int  # integral floats narrow to int


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
    samples in integrate_step's whole-step layout, with no torque column."""
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
    samples = [(tau, *y)]
    for i in range(n_full):
        y = _rk4(f, tau, y, h)
        tau = (i + 1) * h
        samples.append((tau, *y))
    rem = T - tau
    assert rem > 1e-12  # the drawn h leaves a remainder step
    y = _rk4(f, tau, y, rem)
    samples.append((T, *y))
    if recorder is not None:
        taus, xs, vs = zip(*samples)
        recorder(np.array(taus), (array("d", xs), array("d", vs)), None, None)
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
    # step with (taus, (xs, vs), None, None), the grid from 0 to T, bit for
    # bit the samples of the array RK4 stepped one numpy array at a time.
    cfg = IntegratorConfig(step_size=T / (n + frac))
    state = AlipState(x_c=x0, L=L0) if plant == "ALIP" else LipState(x_c=x0, v_c=L0 / MH)
    controller = SineAnkle(ankle, T) if ankle else None
    calls = []
    end, t_end = integrate_step(
        PARAMS, controller, state, T, cfg, lambda *a, **kw: calls.append((a, kw))
    )
    assert len(calls) == 1
    (taus, y, us, y_out), kwargs = calls[0]
    assert kwargs == {} and us is None and y_out is None and t_end == T
    assert isinstance(taus, np.ndarray) and taus.dtype == np.float64 and taus.ndim == 1
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
        lambda taus, y, us, y_out: ref.extend(zip(taus.tolist(), *y)),
    )
    assert [bits(float(v)) for v in taus] == [bits(r[0]) for r in ref]
    assert [bits(v) for v in xs] == [bits(float(r[1])) for r in ref]
    assert [bits(v) for v in vs] == [bits(float(r[2])) for r in ref]


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
    y = state.q.tolist() + state.dq.tolist()
    with pytest.raises(ValidationError, match=f"{law}: non-finite input"):
        simlab._five_link_rhs(plant.model, plant.controller, 0.1, y)


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(p_raw=st.lists(
    st.sampled_from([0.0, -0.0, 0.2, -0.2, 0.5, -0.5]) | st.floats(allow_nan=True),
    min_size=1, max_size=6,
))
def test_lanes_clamp_each_placement_as_one_state_does(p_raw):
    # Lanes clamp in one array operation: the bits of _clamp on each lane's
    # raw target, -0.0 and NaN included, inside the reach and beyond it on
    # either side (+-0.2 and +-0.5 m straddle the default p_max).
    plant = five_link_plant(0.0)
    state, controller = plant.start(), plant.controller
    assert 0.2 < controller._p_max < 0.5
    Y = np.tile(np.concatenate([state.q, state.dq]), (len(p_raw), 1))
    rows = _term_rows(controller.model, Y[:, :5], Y[:, 5:])
    with mock.patch.object(simlab, "_placement_from", lambda *args: np.array(p_raw)):
        clamped = controller._placement(rows, Y[:, 5:], 0.1)
    expected = np.array([controller._clamp(v) for v in p_raw])
    assert clamped.tobytes() == expected.tobytes()


def test_gait_failure_when_swing_never_lands():
    model = PlanarBiped.default()
    controller = WalkingController(model, GaitCommand(L_des=14.4, T=1.0), VC)
    state = assemble_posture(
        model, com_x=0.0, com_z=0.6, swing_foot_x=-0.2, com_velocity=(0.5, 0.0)
    )
    controller.on_step_start(state)
    with pytest.raises(GaitFailureError):
        integrate_step(model, controller, state, 0.1, IntegratorConfig(step_size=1e-3))


def test_swing_height_of_an_infinite_angle_is_nan():
    # The guard reads a non-finite height as not crossed; math.cos of an
    # infinity raises, which the guard must not pass on.
    model = PlanarBiped.default()
    for bad in (math.inf, -math.inf, math.nan):
        y = [0.1, bad, 0.0, 0.2, -0.3] + [0.0] * 5
        assert math.isnan(simlab._swing_z(model, y))
        with np.errstate(invalid="ignore"):
            assert np.isnan(simlab._swing_z(model, np.array([y]))).all()
    y = [0.1, -0.2, 0.05, 0.3, -0.4] + [0.0] * 5
    assert abs(simlab._swing_z(model, y) - swing_foot_position(model, y[:5])[1]) < 1e-15


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
    "many_chunks": [
        [i * 0.1, -(i / 7.0), float(i), i] for i in range(3 * simlab._CSV_CHUNK_CELLS // 4 + 17)
    ],
}


@pytest.mark.parametrize("case", sorted(CSV_CASES))
def test_write_csv_matches_csv_writer(tmp_path, case):
    rows = CSV_CASES[case]
    width = max((len(r) for r in rows), default=3)
    header = [f"c{i}" for i in range(width)]
    cols = {name: [row[j] for row in rows] for j, name in enumerate(header)}
    sha, size = simlab.write_csv(tmp_path / "a.csv", cols)
    reference_csv(tmp_path / "ref.csv", header, rows)
    blob = (tmp_path / "a.csv").read_bytes()
    assert blob == (tmp_path / "ref.csv").read_bytes()
    assert (sha, size) == (hashlib.sha256(blob).hexdigest(), len(blob))


def test_write_csv_columns_match_rows(tmp_path):
    rng = np.random.default_rng(3)
    n = 2 * simlab._CSV_CHUNK_CELLS // 3 + 5  # three chunks
    cols = {"t": np.arange(n) * 1e-4, "x": rng.standard_normal(n) * 1e300, "z": -np.zeros(n)}
    cols["x"][:4] = [5e-324, -5e-324, 1e308, -1e308]
    got = simlab.write_csv(tmp_path / "cols.csv", cols)
    reference_csv(tmp_path / "ref.csv", list(cols), zip(*cols.values()))
    blob = (tmp_path / "cols.csv").read_bytes()
    assert blob == (tmp_path / "ref.csv").read_bytes()
    assert got == (hashlib.sha256(blob).hexdigest(), len(blob))
    empty = {"t": np.empty(0), "x": np.empty(0)}
    assert simlab.write_csv(tmp_path / "e.csv", empty)[1] == len(b"t,x\r\n")


EVENT_COLS = ["step", "t", "L_minus", "L_plus", "vx_c_minus", "vz_c_minus", "p2to1_x", "p2to1_z",
              "impulse_x", "impulse_z", "placement"]


@pytest.mark.parametrize("plant", ["FIVE_LINK", "ALIP"])
def test_per_step_and_events_csv_match_csv_writer(tmp_path, plant):
    cfg = reduced_config(
        plant=plant, gait=GaitCommand(L_des=14.4, T=0.35, alpha=0.5), duration=2
    )
    tr = run_scenario(cfg, out_dir=tmp_path)
    names = [f.name for f in dataclasses.fields(simlab.StepRecord)]
    reference_csv(tmp_path / "per_step.ref", names,
                  ([getattr(r, name) for name in names] for r in tr.per_step))
    reference_csv(tmp_path / "events.ref", EVENT_COLS, (
        [e.step, e.t, e.L_minus, e.L_plus, *e.v_c_minus, *e.p_2to1,
         *((0.0, 0.0) if e.impulse is None else e.impulse), e.placement]
        for e in tr.events
    ))
    for name in ("per_step", "events"):
        assert (tmp_path / f"{name}.csv").read_bytes() == (tmp_path / f"{name}.ref").read_bytes()
    assert len(tr.events) == 2 and all((e.impulse is None) == (plant == "ALIP") for e in tr.events)


def test_cli_csv_matches_csv_writer(tmp_path, capsys):
    assert cli.main(["bode", "--points", "5", "--out", str(tmp_path)]) == 0
    params = PendulumParams(m=PlanarBiped.default().m_total, H=cli._H)
    omega = np.logspace(np.log10(params.ell * 1e-3), np.log10(params.ell * 1e3), 5)
    gains = [sl.error_transfer_magnitude(kind, omega, params) for kind in ("ALIP", "LIP")]
    reference_csv(tmp_path / "bode.ref", ["omega", "alip_gain", "lip_gain"], zip(omega, *gains))
    assert (tmp_path / "bode.csv").read_bytes() == (tmp_path / "bode.ref").read_bytes()


# One cheap run of each other subcommand that writes a table, with the gait
# flags spelled out so the library recomputation below needs no CLI default.
CLI_GAIT = ["--T", "0.3", "--H", "0.6", "--z-cl", "0.07"]
CLI_ROLLOUT = CLI_GAIT + ["--alpha", "0.4", "--steps", "2", "--step-size", "0.01"]


def cli_rollout_config(plant, l_des, v0, **extras):
    return ScenarioConfig(
        plant=plant,
        gait=GaitCommand(L_des=l_des, T=0.3, alpha=0.4),
        constraints=VirtualConstraintSpec(H=0.6, z_cl=0.07),
        duration=2,
        integrator=IntegratorConfig(step_size=0.01),
        initial_velocity=v0,
        **extras,
    )


def cli_table_kalman():
    cols = sl.kalman_demo_columns(
        PendulumParams(m=PlanarBiped.default().m_total, H=0.6),
        L_des=9.6, T=0.3, sigma=0.5, n_samples=50, seed=3, dt=1e-3, Q=1e-4,
    )
    return cols.keys(), zip(*cols.values())


def cli_table_poincare():
    params = PendulumParams(m=PlanarBiped.default().m_total, H=0.6)
    rows = []
    for a in (0.2, 0.5):
        res = sl.alip_closed_loop_poincare(params, 0.3, a, 1.5, steps_per_return=2)
        lam = res.eigenvalues
        rows.append((a, abs(lam[0]), lam[0].real, lam[1].real, *res.fixed_point))
    return ("alpha", "dominant", "lambda1", "lambda2", "x_star", "L_star"), rows


def cli_table_compare():
    res = simlab.lip_vs_alip_comparison(
        cli_rollout_config("ALIP", 9.6, 0.5, placement_update="step_start")
    )
    L, v = res["summary"]["L"], res["summary"]["v"]
    rows = zip(range(len(res["gap"])), L["placements"], v["placements"], L["mean_vx"],
               v["mean_vx"], res["gap"])
    return ("step", "placement_L", "placement_v", "mean_vx_L", "mean_vx_v", "gap"), rows


def cli_table_fidelity():
    params = PendulumParams(m=PlanarBiped.default().m_total, H=0.6)
    trace = simlab.run_scenario(cli_rollout_config("FIVE_LINK", 44.5, 2.0, z_amplitude=0.0))
    rows = []
    for k, (t, pred_L, pred_v) in enumerate(analysis._fidelity_segments(trace, params, 0.3)):
        rows.extend(zip(t, [k] * len(t), pred_L, pred_v))
    return ("t", "step", "predicted_L_over_mH", "predicted_v"), rows


def cli_table_error_decomp():
    params = PendulumParams(m=PlanarBiped.default().m_total, H=0.6)
    trace = simlab.run_scenario(cli_rollout_config("FIVE_LINK", 15.36, 0.8, ankle_amplitude=0.5))
    s = trace.samples
    rows = []
    for (i0, i1), rec in zip(analysis._step_slices(trace, 0.3), trace.per_step):
        t = s["t"][i0:i1]
        d = sl.error_terms((t, s["L_c"][i0:i1]), (t, s["dL_c"][i0:i1]), params, t[0], t[-1])
        scale = max(abs(d.e1), abs(d.e2), abs(d.e3))
        rows.append((rec.step, d.e1, d.e2, d.e3, abs(d.e1 - (d.e2 + d.e3)) / scale))
    return ("step", "e1", "e2", "e3", "identity_residual"), rows


CLI_TABLES = {
    "kalman": (["kalman-demo", "--H", "0.6", "--T", "0.3", "--l-des", "9.6", "--sigma", "0.5",
                "--samples", "50", "--seed", "3", "--dt", "1e-3", "--Q", "1e-4"],
               cli_table_kalman),
    "poincare": (["poincare", "--alpha-grid", "0.2,0.5", "--plant", "ALIP", "--l-des", "1.5",
                  "--steps-per-return", "2"] + CLI_GAIT, cli_table_poincare),
    "comparison": (["compare-lip-alip", "--plant", "ALIP", "--l-des", "9.6",
                    "--initial-velocity", "0.5"] + CLI_ROLLOUT, cli_table_compare),
    "fidelity": (["predict-fidelity", "--l-des", "44.5", "--initial-velocity", "2.0",
                  "--z-amplitude", "0"] + CLI_ROLLOUT, cli_table_fidelity),
    "error_decomp": (["error-decomp", "--l-des", "15.36", "--initial-velocity", "0.8",
                      "--ankle-amplitude", "0.5"] + CLI_ROLLOUT, cli_table_error_decomp),
}


@pytest.mark.parametrize("name", sorted(CLI_TABLES))
def test_cli_table_matches_library_through_csv_writer(tmp_path, capsys, name):
    argv, table = CLI_TABLES[name]
    assert cli.main(argv + ["--out", str(tmp_path)]) == 0
    assert capsys.readouterr().out.endswith(f"wrote {tmp_path / name}.csv\n")
    reference_csv(tmp_path / f"{name}.ref", *table())
    assert (tmp_path / f"{name}.csv").read_bytes() == (tmp_path / f"{name}.ref").read_bytes()


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
        got = simlab.write_csv(Path(tmp) / "cols.csv", cols)
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
        simlab.write_csv(tmp_path / "big.csv", cols)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000


def g17_reference(block):
    """The rows of a 2-D block as write_csv's fallback writes them."""
    return "".join(
        ",".join(format(float(v), ".17g") for v in row) + "\r\n" for row in block.tolist()
    ).encode()


def nudged(v, steps):
    """v moved `steps` doubles up (down if negative)."""
    for _ in range(abs(steps)):
        v = math.nextafter(v, math.copysign(math.inf, steps))
    return v


# The encoder's edges: each power of ten from 1e-28 to 1e17 and its
# neighbours, both ends of the domain and the doubles just outside them,
# exact ties such as 1000000000000000.25 (dyadic fractions past 1e12),
# integral floats and signed zeros, and random mantissas at every exponent.
G17_CELLS = st.one_of(
    st.builds(lambda k, d: nudged(float(f"1e{k}"), d), st.integers(-28, 17), st.integers(-2, 2)),
    st.sampled_from([1e-28, nudged(1e-28, -1), nudged(1e17, -1), 1e17, 0.0, -0.0,
                     1000000000000000.25, 999999999999999.875, 0.5, 2.5, 1e-6, 1e-7]),
    st.builds(lambda i, e: i * 2.0**e, st.integers(-(2**53), 2**53), st.integers(-3, 3)),
    st.builds(lambda m, e: m * 10.0**e, st.floats(1.0, 10.0, exclude_max=True),
              st.integers(-28, 16)),
)


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(rows=st.integers(1, 4).flatmap(
    lambda width: st.lists(st.lists(G17_CELLS | G17_CELLS.map(operator.neg),
                                    min_size=width, max_size=width), min_size=1, max_size=6)))
def test_g17_rows_match_format_on_generated_cells(rows):
    # Inside the domain (0, or |x| in [1e-28, 1e17)) the encoder proves the
    # block and writes format's bytes; one cell outside it sends the whole
    # block to the fallback.
    block = np.array(rows)
    got = simlab._g17_rows(block)
    if all(v == 0.0 or 1e-28 <= abs(v) < 1e17 for v in block.ravel()):
        assert got == g17_reference(block)
    else:
        assert got is None


# Cells the encoder leaves to "%.17g": not finite, outside [1e-28, 1e17), and
# a near-tie below 1e-6, where the remainder is good to 1e-14 only: this
# one times 10^23 lies 2.4e-8 from a half.
@pytest.mark.parametrize("poison", [math.nan, 1e300, 5.766281328811719e-07])
def test_write_csv_encodes_around_a_fallback_chunk(tmp_path, poison):
    # Three chunks; the poison cell sends only the middle one through "%.17g".
    width = 3
    n = simlab._CSV_CHUNK_CELLS // width  # rows per chunk
    rng = np.random.default_rng(11)
    cols = {f"c{j}": rng.standard_normal(3 * n) * 10.0 ** rng.integers(-9, 9, 3 * n)
            for j in range(width)}
    cols["c1"][n + 5] = poison
    blocks = [np.column_stack([c[i : i + n] for c in cols.values()]) for i in (0, n, 2 * n)]
    assert [simlab._g17_rows(b) is None for b in blocks] == [False, True, False]
    got = simlab.write_csv(tmp_path / "mixed.csv", cols)
    reference_csv(tmp_path / "ref.csv", list(cols), zip(*cols.values()))
    blob = (tmp_path / "mixed.csv").read_bytes()
    assert blob == (tmp_path / "ref.csv").read_bytes()
    assert got == (hashlib.sha256(blob).hexdigest(), len(blob))


@pytest.mark.parametrize("workload", ["simulate-alip", "simulate-five-link"])
def test_g17_rows_prove_every_block_of_the_benchmark_traces(tmp_path, monkeypatch, workload):
    # A block the encoder cannot prove costs the fallback's "%.17g", about
    # three times as much: on the benchmark's seed-0 traces none may.
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
    try:
        from rhs_timeit import scenario_doc
    finally:
        sys.path.pop(0)
    encode, results = simlab._g17_rows, []

    def recorded(block):
        results.append(encode(block))
        return results[-1]

    trace = run_scenario(ScenarioConfig.from_json(scenario_doc(workload)))
    monkeypatch.setattr(simlab, "_g17_rows", recorded)
    simlab.write_csv(tmp_path / "trace.csv", trace.samples)
    assert len(results) > 1 and all(r is not None for r in results)


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


def placement_oracle(controller, tau, state):
    """The placement law at in-step time tau from the public laws: the
    end-of-step momentum (predict_L_end at T - tau) or CoM velocity (its LIP
    counterpart) predicted from centroidal(state), through
    foot_placement_asymptotic or foot_placement_velocity toward the
    controller's L_des, clamped to the leg's reach from a hip 8 cm above H."""
    model, gait, params = controller.model, controller.gait, controller.params
    cs, remaining = centroidal(model, state), max(gait.T - tau, 0.0)
    if controller.placement_source == "v":
        ell, mH = params.ell, params.m * params.H
        sh, ch = math.sinh(ell * remaining), math.cosh(ell * remaining)
        v_hat = ell * sh * cs.p_c[0] + ch * cs.v_c[0]
        p = foot_placement_velocity(params, v_hat, controller.L_des / mH, gait.T, gait.alpha)
    else:
        L_hat = predict_L_end(params, cs.p_c[0], cs.L, remaining)
        p = foot_placement_asymptotic(params, L_hat, controller.L_des, gait.T, gait.alpha)
    reach, hip_z = 0.97 * (model.thigh.length + model.shin.length), params.H + 0.08
    p_max = math.sqrt(reach * reach - hip_z * hip_z)
    return min(max(p, -p_max), p_max)


def reference_terms(controller, tau, q, dq):
    """(D, C dq + G, J, Jdot dq, v, y) of one state under a single-state
    controller, from mass_matrix, coriolis_matrix, gravity_vector and
    planar_outputs: v = ddh_d - Kd dy - Kp y is the output acceleration the
    tracking law commands toward the step's committed placement
    ("step_start") or placement_oracle's."""
    model, gait = controller.model, controller.gait
    p_des = controller.p_des
    if controller.placement_update == "continuous":
        p_des = placement_oracle(controller, tau, sl.BipedState(q, dq))
    D = mass_matrix(model, q)
    h = coriolis_matrix(model, q, dq) @ dq + gravity_vector(model, q)
    h0, J = planar_outputs(model, q)
    # Jdot dq from the output map's definition h0 = P_sin sin(theta) +
    # P_cos cos(theta) + P_lin q, with theta the running sum of q.
    theta, dtheta = np.cumsum(q), np.cumsum(dq)
    dt2 = dtheta * dtheta
    Jdot_dq = -(model.P_sin @ (np.sin(theta) * dt2)) - model.P_cos @ (np.cos(theta) * dt2)
    h_d, dh_d, ddh_d = virtual_constraint_derivatives(
        controller.vc, gait, min(tau / gait.T, 1.0), controller._h0_start, p_des
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
    y = state.q.tolist() + state.dq.tolist()
    ydot, u, y_out, _ = map(np.array, simlab._five_link_rhs(plant.model, plant.controller, tau, y))
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
    # The derivative's (ddq, u), for one state with no ankle torque and with
    # the drawn one, and for a stack of lanes (which takes none), satisfy
    # the plant's equations D ddq + C dq + G = B_b u + B_a u_a, and, when no
    # ankle torque disturbs the law, the commanded output acceleration
    # J ddq + Jdot dq = v.
    states = [posture(PlanarBiped.default(), kw) for kw in kws]
    Y = np.array([np.concatenate([s.q, s.dq]) for s in states])
    lanes = five_link_plant(0.0, z_amplitude, source).controller
    lanes.on_step_start(Y)
    ydot, u, _, _ = simlab._five_link_rhs(lanes.model, lanes, tau, Y)
    model = lanes.model
    B = np.vstack([np.zeros(4), np.eye(4)])
    for i, state in enumerate(states):
        derivatives = [(0.0, ydot[i], u[i])]  # (u_a, ydot, u): lane i, then one state
        for amplitude in dict.fromkeys((0.0, ankle)):
            one = five_link_plant(amplitude, z_amplitude, source).controller
            one.on_step_start(state)
            ydot_1, u_1, _, _ = map(np.array, simlab._five_link_rhs(model, one, tau, Y[i].tolist()))
            derivatives.append((one.ankle(tau), ydot_1, u_1))
        D, h, J, Jdot_dq, v, _ = reference_terms(one, tau, state.q, state.dq)
        for u_a, ydot_k, u_k in derivatives:
            ddq_k, Bu = ydot_k[5:], B @ u_k + np.eye(5)[0] * u_a
            assert equation_gap(D @ ddq_k + h, Bu, np.abs(D) @ np.abs(ddq_k), h, Bu) <= 1e-9
            if u_a == 0.0:
                Jddq_size = np.abs(J) @ np.abs(ddq_k)
                assert equation_gap(J @ ddq_k + Jdot_dq, v, Jddq_size, Jdot_dq, v) <= 1e-9
        _, ydot_1, u_1 = derivatives[1]  # one state without ankle torque, as the lanes
        assert rel_gap(ydot[i], ydot_1) <= 1e-12
        assert rel_gap(u[i], u_1) <= 1e-12


def test_five_link_rhs_makes_one_checked_solve(monkeypatch):
    # The tracking law and the plant share one solve: for one state with the
    # ankle torque off or on, and for a stack of lanes, which takes none.
    # Each solves through control's LAPACK gufunc, which np.linalg.solve (in
    # _checked_solve) would call again for a failing solve: every solve is
    # counted.
    calls = []

    def counted(solve):
        def call(*args, **kwargs):
            calls.append(args[0].shape)
            return solve(*args, **kwargs)

        return call

    state = assemble_posture(PlanarBiped.default(), 0.02, 0.6, -0.2, 0.02, (0.7, 0.0))
    y = np.concatenate([state.q, state.dq])
    for owner, name in ((np.linalg, "solve"), (control, "_solve1")):
        monkeypatch.setattr(owner, name, counted(getattr(owner, name)))
    for ankle, Y, shape in (
        (0.0, y.tolist(), (5, 5)),
        (1.0, y.tolist(), (2, 5, 5)),
        (0.0, np.array([y, y, y]), (3, 5, 5)),
    ):
        controller = five_link_plant(ankle).controller
        controller.on_step_start(state if type(Y) is list else Y)
        simlab._five_link_rhs(controller.model, controller, 0.1, Y)
        assert calls == [shape]
        calls.clear()


def test_singular_law_raises_without_a_warning():
    # Swing foot on the stance foot, every link upright: the gufunc's NaN
    # raises numpy's invalid flag, which the public law and integrate_step
    # hold, so the caller sees the error alone, with or without an ankle torque.
    model, state = PlanarBiped.default(), sl.BipedState(np.zeros(5), np.zeros(5))
    message = ("io_linearizing_torque (decoupling matrix): singular matrix"
               " (condition estimate inf)")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(sl.SingularMatrixError) as exc:
            sl.io_linearizing_torque(model, state, *np.zeros((3, 4)))
        assert str(exc.value) == message
        for ankle_fn in (None, lambda tau: 2.0):
            gait = GaitCommand(L_des=14.4, T=0.35, alpha=0.5)
            controller = WalkingController(model, gait, VC, ankle_fn=ankle_fn)
            controller.on_step_start(state)
            with pytest.raises(sl.SingularMatrixError) as exc:
                integrate_step(model, controller, state, 0.35, IntegratorConfig())
            assert str(exc.value) == message


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
    # The centroidal terms integrate_step forms from each sample's derivative.
    terms = [
        _centroidal_terms(model, _state_rows(model, s.q.tolist(), s.dq.tolist())[1],
                          s.dq.tolist(), ddq)
        for s, (_, _, ddq) in zip(states, samples)
    ]
    us = np.arange(1.0, 5.0) + np.arange(len(ys))[:, None]
    y_outs = np.arange(-4.0, 0.0) - np.arange(len(ys))[:, None]
    columns = plant.row(taus, ys, us, y_outs, terms)
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
    # after the event, with (taus, ys, us, y_outs, centroidal=terms) over the
    # first state, each accepted grid point and the event, each sample the
    # bits of _five_link_rhs at its (tau, y) and of the centroidal terms of
    # its derivative.
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
    assert list(kwargs) == ["centroidal"]
    terms = kwargs["centroidal"]
    n = len(taus)
    for array_, shape in ((taus, (n,)), (ys, (n, 10)), (us, (n, 4)), (y_outs, (n, 4))):
        assert isinstance(array_, np.ndarray) and array_.dtype == np.float64
        assert array_.shape == shape
    assert len(terms) == n
    assert taus[0] == 0.0 and taus[-1] == t_end and np.all(np.diff(taus) > 0)
    assert np.all(np.diff(taus[:-1]) == pytest.approx(h, rel=1e-9))
    assert 0.0 < t_end - taus[-2] <= h
    assert bits(ys[0]) == bits(np.concatenate([state.q, state.dq]))
    assert bits(ys[-1]) == bits(np.concatenate([end.q, end.dq]))
    for tau, y, u, y_out, term in zip(taus.tolist(), ys.tolist(), us, y_outs, terms):
        ydot_1, u_1, y_out_1, rows_1 = simlab._five_link_rhs(
            plant.model, plant.controller, tau, y
        )
        term_1 = _centroidal_terms(plant.model, rows_1, y[5:], ydot_1[5:])
        assert (bits(u), bits(y_out)) == (bits(np.array(u_1)), bits(np.array(y_out_1)))
        assert bits(np.hstack(term)) == bits(np.hstack(term_1))


def test_controller_keeps_no_per_sample_state():
    # The controller holds step context only: under either placement update,
    # a recorded one-state step (with an ankle torque) and a step of lanes
    # leave every attribute as it was.
    for update, (ankle, lanes) in itertools.product(
        ("continuous", "step_start"), ((1.0, False), (0.0, True))
    ):
        plant = five_link_plant(ankle)
        plant.controller.placement_update = update
        state = plant.start()
        x0 = np.concatenate([state.q, state.dq])
        start = x0 + np.outer([0.0, 0.01], np.eye(10)[5]) if lanes else state
        plant.begin_step(start, FIVE_GAIT.L_des)
        controller = plant.controller
        before = {name: (value, repr(value)) for name, value in vars(controller).items()}
        recorder = None if lanes else (lambda *a, **kw: None)
        integrate_step(plant.model, controller, start, FIVE_GAIT.T,
                       IntegratorConfig(step_size=2e-3), recorder)
        after = vars(controller)
        changed = {name for name in before.keys() | after.keys()
                   if name not in before or name not in after
                   or after[name] is not before[name][0] or repr(after[name]) != before[name][1]}
        assert not changed, (update, lanes)


def test_controller_refuses_lanes_under_an_ankle_torque():
    plant = five_link_plant(1.0)
    state = plant.start()
    with pytest.raises(ValidationError, match="ankle torque") as info:
        plant.begin_step(np.concatenate([state.q, state.dq])[None], FIVE_GAIT.L_des)
    assert "\n" not in str(info.value)


@pytest.mark.parametrize("update", ["continuous", "step_start"])
@pytest.mark.parametrize("source", ["L", "v"])
@pytest.mark.parametrize("ankle, z_amplitude", [(0.0, 0.0), (1.0, 0.02)])
def test_event_placement_is_the_law_at_the_event(update, source, ankle, z_amplitude):
    # Each five-link ImpactEvent.placement is the public laws' target: at
    # the pre-impact state and the in-step event time ("continuous"), or at
    # the step's start state and time 0 ("step_start").
    cfg = ScenarioConfig(
        plant="FIVE_LINK",
        gait=FIVE_GAIT,
        constraints=VC,
        duration=3,
        integrator=IntegratorConfig(step_size=2e-3),
        ankle_amplitude=ankle,
        z_amplitude=z_amplitude,
        placement_source=source,
        placement_update=update,
    )
    trace = run_scenario(cfg)
    controller = simlab._FiveLinkPlant(cfg).controller  # the law's settings, never stepped
    starts = [simlab._FiveLinkPlant(cfg).start()] + [ev.state_plus for ev in trace.events]
    t_starts = [0.0] + [ev.t for ev in trace.events]
    for ev, start, t_start in zip(trace.events, starts, t_starts):
        if update == "step_start":
            want = placement_oracle(controller, 0.0, start)
        else:
            want = placement_oracle(controller, ev.t - t_start, ev.state_minus)
        assert abs(ev.placement - want) <= 1e-12 * abs(want)


def lanes_placement_oracle(controller, tau, Y):
    """placement_oracle on a stack of lanes Y: each lane's end-of-step
    prediction from its term rows, its rate summed by einsum as the lanes'
    law sums it, through the public law on the array, clamped lane by lane."""
    params, gait, v = controller.params, controller.gait, controller.placement_source == "v"
    rows, dq = _term_rows(controller.model, Y[:, :5], Y[:, 5:]), Y[:, 5:]
    ell, mH, remaining = params.ell, params.m * params.H, max(gait.T - tau, 0.0)
    sh, ch = math.sinh(ell * remaining), math.cosh(ell * remaining)
    j = (_JC if v else _D0).start  # CoM x-velocity, or L about the contact
    x_c, rate = rows[:, _PC.start], np.einsum("ni,ni->n", rows[:, j : j + 5], dq)
    if v:
        p = foot_placement_velocity(params, ell * sh * x_c + ch * rate, controller.L_des / mH,
                                    gait.T, gait.alpha)
    else:
        p = foot_placement_asymptotic(params, mH * ell * sh * x_c + ch * rate, controller.L_des,
                                      gait.T, gait.alpha)
    return np.minimum(np.maximum(p, -controller._p_max), controller._p_max)


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(
    T=st.floats(0.25, 0.5),
    alpha=st.floats(0.0, 1.0, exclude_max=True),
    L_des=st.tuples(st.floats(-40.0, 40.0), st.floats(-40.0, 40.0)),
    source=st.sampled_from(["L", "v"]),
    update=st.sampled_from(["continuous", "step_start"]),
    tau=st.floats(0.0, 0.6),
)
def test_placement_follows_each_steps_target_bit_for_bit(T, alpha, L_des, source, update, tau):
    # The law's constants are formed per step, not per derivative: with the
    # source and update set before on_step_start and set_target changing L_des
    # between two steps, the placement on one state and on a 3-lane stack is
    # the public law on the same prediction, clamped, bit for bit.  Under
    # "step_start" it is the law at the step's start state and time 0, with
    # the L_des of that start, until the next step starts.
    model = PlanarBiped.default()
    kws = [dict(com_x=x, com_z=0.6, swing_foot_x=-0.2, com_velocity=(vx, 0.0))
           for x, vx in ((0.02, 0.7), (-0.03, 0.8), (0.05, 0.6))]
    states = [assemble_posture(model, **kw) for kw in kws]
    Y = np.array([np.concatenate([s.q, s.dq]) for s in states])
    starts = (states[0], Y)  # the one state's step starts where lane 0's does
    one, lanes = (WalkingController(model, GaitCommand(L_des=1.0, T=T, alpha=alpha), VC)
                  for _ in range(2))
    for k, L in enumerate(L_des):
        for controller, start in zip((one, lanes), starts):
            controller.set_target(L)
            controller.placement_source, controller.placement_update = source, update
            controller.on_step_start(start)
        committed = (placement_oracle(one, 0.0, states[0]), lanes_placement_oracle(lanes, 0.0, Y))
        for retarget in (False, True):
            if retarget:  # set_target between steps; a committed target stays
                for controller in (one, lanes):
                    controller.set_target(L_des[1 - k])
            if update == "step_start":
                want_one, want_lanes = committed
            else:
                want_one = placement_oracle(one, tau, states[1])
                want_lanes = lanes_placement_oracle(lanes, tau, Y)
            rows, dq = _state_rows(model, states[1].q, states[1].dq)[1], states[1].dq.tolist()
            got = lanes.placement(_term_rows(model, Y[:, :5], Y[:, 5:]), Y[:, 5:], tau)
            assert float(one.placement(rows, dq, tau)).hex() == float(want_one).hex()
            assert [v.hex() for v in got.tolist()] == [v.hex() for v in want_lanes.tolist()]


@pytest.mark.parametrize("workload", ["simulate-five-link", "poincare-five-link"])
def test_exchange_gives_the_touchdown_of_the_public_functions_bit_for_bit(workload):
    # The exchange reads every touchdown quantity from one evaluation of the
    # pre-impact state's term rows: each event field is the bits of
    # centroidal, swing_foot_position or impact_map on state_minus.  The
    # benchmark's seed-0 simulate config carries an ankle torque and height
    # modulation; the Poincare config is its fixed point's warm-up.
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
    try:
        from rhs_timeit import scenario_doc
    finally:
        sys.path.pop(0)
    cfg = ScenarioConfig.from_json(scenario_doc(workload))
    model = cfg.build_model()
    trace = run_scenario(cfg)
    assert len(trace.events) == cfg.duration
    for ev in trace.events:
        s = ev.state_minus
        cs = centroidal(model, s)
        _, impulse = _impact_solution(model, s, _state_rows(model, s.q.tolist(), s.dq.tolist())[1])
        assert bits(ev.L_minus) == bits(cs.L) and bits(ev.v_c_minus) == bits(cs.v_c)
        assert bits(ev.p_2to1) == bits(-swing_foot_position(model, s.q))
        assert bits(ev.impulse) == bits(impulse)
        assert bits(ev.state_plus) == bits(impact_map(model, s))


@pytest.mark.parametrize("ankle, z_amplitude", [(0.0, 0.0), (1.0, 0.02)])
def test_five_link_trace_centroidal_columns_are_centroidal_bit_for_bit(ankle, z_amplitude):
    # The recorder takes each sample's centroidal columns from the rows its
    # derivative formed: they are the bits of centroidal() on the recorded
    # state, as if each sample had been formed alone.
    cfg = ScenarioConfig(
        plant="FIVE_LINK",
        gait=FIVE_GAIT,
        constraints=VC,
        duration=2,
        integrator=IntegratorConfig(step_size=2e-3),
        ankle_amplitude=ankle,
        z_amplitude=z_amplitude,
    )
    s = run_scenario(cfg).samples
    model = cfg.build_model()
    q = np.column_stack([s[f"q{i}"] for i in range(5)])
    dq = np.column_stack([s[f"dq{i}"] for i in range(5)])
    got = np.column_stack([s[c] for c in ("x_c", "z_c", "vx_c", "vz_c", "L", "L_c")])
    want = []
    for q_i, dq_i in zip(q, dq):
        cs = centroidal(model, sl.BipedState(q_i, dq_i))
        want.append([*cs.p_c, *cs.v_c, cs.L, cs.L_c])
    assert got.tobytes() == np.array(want).tobytes()


vec10 = st.lists(st.floats(-1e6, 1e6), min_size=10, max_size=10)


@st.composite
def step_lengths(draw):
    """An RK4 step length h, or a sub-step of the touchdown bisection: the
    midpoint it tries after a drawn path of halvings of [0, h]."""
    h = draw(st.floats(1e-5, 1e-2))
    path = draw(st.lists(st.booleans(), max_size=40))
    if not path:
        return h
    lo, hi = 0.0, h
    for lower in path:
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if lower else (mid, hi)
    return 0.5 * (lo + hi)


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(y=vec10, ks=st.lists(vec10, min_size=4, max_size=4), tau=st.floats(0.0, 0.7),
       h=step_lengths())
def test_float_rk4_is_array_rk4_bit_for_bit(y, ks, tau, h):
    # The one-state step combines its stages on floats in _rk4's operation
    # order: the same stage times, stage states and result, bit for bit.
    def field(convert):
        calls, stages = [], iter(ks[1:])

        def f(t, x):
            calls.append((bits(t), bits(np.asarray(x, dtype=float))))
            return convert(next(stages))

        return f, calls

    f_floats, calls_floats = field(list)
    f_array, calls_array = field(np.array)
    out = simlab._rk4_floats(f_floats, tau, y, h, ks[0])
    assert isinstance(out, list)
    assert bits(np.array(out)) == bits(simlab._rk4(f_array, tau, np.array(y), h, np.array(ks[0])))
    assert calls_floats == calls_array and len(calls_floats) == 3


# ---------------------------------------------------------------------------
# lanes: a stack of states steps as one, and each row matches its single state
# ---------------------------------------------------------------------------


@settings(derandomize=True, database=None, deadline=None, max_examples=30)
@given(
    kws=st.lists(five_link_states, min_size=1, max_size=4),
    tau=st.floats(0.0, 0.7),
    z_amplitude=st.sampled_from([0.0, 0.02]),
    source=st.sampled_from(["L", "v"]),
    update=st.sampled_from(["continuous", "step_start"]),
)
def test_stacked_rhs_rows_match_single_states(kws, tau, z_amplitude, source, update):
    plant = five_link_plant(0.0, z_amplitude, source)  # a stack takes no ankle torque
    plant.controller.placement_update = update
    states = [posture(plant.model, kw) for kw in kws]
    Y = np.array([np.concatenate([s.q, s.dq]) for s in states])
    lanes = plant.controller
    lanes.on_step_start(Y)
    ydot, u, y_out, _ = simlab._five_link_rhs(plant.model, lanes, tau, Y)
    assert ydot.shape == Y.shape and u.shape == y_out.shape == (len(Y), 4)
    for i, state in enumerate(states):
        one = five_link_plant(0.0, z_amplitude, source).controller
        one.placement_update = update
        one.on_step_start(state)
        y_1 = Y[i].tolist()
        ydot_1, u_1, _, _ = map(np.array, simlab._five_link_rhs(plant.model, one, tau, y_1))
        assert rel_gap(ydot[i], ydot_1) <= 1e-12
        assert rel_gap(u[i], u_1) <= 1e-12
        if update == "step_start":  # the placement each lane committed at its start
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
