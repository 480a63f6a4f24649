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
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stridelab as sl
from stridelab import (
    AlipState,
    GaitCommand,
    IntegratorConfig,
    LinkParams,
    NumericalError,
    PendulumParams,
    PlanarBiped,
    ScenarioConfig,
    ValidationError,
    VirtualConstraintSpec,
    alip_transition,
    transfer_angular_momentum,
)
from stridelab import simlab
from stridelab.biped import com_velocity
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
    fields written inline, one numpy array per stage."""
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
    if recorder is not None:
        recorder(tau, y, 0.0, None, first=True)
    for i in range(n_full):
        y = _rk4(f, tau, y, h)
        tau = (i + 1) * h
        if recorder is not None:
            recorder(tau, y, ankle(tau), None)
    rem = T - tau
    assert rem > 1e-12  # the drawn h leaves a remainder step
    y = _rk4(f, tau, y, rem)
    if recorder is not None:
        recorder(T, y, ankle(T), None)
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
