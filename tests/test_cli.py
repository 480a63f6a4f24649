"""Command-line interface: every subcommand exercised in-process through
cli.main, artifacts checked on disk, exit codes 0/2/3 pinned.
"""

import contextlib
import copy
import io
import json
import math
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stridelab import (
    GaitCommand,
    IntegratorConfig,
    ScenarioConfig,
    VirtualConstraintSpec,
)
from stridelab.cli import (
    MAX_ALPHA_POINTS,
    MAX_BODE_POINTS,
    MAX_KALMAN_SAMPLES,
    build_parser,
    main,
)


def write_config(tmp_path, **kw):
    base = dict(
        plant="ALIP",
        gait=GaitCommand(L_des=14.4, T=0.3, alpha=0.0),
        constraints=VirtualConstraintSpec(H=0.6, z_cl=0.07),
        duration=3,
        integrator=IntegratorConfig(step_size=1e-3),
    )
    base.update(kw)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(ScenarioConfig(**base).to_json_dict()))
    return path


def read_csv(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    return header, rows


def test_simulate_writes_artifacts(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "run"
    assert main(["simulate", str(cfg), "--out", str(out)]) == 0
    for name in ("trace.csv", "per_step.csv", "events.csv", "scenario.json"):
        assert (out / name).exists()
    text = capsys.readouterr().out
    assert "plant=ALIP" in text and "steps=3" in text


def test_simulate_seed_override(tmp_path):
    cfg = write_config(tmp_path, seed=0)
    out = tmp_path / "run"
    assert main(["simulate", str(cfg), "--out", str(out), "--seed", "5"]) == 0
    sidecar = json.loads((out / "scenario.json").read_text())
    assert sidecar["config"]["seed"] == 5


# A 2-step ALIP scenario at h = 1e-3: each bad-input case below mutates it.
SMALL_ALIP = {
    "plant": "ALIP",
    "gait": {"L_des": 14.4, "T": 0.3},
    "constraints": {"H": 0.6, "z_cl": 0.07},
    "duration": 2,
    "integrator": {"step_size": 1e-3},
}


def set_field(doc, path, value):
    """doc[path[0]][path[1]]... = value, making objects on the way."""
    node = doc
    for key in path[:-1]:
        if not isinstance(node.get(key), dict):
            node[key] = {}
        node = node[key]
    node[path[-1]] = value


# (field path, value, exit code, text the one stderr line must contain[, plant])
BAD_FIELDS = [
    (("gait",), [1, 2], 2, "ScenarioConfig.gait"),
    (("gait", "L_des"), "x", 2, "GaitCommand.L_des"),
    (("seed",), "a", 2, "ScenarioConfig.seed"),
    (("integrator",), [1], 2, "ScenarioConfig.integrator"),
    (("outputs",), 5, 2, "ScenarioConfig.outputs"),
    (("initial_velocity",), "fast", 2, "ScenarioConfig.initial_velocity"),
    (("constraints", "Kp"), "abc", 2, "VirtualConstraintSpec.Kp"),
    (("constraints", "Kp"), {"a": 1}, 2, "VirtualConstraintSpec.Kp"),
    (("constraints",), None, 2, "ScenarioConfig.constraints"),
    (("model",), [1], 2, "ScenarioConfig.model"),
    (("model",), {"links": {"torso": 3}}, 2, "PlanarBiped.links"),
    (("gait", "L_des"), True, 2, "GaitCommand.L_des"),
    (("duration",), True, 2, "ScenarioConfig.duration"),
    (("seed",), 1.5, 2, "ScenarioConfig.seed"),
    (("gait", "parity"), 1.7, 2, "GaitCommand.parity"),
    (("integrator", "step_size"), "1e-3", 2, "IntegratorConfig.step_size"),
    (("gait", "L_dse"), 14.4, 2, "L_dse"),
    (("initial_velocity",), float("nan"), 2, "ScenarioConfig.initial_velocity"),
    (("initial_com_x",), float("inf"), 2, "ScenarioConfig.initial_com_x"),
    (("l_des_final",), float("nan"), 2, "ScenarioConfig.l_des_final"),
    (("plant",), "IP", 2, "ScenarioConfig.plant"),
    (("duration",), -1, 2, "ScenarioConfig.duration"),
    (("duration",), 2.5, 2, "ScenarioConfig.duration"),
    (("model",), "model.json", 2, "ScenarioConfig.model"),
    (("L_des",), 14.4, 2, "L_des"),
    (("gait", "L_des"), 1e308, 3, "numerical failure"),
    # start states that overflow: a numerical failure naming the fields
    (("initial_velocity",), 1e308, 3, "initial_velocity"),
    (("initial_velocity",), 1e308, 3, "initial_velocity", "LIP"),
    (("constraints", "H"), 1e308, 3, "constraints.H"),
    (("constraints", "H"), 1e308, 3, "constraints.H", "LIP"),
    (("constraints", "H"), 1e308, 3, "constraints.H", "FIVE_LINK"),
    (("gait", "T"), 1000.0, 3, "gait.T"),
    (("gait", "T"), 1000.0, 3, "gait.T", "LIP"),
    (("gait", "T"), 1e-300, 2, "gait.T", "FIVE_LINK"),
]


@pytest.mark.filterwarnings("error")
def test_simulate_bad_inputs_exit_2(tmp_path, capsys):
    assert main(["simulate", str(tmp_path / "missing.json")]) == 2
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    assert main(["simulate", str(broken)]) == 2
    broken.write_bytes(b"\xff\xfe{")
    assert main(["simulate", str(broken)]) == 2
    assert "validation error" in capsys.readouterr().err
    path = tmp_path / "scenario.json"
    for field_path, value, code, text, *plant in BAD_FIELDS:
        doc = copy.deepcopy(SMALL_ALIP)
        if plant:
            doc["plant"] = plant[0]
        set_field(doc, field_path, value)
        path.write_text(json.dumps(doc))
        assert main(["simulate", str(path)]) == code, (field_path, value, plant)
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and text in lines[0], (field_path, value, plant, lines)


JUNK = [
    "x", [1, 2], {"a": 1}, None, True, False, math.nan, math.inf, -math.inf,
    1e308, -1e308, 0, -1, 1.5,
]
FUZZ_PATHS = [
    ("plant",), ("gait",), ("gait", "L_des"), ("gait", "T"), ("gait", "W"),
    ("gait", "alpha"), ("gait", "parity"), ("gait", "delta_D"), ("gait", "bogus"),
    ("constraints",), ("constraints", "H"), ("constraints", "z_cl"),
    ("constraints", "Kp"), ("constraints", "Kd"), ("duration",), ("integrator",),
    ("integrator", "step_size"), ("integrator", "event_tolerance"), ("seed",),
    ("outputs",), ("initial_velocity",), ("initial_com_x",), ("l_des_final",),
    ("ankle_amplitude",), ("z_amplitude",), ("model",), ("placement_source",),
    ("placement_update",), ("bogus",),
]


@pytest.mark.filterwarnings("error")
@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(
    st.lists(
        st.tuples(st.sampled_from(FUZZ_PATHS), st.sampled_from(JUNK)),
        min_size=1,
        max_size=2,
    )
)
def test_simulate_fuzzed_config_fails_cleanly(edits):
    doc = copy.deepcopy(SMALL_ALIP)
    for path, value in edits:
        set_field(doc, path, value)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scenario.json"
        path.write_text(json.dumps(doc))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["simulate", str(path)])
    assert code in (0, 2, 3)
    assert len(err.getvalue().splitlines()) <= 1


def test_simulate_unreachable_posture_exit_3(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        plant="FIVE_LINK",
        gait=GaitCommand(L_des=14.4, T=0.3, alpha=0.4),
        duration=1,
        initial_velocity=0.8,
        initial_com_x=5.0,  # farther than any leg reaches
    )
    assert main(["simulate", str(cfg)]) == 3
    assert "numerical failure" in capsys.readouterr().err


def test_poincare_alip_two_step_grid(tmp_path, capsys):
    out = tmp_path / "p"
    rc = main(["poincare", "--alpha-grid", "0:0.9:10", "--plant", "ALIP",
               "--out", str(out)])
    assert rc == 0
    header, rows = read_csv(out / "poincare.csv")
    assert header == ["alpha", "dominant", "lambda1", "lambda2", "x_star", "L_star"]
    assert rows.shape[0] == 10
    assert np.max(np.abs(rows[:, 1] - rows[:, 0] ** 2)) <= 1e-12
    assert "dominant" in capsys.readouterr().out


def test_poincare_one_step_spectrum(capsys):
    assert main(["poincare", "--alpha-grid", "0.5", "--steps-per-return", "1"]) == 0
    assert "dominant=0.5" in capsys.readouterr().out


def test_poincare_bad_grid_exit_2(capsys):
    assert main(["poincare", "--alpha-grid", "0.2,zebra"]) == 2
    assert main(["poincare", "--alpha-grid", "0.5,1.0"]) == 2
    assert main(["poincare", "--alpha-grid", ""]) == 2
    assert "validation error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, step_size",
    [
        (["poincare", "--alpha-grid", "0.5"], 1e-3),
        (["predict-fidelity"], 1e-3),
        (["compare-lip-alip"], 1e-3),
        (["error-decomp"], 5e-5),
    ],
)
def test_step_size_defaults_per_subcommand(argv, step_size):
    assert build_parser().parse_args(argv).step_size == step_size


def test_error_decomp_identity_on_small_run(tmp_path, capsys):
    out = tmp_path / "e"
    rc = main(["error-decomp", "--steps", "2", "--step-size", "2e-4",
               "--out", str(out)])
    assert rc == 0
    header, rows = read_csv(out / "error_decomp.csv")
    assert header == ["step", "e1", "e2", "e3", "identity_residual"]
    assert rows.shape[0] == 2
    assert np.max(rows[:, 4]) < 1e-4  # e1 = e2 + e3 holds on-trace
    assert "worst |e1-(e2+e3)|" in capsys.readouterr().out


def test_predict_fidelity_small_run(capsys):
    assert main(["predict-fidelity", "--steps", "2"]) == 0
    text = capsys.readouterr().out
    f_L = float(text.split("flatness_L=")[1].split()[0])
    f_v = float(text.split("flatness_v=")[1].split()[0])
    assert f_L < f_v  # predicted momentum is the flatter signal


def test_bode_reports_frequency_split(tmp_path, capsys):
    out = tmp_path / "b"
    assert main(["bode", "--points", "13", "--out", str(out)]) == 0
    text = capsys.readouterr().out
    gains = {}
    for line in text.splitlines():
        if "ALIP gain" in line:
            label = line.split("omega =")[1].split(":")[0].strip()
            tokens = line.split("ALIP gain =")[1].split()
            gains[label] = (float(tokens[0]), float(tokens[-1]))
    assert gains["100 ell"][0] <= 2e-4 and gains["100 ell"][1] >= 0.999
    assert gains["ell/100"][1] <= 2e-4 and gains["ell/100"][0] >= 0.999
    header, rows = read_csv(out / "bode.csv")
    assert header == ["omega", "alip_gain", "lip_gain"]
    assert rows.shape[0] == 13


def test_kalman_demo_artifact_and_determinism(tmp_path, capsys):
    a, b = tmp_path / "k1", tmp_path / "k2"
    for out in (a, b):
        rc = main(["kalman-demo", "--samples", "2000", "--seed", "3",
                   "--out", str(out)])
        assert rc == 0
    assert (a / "kalman.csv").read_bytes() == (b / "kalman.csv").read_bytes()
    header, rows = read_csv(a / "kalman.csv")
    assert header == ["t", "L_true", "L_obs", "L_hat"]
    assert rows.shape[0] == 2000
    text = capsys.readouterr().out
    ratio = float(text.split("(ratio ")[1].split(")")[0])
    assert ratio < 0.5  # filtered error variance well under measurement noise


def test_compare_lip_alip_point_mass(tmp_path, capsys):
    out = tmp_path / "c"
    rc = main(["compare-lip-alip", "--plant", "ALIP", "--steps", "4",
               "--out", str(out)])
    assert rc == 0
    text = capsys.readouterr().out
    gap = float(text.split("disagreement) = ")[1].split()[0])
    assert gap <= 1e-12
    header, rows = read_csv(out / "comparison.csv")
    assert header == ["step", "placement_L", "placement_v",
                      "mean_vx_L", "mean_vx_v", "gap"]
    assert rows.shape[0] == 4


POINCARE_ALIP = ["poincare", "--alpha-grid", "0.5"]
POINCARE_FIVE_LINK = POINCARE_ALIP + ["--plant", "FIVE_LINK"]

# (argv, exit code, texts the one stderr line must contain)
BAD_FLAGS = [
    (POINCARE_ALIP + ["--T", "1000"], 3, ("--T", "--H")),
    (POINCARE_ALIP + ["--H", "1e-300"], 3, ("--T", "--H")),
    (POINCARE_ALIP + ["--T", "1e-320"], 3, ("--T",)),
    (POINCARE_ALIP + ["--T", "5e-324", "--H", "1e10"], 3, ("--T",)),
    (POINCARE_ALIP + ["--T", "90"], 3, ("--T",)),  # the step map overflows
    (POINCARE_ALIP + ["--H", "1e-6", "--T", "0.1134"], 3, ("--T",)),  # only M @ M does
    (POINCARE_ALIP + ["--T", "nan"], 2, ("T must be > 0",)),
    (POINCARE_ALIP + ["--l-des", "inf"], 2, ("L_des",)),
    (["bode", "--points", "-3"], 2, ("--points",)),
    (["bode", "--points", "0"], 2, ("--points",)),
    (["bode", "--points", str(MAX_BODE_POINTS + 1)], 2, ("--points",)),
    (["bode", "--omega-max", "1e308"], 2, ("--omega-max",)),
    (["bode", "--H", "1e-320"], 2, ("--H",)),
    (["bode", "--omega-min", "0"], 2, ("--omega-min",)),
    (["bode", "--omega-min", "-1"], 2, ("--omega-min",)),
    (["bode", "--omega-min", "nan"], 2, ("--omega-min",)),
    (["bode", "--omega-min", "1e300"], 3, ("--omega-max", "--H")),
    (["bode", "--H", "1e-304", "--omega-max", "1"], 3, ("--H",)),  # overflows at 100 ell
    # Work caps: a count of 10**12 is rejected before anything is allocated
    # (allocating it would raise MemoryError, not exit 2).
    (["kalman-demo", "--samples", str(10**12)], 2, ("--samples", str(MAX_KALMAN_SAMPLES))),
    (["poincare", "--alpha-grid", f"0:0.5:{10**12}"], 2, ("--alpha-grid", str(MAX_ALPHA_POINTS))),
    (["kalman-demo", "--dt", "1e308", "--samples", "3"], 2, ("--dt",)),
    (["kalman-demo", "--dt", "0"], 2, ("--dt",)),
    (["kalman-demo", "--dt", "0.5", "--T", "0.3"], 2, ("--dt",)),
    # The deadbeat demo loses its cancellation, then overflows, on long steps.
    (["kalman-demo", "--T", "1e308", "--dt", "1e308", "--samples", "3"], 2, ("--T",)),
    (["kalman-demo", "--T", "1000", "--dt", "1000", "--samples", "3"], 2, ("--T",)),
    (POINCARE_FIVE_LINK + ["--delta", "nan"], 2, ("--delta",)),
    (POINCARE_FIVE_LINK + ["--delta", "0"], 2, ("--delta",)),
    (POINCARE_FIVE_LINK + ["--fp-tol", "0"], 2, ("--fp-tol",)),
    (POINCARE_FIVE_LINK + ["--fp-tol", "nan"], 2, ("--fp-tol",)),
    (POINCARE_FIVE_LINK + ["--warmup", "0"], 2, ("--warmup",)),
    # Rollouts past MAX_RK4_STEPS are rejected naming the flags that set the work.
    (POINCARE_FIVE_LINK + ["--warmup", "100000"], 2, ("--warmup", "--T", "--step-size")),
    (["compare-lip-alip", "--steps", "100000000"], 2, ("compare-lip-alip: --steps", "--T")),
    (["error-decomp", "--T", "1e308"], 2, ("error-decomp: --steps", "--T 1e+308")),
    (["predict-fidelity", "--steps", "-1"], 2, ("predict-fidelity: --steps -1",)),
    # A rollout walks at least one step.
    (["predict-fidelity", "--steps", "0"], 2, ("predict-fidelity: --steps 0",)),
    (["error-decomp", "--steps", "0"], 2, ("error-decomp: --steps 0",)),
    (["compare-lip-alip", "--steps", "0"], 2, ("compare-lip-alip: --steps 0",)),
    # numpy's generator takes no negative seed.
    (["kalman-demo", "--seed", "-1"], 2, ("kalman-demo: --seed -1",)),
    # A perturbation this wide overflows the five-link rollout.
    (POINCARE_FIVE_LINK + ["--delta", "1e308"], 2, ("poincare: --delta 1e+308",)),
    # The five-link reference divides by T * T, which underflows to 0 here.
    (["predict-fidelity", "--T", "1e-300"], 2, ("gait.T = 1e-300",)),
]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv, code, texts", BAD_FLAGS)
def test_analysis_bad_flags_fail_cleanly(argv, code, texts, capsys):
    assert main(argv) == code
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1, lines
    assert all(text in lines[0] for text in texts), lines


@pytest.mark.parametrize(
    "argv", [argv for argv, _, _ in BAD_FLAGS if argv[:5] == POINCARE_FIVE_LINK]
)
def test_poincare_five_link_flags_checked_before_warmup(argv, monkeypatch, capsys):
    def no_rollout(*args, **kwargs):
        raise AssertionError("a rollout ran before the flags were checked")

    monkeypatch.setattr("stridelab.cli.run_scenario", no_rollout)
    assert main(argv) == 2


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_poincare_five_link_divergence_exits_3(capsys):
    # A coarse grid and a wide perturbation: the predicted end-of-step
    # momentum of a rollout stops being finite within a step.
    argv = POINCARE_FIVE_LINK + ["--warmup", "1", "--step-size", "0.01", "--fp-tol", "1e-3",
                                 "--delta", "0.3"]
    assert main(argv) == 3
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1, lines
    assert "numerical failure: foot_placement_asymptotic" in lines[0] and "tau =" in lines[0]


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "{cfg}", "--out", "{file}"],
        ["simulate", "{cfg}", "--out", "{file}/sub"],
        ["bode", "--points", "3", "--out", "{file}/sub"],
        ["kalman-demo", "--samples", "3", "--out", "{file}"],
    ],
)
def test_out_at_or_under_a_file_exits_2(argv, tmp_path, capsys):
    file = tmp_path / "file.txt"
    file.write_text("not a directory")
    paths = {"cfg": write_config(tmp_path), "file": file}
    assert main([a.format(**paths) for a in argv]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and "validation error" in lines[0] and "file.txt" in lines[0], lines
    assert file.read_text() == "not a directory"


# Each subcommand on a run of a few milliseconds (poincare FIVE_LINK: under
# half a second), and the flags the fuzz below sets on it.  "{cfg}" and
# "{dir}" are filled in per example.
GAIT_FLAGS = ("--T", "--H", "--z-cl", "--alpha", "--l-des", "--step-size")
FUZZ_RUNS = [
    (["simulate", "{cfg}"], ()),
    (POINCARE_ALIP, GAIT_FLAGS + ("--steps-per-return", "--warmup", "--fp-tol", "--delta")),
    (POINCARE_FIVE_LINK + ["--warmup", "1", "--step-size", "0.01", "--fp-tol", "1"],
     GAIT_FLAGS + ("--warmup", "--fp-tol", "--delta")),
    (["predict-fidelity", "--steps", "2", "--step-size", "0.02"],
     GAIT_FLAGS + ("--steps", "--initial-velocity", "--z-amplitude")),
    (["error-decomp", "--steps", "2", "--step-size", "0.02"],
     GAIT_FLAGS + ("--steps", "--initial-velocity", "--ankle-amplitude")),
    (["bode", "--points", "5"], ("--H", "--omega-min", "--omega-max", "--points")),
    (["kalman-demo", "--samples", "50"],
     ("--H", "--T", "--l-des", "--sigma", "--samples", "--dt", "--Q")),
    (["compare-lip-alip", "--steps", "2", "--step-size", "0.02"],
     GAIT_FLAGS + ("--steps", "--initial-velocity", "--plant")),
]
# Out of range for some flag, or in range and cheap; "--plant" takes the names.
FUZZ_VALUES = ["nan", "inf", "-inf", "0", "-1", "-0.5", "1e308", str(2**70), "1", "2", "0.5",
               "0.05", "ALIP", "LIP"]
FUZZ_OUT = ["{dir}/out", "{dir}/file.txt", "{dir}/file.txt/sub"]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(st.data())
def test_every_subcommand_fails_cleanly_on_fuzzed_flags(data):
    base, flags = data.draw(st.sampled_from(FUZZ_RUNS))
    edits = data.draw(st.lists(
        st.one_of(
            st.tuples(st.sampled_from(flags + ("--seed",)), st.sampled_from(FUZZ_VALUES)),
            st.tuples(st.just("--out"), st.sampled_from(FUZZ_OUT)),
        ),
        min_size=1,
        max_size=2,
    ))
    with tempfile.TemporaryDirectory() as tmp:
        Path(tmp, "file.txt").write_text("not a directory")
        paths = {"cfg": write_config(Path(tmp), duration=2), "dir": tmp}
        argv = [a.format(**paths) for a in base + [x for edit in edits for x in edit]]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # a flag argparse cannot parse
                code = exc.code
    assert code in (0, 2, 3), argv
    assert len(err.getvalue().splitlines()) <= 1, (argv, err.getvalue())


@pytest.mark.filterwarnings("error")
def test_bode_points_cap_is_accepted(capsys):
    assert main(["bode", "--points", str(MAX_BODE_POINTS)]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["bode", "--points", "abc"],
        ["kalman-demo", "--samples", "1.5"],
        ["poincare", "--alpha-grid", "0.5", "--plant", "FOO"],
        ["simulate"],
        ["simulate", "cfg.json", "--bogus", "1"],
    ],
)
def test_flag_parse_errors_are_one_line(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("validation error: stridelab"), lines


def test_alpha_grid_cap_is_accepted(capsys):
    assert main(["poincare", "--alpha-grid", f"0:0.5:{MAX_ALPHA_POINTS}"]) == 0
    assert capsys.readouterr().out.count("alpha=") == MAX_ALPHA_POINTS


def test_missing_subcommand_exits_via_argparse():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_module_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "stridelab", "bode", "--points", "5"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "ALIP gain" in proc.stdout
