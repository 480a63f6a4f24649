"""Command-line interface: every subcommand exercised in-process through
cli.main, artifacts checked on disk, exit codes 0/2/3 pinned.
"""

import json
import subprocess
import sys

import numpy as np
import pytest

from stridelab import (
    GaitCommand,
    IntegratorConfig,
    ScenarioConfig,
    VirtualConstraintSpec,
)
from stridelab.cli import build_parser, main


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


def test_simulate_bad_inputs_exit_2(tmp_path, capsys):
    assert main(["simulate", str(tmp_path / "missing.json")]) == 2
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    assert main(["simulate", str(broken)]) == 2
    assert "validation error" in capsys.readouterr().err


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
