"""Output checks, computed apart from stridelab.

Each check compares the program's output with an independent computation or
with a property the method must have, never with stored output.  A check
returns a list of failure messages; an empty list means the output passed.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

from scenarios import G, MASS

ARTIFACTS = ("trace.csv", "per_step.csv", "events.csv")

# Tolerances, each with the worst value measured on the default seed.
IMPACT_TOL = 1e-9          # L+ vs L- + m wedge(p_2to1, v_c-); measured ~1e-14
BALANCE_TOL = {1e-3: 1e-4, 1e-4: 1e-7}  # step_size -> |dL - trapz|; measured 5e-6 / 4e-10
ALIP_LAW_TOL = 1e-9        # L_end recursion and closed-form propagation; measured ~1e-13
EIG_GAP_TOL = 0.1          # |lambda_dom - alpha^2|, criterion 04's bound
FIXED_POINT_TOL = 1e-6     # ||F(x*) - x*||_inf re-evaluated by the benchmark


def file_digests(out_dir: Path) -> dict:
    """sha256 of every file the run wrote, sidecar included."""
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(Path(out_dir).iterdir())
    }


def _subset_mismatch(want, got, path: str) -> list[str]:
    if isinstance(want, dict):
        if not isinstance(got, dict):
            return [f"sidecar config {path}: expected an object"]
        out = []
        for key, value in want.items():
            if key not in got:
                out.append(f"sidecar config {path}.{key}: missing")
            else:
                out.extend(_subset_mismatch(value, got[key], f"{path}.{key}"))
        return out
    return [] if want == got else [f"sidecar config {path}: {got!r} != {want!r}"]


def check_sidecar(out_dir: Path, config: dict) -> list[str]:
    """Recompute each listed file's SHA-256 and byte count from disk, and
    check that the echoed config holds every field the benchmark passed."""
    out_dir = Path(out_dir)
    try:
        sidecar = json.loads((out_dir / "scenario.json").read_text())
    except (OSError, ValueError) as exc:
        return [f"scenario.json unreadable: {exc}"]
    failures = _subset_mismatch(config, sidecar.get("config"), "")
    files = sidecar.get("files", {})
    if sorted(files) != sorted(ARTIFACTS):
        failures.append(f"sidecar lists {sorted(files)}, expected {sorted(ARTIFACTS)}")
    for name, entry in files.items():
        blob = (out_dir / name).read_bytes()
        if hashlib.sha256(blob).hexdigest() != entry.get("sha256"):
            failures.append(f"{name}: sha256 differs from the sidecar")
        if len(blob) != entry.get("bytes"):
            failures.append(f"{name}: {len(blob)} bytes, sidecar says {entry.get('bytes')}")
    return failures


def read_csv(path: Path) -> dict:
    """Columns of a stridelab CSV as float arrays, keyed by header name."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    if data.shape[0] == 0:
        data = np.empty((0, len(header)))
    return {name: data[:, i] for i, name in enumerate(header)}


def _wedge(ax, az, bx, bz):
    # Planar wedge a_z b_x - a_x b_z, the sign convention of L about a point.
    return az * bx - ax * bz


def check_rollout(out_dir: Path, config: dict) -> list[str]:
    """Row counts, contact impulses, momentum transfer at impact and the
    in-step momentum balance dL/dt = m g x_c + u_a."""
    out_dir = Path(out_dir)
    n = config["duration"]
    T = config["gait"]["T"]
    h = config["integrator"]["step_size"]
    amp = config.get("ankle_amplitude", 0.0)
    failures = []
    try:
        trace = read_csv(out_dir / "trace.csv")
        steps = read_csv(out_dir / "per_step.csv")
        events = read_csv(out_dir / "events.csv")
    except (OSError, ValueError) as exc:
        return [f"artifact unreadable: {exc}"]
    for name, table in (("per_step.csv", steps), ("events.csv", events)):
        if not np.array_equal(table["step"], np.arange(n)):
            return failures + [f"{name}: expected one row per step, 0..{n - 1}"]
    if np.any(events["impulse_z"] < 0.0):
        failures.append(f"events.csv: negative impulse_z {events['impulse_z'].min():.3e}")
    if not (np.array_equal(steps["t_end"], events["t"])
            and np.array_equal(steps["L_end_minus"], events["L_minus"])
            and np.array_equal(steps["L_start_plus"], events["L_plus"])):
        failures.append("per_step.csv and events.csv disagree on t_end / L- / L+")

    # Across each impact: L about the new contact = L- + m wedge(p_2to1, v_c-).
    moved = events["L_minus"] + MASS * _wedge(
        events["p2to1_x"], events["p2to1_z"], events["vx_c_minus"], events["vz_c_minus"]
    )
    gap = np.abs(events["L_plus"] - moved) / np.maximum(1.0, np.abs(events["L_plus"]))
    if gap.size and gap.max() > IMPACT_TOL:
        failures.append(f"impact momentum transfer off by {gap.max():.3e} > {IMPACT_TOL}")

    t, step, L, x_c = trace["t"], trace["step"], trace["L"], trace["x_c"]
    if t.size == 0 or t[0] != 0.0 or np.any(np.diff(t) <= 0.0) or np.any(np.diff(step) < 0):
        return failures + ["trace.csv: time must start at 0 and increase, steps in order"]
    bounds = np.searchsorted(step, np.arange(n + 1), side="left")
    tol = BALANCE_TOL[h]
    worst = 0.0
    for k in range(n):
        i0, i1 = bounds[k], bounds[k + 1]
        rows = i1 - i0
        span = steps["t_end"][k] - steps["t_start"][k]
        if rows < 1 or abs(rows - (k == 0) - span / h) > 1.0:
            failures.append(f"trace.csv: step {k} has {rows} rows for {span:.6f} s at h={h}")
            continue
        if t[i1 - 1] != steps["t_end"][k] or L[i1 - 1] != steps["L_end_minus"][k]:
            failures.append(f"trace.csv: step {k} does not end on its impact sample")
        tau = t[i0:i1] - steps["t_start"][k]
        rate = MASS * G * x_c[i0:i1] + amp * np.sin(2.0 * math.pi * tau / T)
        # Every sample: L(tau) - L(first) against the running trapezoid sum.
        integral = np.concatenate([[0.0], np.cumsum(0.5 * (rate[1:] + rate[:-1]) * np.diff(tau))])
        worst = max(worst, float(np.max(np.abs((L[i0:i1] - L[i0]) - integral))))
    if worst > tol:
        failures.append(f"trace.csv: in-step momentum balance off by {worst:.3e} > {tol}")
    return failures


def check_alip_law(out_dir: Path, config: dict) -> list[str]:
    """The ALIP closed loop: L_end(k+1) = (1 - a) target(k+1) + a L_end(k), and
    every L_end equals the closed-form cosh/sinh flow from the step's start."""
    out_dir = Path(out_dir)
    gait = config["gait"]
    n, T, a = config["duration"], gait["T"], gait["alpha"]
    H = config["constraints"]["H"]
    L0, L1 = gait["L_des"], config.get("l_des_final", gait["L_des"])
    try:
        steps = read_csv(out_dir / "per_step.csv")
        with open(out_dir / "trace.csv") as fh:
            head = dict(zip(fh.readline().strip().split(","), map(float, fh.readline().split(","))))
    except (OSError, ValueError) as exc:
        return [f"artifact unreadable: {exc}"]
    L_end = steps["L_end_minus"]
    target = L0 + (L1 - L0) * np.minimum(np.arange(1, n + 1), n) / n
    law = np.abs(L_end[1:] - ((1.0 - a) * target[:-1] + a * L_end[:-1]))
    ell = math.sqrt(G / H)
    ch, sh = math.cosh(ell * T), math.sinh(ell * T)
    x_start = np.concatenate([[head["x_c"]], steps["placement"][:-1]])
    L_start = np.concatenate([[head["L"]], steps["L_start_plus"][:-1]])
    flow = np.abs(L_end - (ch * L_start + MASS * H * ell * sh * x_start))
    failures = []
    scale = max(1.0, float(np.max(np.abs(L_end))))
    if law.size and law.max() / scale > ALIP_LAW_TOL:
        failures.append(f"L_end recursion off by {law.max():.3e}")
    if flow.max() / scale > ALIP_LAW_TOL:
        failures.append(f"closed-form L_end propagation off by {flow.max():.3e}")
    return failures


def check_poincare(eigenvalues, alpha: float, fixed_point_residual: float) -> list[str]:
    """Criterion 04's spectrum bound and the re-evaluated fixed-point residual."""
    eig = np.asarray(eigenvalues)
    failures = []
    if eig.shape != (10,) or not np.all(np.isfinite(eig)):
        return [f"eigenvalues: expected 10 finite values, got {eig!r}"]
    dom = float(np.max(np.abs(eig)))
    if not dom < 1.0:
        failures.append(f"dominant |lambda| = {dom:.6f} is not < 1")
    if abs(dom - alpha * alpha) > EIG_GAP_TOL:
        failures.append(f"|lambda_dom - alpha^2| = {abs(dom - alpha * alpha):.4f} > {EIG_GAP_TOL}")
    if not fixed_point_residual <= FIXED_POINT_TOL:
        failures.append(f"||F(x*) - x*|| = {fixed_point_residual:.3e} > {FIXED_POINT_TOL}")
    return failures
