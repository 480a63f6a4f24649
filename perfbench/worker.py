"""One workload in one fresh process; started by run.py, not by hand.

    worker.py setup WORKLOAD CONFIG
    worker.py run WORKLOAD CONFIG OUT_DIR SECONDS TRACE

`setup` times the import of stridelab, the parsing of the scenario and the
building of the model, and prints {"setup_s": ...}.  `run` does the same
set-up, then repeats the workload's operation until SECONDS are used, checks
every output outside the timed span and prints one JSON object with the
per-operation figures.  With TRACE = 1 it alternates untraced and traced
operations and adds the per-layer metrics of the traced ones.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

T0 = time.perf_counter()
import stridelab  # noqa: E402  (the import is part of the timed set-up)
from stridelab import analysis, cli, simlab  # noqa: E402
from stridelab.errors import NumericalError  # noqa: E402

import checks  # noqa: E402
import scenarios  # noqa: E402
from tracing import Tracer  # noqa: E402


def setup(config_path: str):
    cfg = simlab.ScenarioConfig.from_json(config_path)
    return cfg, cfg.build_model()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class CountingMap:
    """The return map as the benchmark sees it: counts every evaluation."""

    def __init__(self, step_map):
        self.step_map = step_map
        self.calls = 0

    def __call__(self, x):
        self.calls += 1
        return self.step_map(x)


def poincare_op(cfg, model, tracer) -> dict:
    p = scenarios.POINCARE
    t0 = time.perf_counter()
    warm = simlab.run_scenario(cfg)
    ev = warm.events[-1]
    x0 = list(ev.state_plus.q) + list(ev.state_plus.dq)
    step_map = simlab.make_five_link_return_map(
        model, cfg.gait, cfg.constraints, cfg.integrator, steps_per_return=2
    )
    counted = CountingMap(step_map)
    ret = tracer.span("analysis.return_map", counted) if tracer else counted
    x_star = analysis.find_fixed_point(ret, x0, tol=p["fp_tol"], damping=p["damping"])
    res = analysis.numeric_poincare_jacobian(
        ret, x_star, p["delta"], steps_per_return=2, residual_tol=10 * p["fp_tol"]
    )
    wall = time.perf_counter() - t0
    rss_mb = peak_rss_mb()
    # Outside the timed span: the benchmark's own residual evaluation.
    residual = float(max(abs(a - b) for a, b in zip(step_map(x_star), x_star)))
    failures = checks.check_poincare(res.eigenvalues, cfg.gait.alpha, residual)
    fingerprint = [x_star.tolist(), [[z.real, z.imag] for z in res.eigenvalues.tolist()]]
    return {
        "wall_s": wall,
        "rss_mb": rss_mb,
        "steps": cfg.duration + 2 * counted.calls,
        "failures": failures,
        "fingerprint": fingerprint,
    }


def simulate_op(cfg, config: dict, config_path: str, out_dir: Path) -> dict:
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["simulate", config_path, "--out", str(out_dir)])
    wall = time.perf_counter() - t0
    rss_mb = peak_rss_mb()
    if code != 0:
        return {"wall_s": wall, "steps": 0, "failures": [], "error": f"simulate exited {code}"}
    failures = checks.check_sidecar(out_dir, config) + checks.check_rollout(out_dir, config)
    if cfg.plant == "ALIP":
        failures += checks.check_alip_law(out_dir, config)
    fingerprint = checks.file_digests(out_dir)
    shutil.rmtree(out_dir)
    return {
        "wall_s": wall,
        "rss_mb": rss_mb,
        "steps": cfg.duration,
        "failures": failures,
        "fingerprint": fingerprint,
    }


def run(workload: str, config_path: str, out_root: Path, seconds: float, trace: bool) -> dict:
    cfg, model = setup(config_path)
    config = json.loads(Path(config_path).read_text())

    def op(i: int, tracer=None) -> dict:
        t_start = time.perf_counter()
        try:
            if workload == "poincare-five-link":
                rec = poincare_op(cfg, model, tracer)
            else:
                rec = simulate_op(cfg, config, config_path, out_root / f"op{i}")
        except NumericalError as exc:
            rec = {"wall_s": time.perf_counter() - t_start, "steps": 0, "failures": [],
                   "error": f"{type(exc).__name__}: {exc}"}
        return rec

    # Traced runs alternate an untraced and a traced operation, so that the
    # tracing overhead compares operations run under the same machine load.
    tracer = Tracer() if trace else None
    untraced, ops = [], []
    t_run = time.perf_counter()
    while True:
        t_round = time.perf_counter()
        if tracer is not None:
            untraced.append(op(0))
            tracer.install()
        rec = op(len(ops) + 1, tracer)
        if tracer is not None:
            tracer.uninstall()
        ops.append(rec)
        now = time.perf_counter()
        # Start another round only if it should end within the budget.
        if (now - t_run) + (now - t_round) > seconds:
            break

    every = untraced + ops
    first = next((r.get("fingerprint") for r in every if "fingerprint" in r), None)
    for r in every:
        if "fingerprint" in r and r["fingerprint"] != first:
            r["failures"].append("outputs differ from the first repeat of the same seed")
    result = {
        "stridelab": stridelab.__file__,
        "attempted": len(every),
        "failed": sum(1 for r in every if r["failures"] or "error" in r),
        "errors": [r["error"] for r in every if "error" in r],
        "failures": [f for r in every for f in r["failures"]],
        "wall_s": [r["wall_s"] for r in ops],
        "steps": [r["steps"] for r in ops],
        # Read right after the first operation's timed span, before its checks.
        "peak_rss_mb": ops[0].get("rss_mb", peak_rss_mb()),
    }
    if tracer is not None:
        overhead = statistics.median(r["wall_s"] for r in ops) - statistics.median(
            r["wall_s"] for r in untraced
        )
        result["untraced_wall_s"] = [r["wall_s"] for r in untraced]
        result["layers"] = tracer.layer_metrics(len(ops), overhead)
        tracer.save(out_root.parent.parent / f"{workload}.spans.npz")
    return result


def main(argv: list[str]) -> int:
    mode, workload, config_path = argv[:3]
    if mode == "setup":
        setup(config_path)
        print(json.dumps({"setup_s": time.perf_counter() - T0, "stridelab": stridelab.__file__}))
        return 0
    out_dir, seconds, trace = Path(argv[3]), float(argv[4]), argv[5] == "1"
    print(json.dumps(run(workload, config_path, out_dir, seconds, trace)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
