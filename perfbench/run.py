"""Benchmark of stridelab, driven from outside through the calls a user makes.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a stridelab checkout; the package is imported from its
`src/` directory.  Workloads (see README.md in this directory):

    poincare-five-link   warm-up, fixed-point search and Jacobian eigenvalues
    simulate-five-link   `stridelab simulate` on a 14-step five-link scenario
    simulate-alip        `stridelab simulate` on a 100-step ALIP scenario

Each workload runs single-threaded in fresh processes: eleven that only time
the set-up, then one that repeats the operation for S seconds.  The last line
of standard output is one JSON object with `correct`, `attempted`, `failed`
and `metrics`: the end-to-end metrics with --trace 0, the per-layer metrics
with --trace 1.  Any fault in the benchmark itself exits non-zero without
printing a result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import scenarios

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 11
DEADLINE_S = 170.0
OUT_DIR = ".perfbench_out"


def _child_env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _worker(args: list[str], env: dict, timeout: float, src: Path) -> dict:
    proc = subprocess.run(
        [sys.executable, "-s", str(HERE / "worker.py"), *args],
        env=env, capture_output=True, text=True, timeout=timeout,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker {args[0]} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not Path(result["stridelab"]).resolve().is_relative_to(src):
        raise RuntimeError(f"imported stridelab from {result['stridelab']}, not from {src}")
    return result


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(scenarios.RANGES))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    t_begin = time.perf_counter()

    root = Path.cwd().resolve()
    src = root / "src"
    if not (src / "stridelab" / "__init__.py").is_file():
        print(f"no stridelab sources under {src}; run from a checkout's root",
              file=sys.stderr)
        return 2
    env = _child_env(src)
    run_dir = root / OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        config_path = run_dir / "scenario-input.json"
        config_path.write_text(json.dumps(scenarios.draw(args.workload, args.seed), indent=2))
        setup_s = []
        if not args.trace:
            for _ in range(SETUP_REPEATS):
                res = _worker(["setup", args.workload, str(config_path)], env, 60.0, src)
                setup_s.append(res["setup_s"])
        remaining = DEADLINE_S - (time.perf_counter() - t_begin)
        res = _worker(
            ["run", args.workload, str(config_path), str(run_dir / "ops"),
             str(args.seconds), str(args.trace)],
            env, remaining, src,
        )
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    print("per-operation wall_s: " + " ".join(f"{w:.4f}" for w in res["wall_s"]),
          file=sys.stderr)
    for error in res["errors"]:
        print(f"operation failed: {error}", file=sys.stderr)
    for failure in res["failures"]:
        print(f"check failed: {failure}", file=sys.stderr)
    if args.trace:
        metrics = res["layers"]
    else:
        wall = res["wall_s"]
        metrics = {
            "setup_s": _metric(statistics.median(setup_s), "s"),
            "wall_s": _metric(statistics.median(wall), "s"),
            "steps_per_s": _metric(sum(res["steps"]) / sum(wall), "steps/s"),
            "peak_rss_mb": _metric(res["peak_rss_mb"], "MB"),
        }
    print(json.dumps({
        "correct": not res["failures"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
