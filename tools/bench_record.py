"""Alternated parent/change pairs of perfbench/run.py, written as a BENCH record.

    python3 tools/bench_record.py PARENT_DIR CHANGE_DIR --pairs N --seed S \\
        --seconds X --out BENCH_<n>.json [--workload NAME ...] \\
        [--parent-sha SHA] [--change-sha SHA] [--what TEXT]

Each DIR is the root of a stridelab checkout, for instance a fresh
`git archive` of a commit; perfbench/run.py runs in it, with the interpreter
that runs this tool, and imports the package from that checkout's `src/`.
For each workload (by default every one in BENCHMARK.json) pair i runs the
parent first when i is even and the change first when i is odd, so slow drift
of the machine falls on both sides alike.  The tool writes nothing in either
checkout but the run directory that perfbench/run.py itself makes and removes.

The record has BENCH_28.json's layout: what was compared, the SHAs of both
sides (from --parent-sha / --change-sha, or else HEAD of each DIR, which
must then be a git checkout without uncommitted changes), the host (Python and numpy versions, CPU count and model), the command,
seed and run length, and one set with, per workload, each pair's runs and a
summary: per end-to-end metric of BENCHMARK.json, each side's median and
quartiles over the pairs and the number of pairs the change won.

The record is written in full either way; the exit code is 1 if any run
reports `correct: false` or a failed operation, and perfbench/run.py exiting
non-zero stops the tool at once with exit code 1 and no record.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")


def summarize(pairs: list, better: dict) -> dict:
    """Per metric: its direction, each side's median and quartiles over the
    pairs (statistics.quantiles' default, exclusive method), the number of
    pairs in which the change was strictly better, and the number of pairs."""
    out = {}
    for name, direction in better.items():
        entry = {"better": direction}
        for side in SIDES:
            values = [pair[side][name] for pair in pairs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            entry[side] = {"median": median, "q1": q1, "q3": q3}
        sign = 1.0 if direction == "lower" else -1.0
        entry["change_better_in_pairs"] = sum(
            sign * (pair["change"][name] - pair["parent"][name]) < 0.0 for pair in pairs
        )
        entry["pairs"] = len(pairs)
        out[name] = entry
    return out


def faults(pairs: list) -> list:
    """One line per run that reports `correct: false` or a failed operation."""
    return [
        f"pair {i} {side}: correct={pair[side]['correct']} failed={pair[side]['failed']}"
        for i, pair in enumerate(pairs) for side in SIDES
        if not pair[side]["correct"] or pair[side]["failed"]
    ]


def run_once(checkout: Path, workload: str, seed: int, seconds: float, names) -> dict:
    """One perfbench/run.py run in `checkout`: its verdict and end-to-end metrics."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"bench_record: {' '.join(cmd)} in {checkout} exited "
                         f"{proc.returncode}:\n{proc.stderr}")
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    record = {key: res[key] for key in ("correct", "attempted", "failed")}
    record.update({name: res["metrics"][name]["value"] for name in names})
    return record


def git_sha(checkout: Path) -> str:
    """HEAD of a checkout whose tracked files match it."""
    git = ["git", "-C", str(checkout)]
    head = subprocess.run([*git, "rev-parse", "HEAD"], capture_output=True, text=True)
    dirty = subprocess.run([*git, "status", "--porcelain", "--untracked-files=no"],
                           capture_output=True, text=True).stdout
    if head.returncode != 0 or dirty:
        raise SystemExit(f"bench_record: {checkout} is no clean git checkout; pass its SHA")
    return head.stdout.strip()


def host() -> dict:
    model = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            model = next(line.split(":", 1)[1].strip() for line in f
                         if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"python": platform.python_version(), "numpy": np.__version__,
            "cpu_count": os.cpu_count(), "cpu_model": model}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="the parent checkout's root")
    parser.add_argument("change", type=Path, help="the change checkout's root")
    parser.add_argument("--pairs", type=int, required=True, help="at least 2, for the quartiles")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--workload", action="append", help="repeatable; default: all")
    parser.add_argument("--out", type=Path, required=True, help="the BENCH_<n>.json to write")
    parser.add_argument("--parent-sha")
    parser.add_argument("--change-sha")
    parser.add_argument("--what", default="Alternated parent/change pairs of perfbench/run.py")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be >= 2")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}  # "lower" or "higher"
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    dirs = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    shas = {"parent": args.parent_sha or git_sha(dirs["parent"]),
            "change": args.change_sha or git_sha(dirs["change"])}
    workload_sets, problems = {}, []
    for workload in workloads:
        pairs = []
        for i in range(args.pairs):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            pair = {"first": order[0]}
            for side in order:
                pair[side] = run_once(dirs[side], workload, args.seed, args.seconds, better)
                print(f"{workload} pair {i} {side}: wall_s {pair[side]['wall_s']:.4f}",
                      file=sys.stderr)
            pairs.append(pair)
        workload_sets[workload] = {"summary": summarize(pairs, better), "pairs": pairs}
        problems += [f"{workload} {line}" for line in faults(pairs)]
    record = {
        "what": args.what + "; pair i runs the parent first when i is even.",
        **shas,
        "host": host(),
        "command": f"python3 perfbench/run.py --workload WORKLOAD --seed {args.seed} "
                   f"--seconds {args.seconds:g}",
        "seed": args.seed,
        "seconds": args.seconds,
        "sets": [{"label": "the record", "workloads": workload_sets}],
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    for line in problems:
        print(f"bench_record: {line}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
