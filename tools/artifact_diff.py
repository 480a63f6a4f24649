"""Compare the artifacts that two stridelab source trees write, file by file.

    python3 tools/artifact_diff.py PARENT_SRC CHANGE_SRC [--out DIR]

Each SRC is a directory that holds the `stridelab` package (a checkout's
`src/`); both are imported into this one process, as tools/rhs_timeit.py
does.  Each tree runs `run_scenario` with artifacts on five configs:

    simulate-alip, simulate-five-link, poincare-five-link
                     the seed-0 benchmark configs (perfbench/scenarios.py,
                     read only; the Poincare config's run is its warm-up)
    alip-ankle, lip-ankle
                     the seed-0 `simulate-alip` config on 10 steps with
                     ankle torque 1.0 and h = 7e-4, which leaves every step
                     a shorter last RK4 step, on the ALIP and the LIP

For every file it prints both sha256 prefixes and whether they match.  For a
CSV that differs it prints, per column, the worst absolute gap, the largest
|old| and the gap / max(1, max |old|).  The exit code is 0 when every file is
identical and 1 otherwise.  Artifacts go to a temporary directory, or under
--out if given.
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import sys
import tempfile
from pathlib import Path

import numpy as np

from rhs_timeit import load_tree, scenario_doc

FILES = ("trace.csv", "per_step.csv", "events.csv", "scenario.json")


def configs() -> dict:
    """Config documents by name."""
    docs = {name: scenario_doc(name) for name in
            ("simulate-alip", "simulate-five-link", "poincare-five-link")}
    for plant in ("ALIP", "LIP"):
        doc = copy.deepcopy(docs["simulate-alip"])
        doc.update(plant=plant, duration=10, ankle_amplitude=1.0)
        doc["integrator"]["step_size"] = 7e-4
        docs[f"{plant.lower()}-ankle"] = doc
    return docs


def column_gaps(old: Path, new: Path) -> list[str]:
    """Lines of the per-column gap table of two CSVs with one header row."""
    header = old.read_bytes().split(b"\r\n", 1)[0].decode().split(",")
    a, b = (np.loadtxt(p, delimiter=",", skiprows=1, ndmin=2) for p in (old, new))
    if a.shape != b.shape:
        return [f"    shapes differ: {a.shape} -> {b.shape}"]
    lines = [f"    {'column':<12} {'worst gap':>10} {'max |old|':>10} {'gap / max(1, |old|)':>20}"]
    for j, name in enumerate(header):
        gap = float(np.max(np.abs(a[:, j] - b[:, j]), initial=0.0))
        top = float(np.max(np.abs(a[:, j]), initial=0.0))
        lines.append(f"    {name:<12} {gap:10.2g} {top:10.3g} {gap / max(1.0, top):20.2g}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="the parent's src/ directory")
    parser.add_argument("change", type=Path, help="the change's src/ directory")
    parser.add_argument("--out", type=Path, help="keep the artifacts under this directory")
    args = parser.parse_args(argv)
    sides = {side: load_tree(src.resolve(), f"stridelab_{side}")
             for side, src in (("parent", args.parent), ("change", args.change))}
    with tempfile.TemporaryDirectory() as tmp:
        root = args.out or Path(tmp)
        identical = True
        for name, doc in configs().items():
            dirs = {side: root / side / name for side in sides}
            for side, package in sides.items():
                config = package.simlab.ScenarioConfig.from_json(doc)
                package.simlab.run_scenario(config, dirs[side])
            for fname in FILES:
                old, new = dirs["parent"] / fname, dirs["change"] / fname
                shas = [hashlib.sha256(p.read_bytes()).hexdigest() for p in (old, new)]
                same = shas[0] == shas[1]
                identical &= same
                print(f"{name + '/' + fname:<36} {shas[0][:12]} {shas[1][:12]}  "
                      f"{'identical' if same else 'DIFFERS'}")
                if not same and fname.endswith(".csv"):
                    print("\n".join(column_gaps(old, new)))
    return 0 if identical else 1


if __name__ == "__main__":
    sys.exit(main())
