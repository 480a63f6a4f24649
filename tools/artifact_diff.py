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

It then runs each `stridelab ...` example of README.md's CLI section through
each tree's `cli.main`, in this process, with `--out` set to a directory of
its own (`simulate` reads the `simulate-five-link` config).  It compares the
exit code, the stdout with that directory replaced by `<out>`, and every file
written there.

For every file it prints both sha256 prefixes and whether they match.  For a
CSV that differs it prints, per column, the worst absolute gap, the largest
|old| and the gap / max(1, max |old|).  For a JSON file that differs it prints
each dotted path that was removed (`- config.gait.W`), added (`+ ...`) or
changed (`~ ...`); a list is one value.  The exit code is 0 when every file
and every example's output are identical and 1 otherwise.  Artifacts go to a
temporary directory, or under --out if given.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import hashlib
import importlib
import io
import json
import re
import shlex
import sys
import tempfile
from pathlib import Path

import numpy as np

from rhs_timeit import ROOT, load_tree, scenario_doc

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


def cli_examples() -> list[list[str]]:
    """The argument lists of the `stridelab ...` lines in README.md's CLI
    section, continuation lines joined, `stridelab` and any `--out` dropped."""
    section = (ROOT / "README.md").read_text().split("\n## CLI\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0].replace("\\\n", " ")
    examples = []
    for line in block.splitlines():
        if line.startswith("stridelab "):
            argv = shlex.split(line)[1:]
            if "--out" in argv:
                i = argv.index("--out")
                del argv[i:i + 2]
            examples.append(argv)
    return examples


def run_cli(package, argv: list[str], out: Path) -> tuple[int, str]:
    """Exit code and stdout of `stridelab ARGV --out OUT` through the tree's
    cli.main, with OUT written as `<out>`."""
    cli = importlib.import_module(f"{package.__name__}.cli")
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        try:
            code = cli.main(argv + ["--out", str(out)])
        except SystemExit as exc:  # a flag this tree's parser rejects
            code = exc.code
    return code, stdout.getvalue().replace(str(out), "<out>")


def same_files(name: str, old_dir: Path, new_dir: Path, fnames) -> bool:
    """Print one sha256 line per file (and, for a CSV that differs, its column
    gaps); True when every file is identical."""
    identical = True
    for fname in fnames:
        old, new = old_dir / fname, new_dir / fname
        shas = [hashlib.sha256(p.read_bytes()).hexdigest() if p.is_file() else "missing"
                for p in (old, new)]
        same = shas[0] == shas[1]
        identical &= same
        print(f"{name + '/' + fname:<36} {shas[0][:12]} {shas[1][:12]}  "
              f"{'identical' if same else 'DIFFERS'}")
        if not same and "missing" not in shas:
            if fname.endswith(".csv"):
                print("\n".join(column_gaps(old, new)))
            elif fname.endswith(".json"):
                print("\n".join(json_paths(old, new)))
    return identical


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


def leaves(node, path: str = ""):
    """(dotted path, value) of every leaf of a parsed JSON document; an empty
    object and a list are leaves."""
    if isinstance(node, dict) and node:
        for key, value in node.items():
            yield from leaves(value, f"{path}.{key}" if path else key)
    else:
        yield path, node


def json_paths(old: Path, new: Path) -> list[str]:
    """Lines of the paths removed (-), added (+) and changed (~) from one
    JSON file to the other."""
    a, b = (dict(leaves(json.loads(p.read_text()))) for p in (old, new))
    marks = [(p, "-") for p in a if p not in b] + [(p, "+") for p in b if p not in a]
    marks += [(p, "~") for p in a if p in b and a[p] != b[p]]
    return [f"    {mark} {path}" for path, mark in sorted(marks)]


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
        docs = configs()
        for name, doc in docs.items():
            dirs = {side: root / side / name for side in sides}
            for side, package in sides.items():
                config = package.simlab.ScenarioConfig.from_json(doc)
                package.simlab.run_scenario(config, dirs[side])
            identical &= same_files(name, dirs["parent"], dirs["change"], FILES)
        config_path = root / "scenario.json"
        config_path.write_text(json.dumps(docs["simulate-five-link"]))
        for i, argv in enumerate(cli_examples()):
            argv = [str(config_path) if a == "scenario.json" else a for a in argv]
            name = f"cli{i}-{argv[0]}"
            dirs = {side: root / side / name for side in sides}
            runs = {side: run_cli(package, argv, dirs[side]) for side, package in sides.items()}
            same = runs["parent"] == runs["change"]
            identical &= same
            print(f"{name + ' exit/stdout':<36} {'identical' if same else 'DIFFERS'}"
                  f"  {' '.join(argv)}")
            if not same:
                for side, (code, text) in runs.items():
                    body = re.sub("(?m)^", "      ", text.rstrip("\n"))
                    print(f"    {side}: exit {code}\n{body}")
            fnames = sorted({p.name for d in dirs.values() if d.is_dir() for p in d.iterdir()})
            identical &= same_files(name, dirs["parent"], dirs["change"], fnames)
    return 0 if identical else 1


if __name__ == "__main__":
    sys.exit(main())
