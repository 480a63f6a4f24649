"""Interleaved timeit medians of the closed-loop layers, the point-mass step
and the CSV writer, for two stridelab source trees side by side.

    python3 tools/rhs_timeit.py PARENT_SRC CHANGE_SRC [--repeats 15] [--number 2000]

Each SRC is a directory that holds the `stridelab` package (a checkout's
`src/`).  Both trees are imported into this one process under names of their
own, and every repeat times each case on the parent and then on the change,
so slow drift of the machine falls on both alike.  The five-link cases run on
the start state of the seed-0 `simulate-five-link` benchmark scenario, the
last two on the seed-0 `simulate-alip` scenario (perfbench/scenarios.py,
read only):

    rhs ankle off     `_five_link_rhs` on one state, ankle torque zero
    rhs ankle on      `_five_link_rhs` on one state, ankle torque non-zero
    rhs 20 lanes      `_five_link_rhs` on a stack of 20 states, per lane
    recorder row      `_FiveLinkPlant.row` on the scenario's first step, as
                      integrate_step hands it to the recorder, per sample
    alip step         `run_scenario` of one ALIP step, through its recorder
    write_csv alip    `write_csv` of the whole 100-step ALIP trace

The table gives each case's median over the repeats in microseconds per
call (per lane for the stack, per sample for the recorder row), the change's
median relative to the parent's, and the quartiles of each side.  A slow
case runs `--number` divided by its own weight calls per timing (at least
one).
"""

from __future__ import annotations

import argparse
import importlib.util
import statistics
import sys
import tempfile
import timeit
from dataclasses import replace
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
TAU_ANKLE = 0.1  # in-step time where the ankle disturbance A sin(2 pi tau / T) is non-zero
LANES = 20


def load_tree(src: Path, name: str):
    """The stridelab package under `src`, imported as the top-level module `name`."""
    init = src / "stridelab" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"rhs_timeit: no stridelab package under {src}")
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)]
    )
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package


def scenario_doc(workload: str = "simulate-five-link") -> dict:
    """The benchmark's seed-0 config of `workload`, from perfbench/scenarios.py."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import scenarios
    finally:
        sys.path.pop(0)
    return scenarios.draw(workload, 0)


def cases(package, doc: dict, alip_doc: dict, out_dir: Path) -> dict:
    """Zero-argument callables, one per case, each with its lanes per call and
    its weight (a case runs `--number` // weight calls per timing)."""
    simlab = package.simlab
    config = simlab.ScenarioConfig.from_json(doc)
    rhs = simlab._five_link_rhs
    out = {}
    for label, cfg in (
        ("rhs ankle off", replace(config, ankle_amplitude=0.0)),
        ("rhs ankle on", config),
    ):
        plant = simlab._FiveLinkPlant(cfg)
        state = plant.start()
        plant.begin_step(state, cfg.gait.L_des)
        y = np.concatenate([state.q, state.dq])
        model, controller = plant.model, plant.controller
        if label == "rhs ankle on" and controller.ankle(TAU_ANKLE) == 0.0:
            raise SystemExit("rhs_timeit: the scenario's ankle torque is zero")
        out[label] = (lambda m=model, c=controller, y=y: rhs(m, c, TAU_ANKLE, y), 1, 1)
    # The stack: the start state and 19 small, fixed perturbations of it.
    plant = simlab._FiveLinkPlant(config)
    state = plant.start()
    y = np.concatenate([state.q, state.dq])
    offsets = 1e-3 * np.sin(np.arange(LANES * 10).reshape(LANES, 10))
    offsets[0] = 0.0
    Y = y + offsets
    plant.controller.set_target(config.gait.L_des)
    plant.controller.on_step_start(Y)
    lanes = plant.controller
    out[f"rhs {LANES} lanes"] = (lambda: rhs(plant.model, lanes, TAU_ANKLE, Y), LANES, LANES)
    # One call per step, or one per sample in a tree whose recorder took
    # samples one at a time; either way the row of every sample of the step.
    row_plant = simlab._FiveLinkPlant(config)
    row_plant.begin_step(state, config.gait.L_des)
    calls = []
    simlab.integrate_step(
        row_plant.model, row_plant.controller, state, config.gait.T, config.integrator,
        lambda *a, **kw: calls.append(a + (kw["ydot"],)),
    )
    n = sum(np.size(a[0]) for a in calls)
    out["recorder row"] = (lambda: [row_plant.row(*a) for a in calls], n, n)
    alip = simlab.ScenarioConfig.from_json(alip_doc)
    one_step = replace(alip, duration=1)
    out["alip step"] = (lambda: simlab.run_scenario(one_step), 1, 400)
    trace = simlab.run_scenario(alip)
    csv_path = out_dir / f"{package.__name__}.csv"
    columns = list(trace.samples)
    out["write_csv alip"] = (lambda: simlab.write_csv(csv_path, columns, trace.samples), 1, 10**9)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="the parent's src/ directory")
    parser.add_argument("change", type=Path, help="the change's src/ directory")
    parser.add_argument("--repeats", type=int, default=15)
    parser.add_argument("--number", type=int, default=2000, help="calls per timing")
    args = parser.parse_args(argv)
    if args.repeats < 1 or args.number < 1:
        parser.error("--repeats and --number must be >= 1")
    doc, alip_doc = scenario_doc(), scenario_doc("simulate-alip")
    with tempfile.TemporaryDirectory() as tmp:
        sides = {
            side: cases(load_tree(src.resolve(), f"stridelab_{side}"), doc, alip_doc, Path(tmp))
            for side, src in (("parent", args.parent), ("change", args.change))
        }
        times = {side: {label: [] for label in sides[side]} for side in sides}
        for _ in range(args.repeats):
            for label in sides["parent"]:
                for side in sides:
                    fn, lanes, weight = sides[side][label]
                    number = max(1, args.number // weight)
                    seconds = timeit.timeit(fn, number=number)
                    times[side][label].append(1e6 * seconds / (number * lanes))
    print(f"{'case':<16} {'parent us':>12} {'change us':>12} {'change/parent':>14}"
          f"   parent q1-q3            change q1-q3")
    for label in sides["parent"]:
        p, c = times["parent"][label], times["change"][label]
        pq, cq = statistics.quantiles(p, n=4), statistics.quantiles(c, n=4)
        mp, mc = statistics.median(p), statistics.median(c)
        print(f"{label:<16} {mp:12.2f} {mc:12.2f} {mc / mp:14.3f}"
              f"   {pq[0]:10.2f}-{pq[2]:10.2f}   {cq[0]:10.2f}-{cq[2]:10.2f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
