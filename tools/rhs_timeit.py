"""Interleaved timeit medians of the closed-loop layers, the point-mass step
and the CSV writer, for two stridelab source trees side by side.

    python3 tools/rhs_timeit.py PARENT_SRC CHANGE_SRC [--repeats 15] [--number 2000]

Each SRC is a directory that holds the `stridelab` package (a checkout's
`src/`).  Both trees are imported into this one process under names of their
own, and every repeat times each case on the parent and then on the change,
so slow drift of the machine falls on both alike.  The `rhs 21 lanes` case
runs on the end state of the seed-0 `poincare-five-link` warm-up, the others
up to `five-link step` on the start state of the seed-0 `simulate-five-link`
benchmark scenario, the next three on the seed-0 `simulate-alip` scenario and
the last on the whole seed-0 `simulate-five-link` rollout
(perfbench/scenarios.py, read only):

    rhs ankle off     `_five_link_rhs` on one state, ankle torque zero
    rhs ankle on      `_five_link_rhs` on one state, ankle torque non-zero
    placement         `WalkingController._placement` on that state's term
                      rows (a list) and dq
    reference         `WalkingController._reference` at that state's
                      placement target
    rhs 20 lanes      `_five_link_rhs` on a stack of 20 states, per lane,
                      with the ankle torque zero (`ankle_amplitude=0.0`):
                      a stack takes none
    rhs 21 lanes      `_five_link_rhs` on the Jacobian's stack, x and
                      x +- 0.1 e_i, at the warm-up's end state x, per lane
    placement 20 lanes  `WalkingController._placement` on the 20 states'
                      term rows, per lane
    term rows         `biped._state_rows` on one state, q and dq lists of 5
    term rows 20 lanes  `biped._term_rows` on the same 20 states, per lane
    recorder row      `_FiveLinkPlant.row` on the scenario's first step, with
                      the arguments integrate_step hands the recorder, per
                      sample
    five-link step    one whole `integrate_step` of the start state, through
                      `_FiveLinkPlant.row` as run_scenario's recorder calls it
    alip step         `run_scenario` of one ALIP step, through its recorder
    alip rollout      `run_scenario` of the whole 100-step ALIP scenario,
                      the operation of `simulate-alip` without its artifacts
    write_csv alip    `write_csv(path, columns)` of the whole 100-step ALIP
                      trace
    write_csv five-link  `write_csv(path, columns)` of the whole 14-step
                      five-link trace, 27 columns, whose output errors
                      (y_torso ... y_swing_z) fall below 1e-4, where %.17g
                      writes them in scientific notation

The table gives each case's median over the repeats in microseconds per
call (per lane for the stacks, per sample for the recorder row), the change's
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


def cases(package, doc: dict, alip_doc: dict, poincare_doc: dict, out_dir: Path) -> dict:
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
        y = state.q.tolist() + state.dq.tolist()  # one state is a list of 10 floats
        model, controller = plant.model, plant.controller
        if label == "rhs ankle on" and controller.ankle(TAU_ANKLE) == 0.0:
            raise SystemExit("rhs_timeit: the scenario's ankle torque is zero")
        out[label] = (lambda m=model, c=controller, y=y: rhs(m, c, TAU_ANKLE, y), 1, 1)
    # The placement and reference inside the last derivative.
    one_rows, one_dq = package.biped._state_rows(model, y[:5], y[5:])[1], y[5:]
    p_des = controller._placement(one_rows, one_dq, TAU_ANKLE)
    s_phase = TAU_ANKLE / config.gait.T
    out["placement"] = (lambda c=controller: c._placement(one_rows, one_dq, TAU_ANKLE), 1, 1)
    out["reference"] = (lambda c=controller: c._reference(s_phase, TAU_ANKLE, p_des), 1, 1)
    # The stack: the start state and 19 small, fixed perturbations of it,
    # without the ankle torque, which a stack of lanes does not take.
    plant = simlab._FiveLinkPlant(replace(config, ankle_amplitude=0.0))
    state = plant.start()
    y = np.concatenate([state.q, state.dq])
    offsets = 1e-3 * np.sin(np.arange(LANES * 10).reshape(LANES, 10))
    offsets[0] = 0.0
    Y = y + offsets
    plant.controller.set_target(config.gait.L_des)
    plant.controller.on_step_start(Y)
    lanes = plant.controller
    out[f"rhs {LANES} lanes"] = (lambda: rhs(plant.model, lanes, TAU_ANKLE, Y), LANES, LANES)
    # The Jacobian's central differences, as numeric_poincare_jacobian stacks them.
    warm = simlab.ScenarioConfig.from_json(poincare_doc)
    plus = simlab.run_scenario(warm).events[-1].state_plus
    x = np.concatenate([plus.q, plus.dq])
    X = np.vstack([x, x + 0.1 * np.eye(10), x - 0.1 * np.eye(10)])
    jac = simlab.WalkingController(warm.build_model(), warm.gait, warm.constraints)
    jac.on_step_start(X)
    out["rhs 21 lanes"] = (lambda: rhs(jac.model, jac, TAU_ANKLE, X), len(X), len(X))
    biped, q, dq = package.biped, state.q.tolist(), state.dq.tolist()
    Q, DQ = Y[:, :5], Y[:, 5:]  # the views the derivative hands it
    rows = biped._term_rows(plant.model, Q, DQ)
    out[f"placement {LANES} lanes"] = (lambda: lanes._placement(rows, DQ, TAU_ANKLE), LANES, LANES)
    out["term rows"] = (lambda: biped._state_rows(plant.model, q, dq), 1, 1)
    out[f"term rows {LANES} lanes"] = (lambda: biped._term_rows(plant.model, Q, DQ), LANES, LANES)
    # The row of every sample of the step, from the one recorder call; the
    # recorder's keyword `centroidal` is row's last argument.
    row_plant = simlab._FiveLinkPlant(config)
    row_plant.begin_step(state, config.gait.L_des)
    calls = []
    simlab.integrate_step(
        row_plant.model, row_plant.controller, state, config.gait.T, config.integrator,
        lambda *a, **kw: calls.append(a + tuple(kw.values())),
    )
    n = sum(np.size(a[0]) for a in calls)
    out["recorder row"] = (lambda: [row_plant.row(*a) for a in calls], n, n)
    step_plant = simlab._FiveLinkPlant(config)

    def five_link_step():
        step_plant.begin_step(state, config.gait.L_des)
        simlab.integrate_step(
            step_plant.model, step_plant.controller, state, config.gait.T, config.integrator,
            lambda *a, **kw: step_plant.row(*a, *kw.values()),
        )

    out["five-link step"] = (five_link_step, 1, 1000)
    alip = simlab.ScenarioConfig.from_json(alip_doc)
    one_step = replace(alip, duration=1)
    out["alip step"] = (lambda: simlab.run_scenario(one_step), 1, 400)
    out["alip rollout"] = (lambda: simlab.run_scenario(alip), 1, 10**9)
    trace = simlab.run_scenario(alip)
    csv_path = out_dir / f"{package.__name__}.csv"
    out["write_csv alip"] = (lambda: simlab.write_csv(csv_path, trace.samples), 1, 10**9)
    five_link = simlab.run_scenario(config)
    five_path = out_dir / f"{package.__name__}-five-link.csv"
    out["write_csv five-link"] = (lambda: simlab.write_csv(five_path, five_link.samples), 1, 10**9)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="the parent's src/ directory")
    parser.add_argument("change", type=Path, help="the change's src/ directory")
    parser.add_argument("--repeats", type=int, default=15,
                        help="timings per case, at least 2 for the quartiles")
    parser.add_argument("--number", type=int, default=2000, help="calls per timing")
    args = parser.parse_args(argv)
    if args.repeats < 2 or args.number < 1:
        parser.error("--repeats must be >= 2 and --number >= 1")
    docs = scenario_doc(), scenario_doc("simulate-alip"), scenario_doc("poincare-five-link")
    with tempfile.TemporaryDirectory() as tmp:
        sides = {
            side: cases(load_tree(src.resolve(), f"stridelab_{side}"), *docs, Path(tmp))
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
    print(f"{'case':<20} {'parent us':>12} {'change us':>12} {'change/parent':>14}"
          f"   parent q1-q3            change q1-q3")
    for label in sides["parent"]:
        p, c = times["parent"][label], times["change"][label]
        pq, cq = statistics.quantiles(p, n=4), statistics.quantiles(c, n=4)
        mp, mc = statistics.median(p), statistics.median(c)
        print(f"{label:<20} {mp:12.2f} {mc:12.2f} {mc / mp:14.3f}"
              f"   {pq[0]:10.2f}-{pq[2]:10.2f}   {cq[0]:10.2f}-{cq[2]:10.2f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
