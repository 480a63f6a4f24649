"""Span tracing of stridelab's layers, done from outside the program.

`Tracer.install()` replaces module attributes (functions, and three methods of
WalkingController) with wrappers that record one span per call: name, start,
end and the span that was open when the call began.  Spans stay in memory and
are written out when the run ends; `Tracer.layer_metrics()` turns them into
the per-layer metrics.  A layer's self time is its span's duration minus the
durations of its child spans.

A wrap target that no longer exists raises `MissingTarget` naming it, so a
renamed layer fails the traced run instead of reading as zero.
"""

from __future__ import annotations

import time
from array import array
from pathlib import Path

import numpy as np


class MissingTarget(RuntimeError):
    pass


# (span name, module, attribute path).  Spans are named after the modules.
TARGETS = (
    ("simlab.rhs", "simlab", "_five_link_rhs"),
    ("simlab.rk4", "simlab", "_rk4_advance"),
    ("simlab.integrate_step", "simlab", "integrate_step"),
    ("control.io_torque", "simlab", "_io_torque_core"),
    ("simlab.write_csv", "simlab", "write_csv"),
    ("simlab.artifacts", "simlab", "_write_artifacts"),
    ("simlab.sample_buffer", "simlab", "_SampleBuffer.as_dict"),
    ("simlab.placement", "simlab", "WalkingController._placement"),
    ("simlab.reference", "simlab", "WalkingController._reference"),
    ("simlab.clamp", "simlab", "WalkingController._clamp"),
    ("biped.dyn_terms", "biped", "_dyn_terms"),
    ("biped.centroidal", "biped", "centroidal"),
    ("biped.com_acceleration", "biped", "com_acceleration"),
    ("biped.impact_map", "biped", "impact_map"),
    ("biped.impact_solution", "biped", "_impact_solution"),
    ("control.outputs_full", "control", "_outputs_full"),
    ("control.checked_solve", "control", "_checked_solve"),
    ("analysis.fixed_point", "analysis", "find_fixed_point"),
    ("analysis.jacobian", "analysis", "numeric_poincare_jacobian"),
)

# Per-layer metrics in the order BENCHMARK.json lists them.
METRICS = (
    ("analysis.fixed_point.map_calls", "count"),
    ("analysis.fixed_point.s", "s"),
    ("analysis.jacobian.map_calls", "count"),
    ("analysis.jacobian.s", "s"),
    ("analysis.return_map.ms", "ms"),
    ("simlab.rhs.calls", "count"),
    ("simlab.rhs.us", "us"),
    ("simlab.rhs.self_us", "us"),
    ("biped.dyn_terms.calls", "count"),
    ("biped.dyn_terms.us", "us"),
    ("control.outputs_full.us", "us"),
    ("control.checked_solve.calls", "count"),
    ("control.checked_solve.us", "us"),
    ("control.io_torque.self_us", "us"),
    ("simlab.placement.us", "us"),
    ("simlab.reference.us", "us"),
    ("simlab.rk4.calls", "count"),
    ("simlab.rk4.event_calls", "count"),
    ("simlab.rk4.useful_ratio", "ratio"),
    ("simlab.recorder.us", "us"),
    ("simlab.recorder.samples", "count"),
    ("biped.centroidal.us", "us"),
    ("biped.com_acceleration.us", "us"),
    ("simlab.integrate_step.calls", "count"),
    ("simlab.integrate_step.self_ms", "ms"),
    ("simlab.sample_buffer.ms", "ms"),
    ("simlab.write_csv.s", "s"),
    ("simlab.write_csv.mb", "MB"),
    ("simlab.artifacts.s", "s"),
    ("biped.impact_map.calls", "count"),
    ("biped.impact_map.us", "us"),
    ("biped.impact_solution.calls", "count"),
    ("simlab.placement.clamp_hits", "count"),
    ("trace.overhead_s", "s"),
)


def _resolve(module, path: str):
    owner = module
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
    if owner is None or not hasattr(owner, parts[-1]):
        raise MissingTarget(f"wrap target {module.__name__}.{path} no longer exists")
    return owner, parts[-1]


class Tracer:
    """Resolves every wrap target when created (raising MissingTarget for one
    that is gone); `install()` and `uninstall()` swap the wrappers in and out."""

    def __init__(self):
        from stridelab import analysis, biped, control, simlab

        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counts = {"rk4_event": 0, "clamp_hits": 0, "csv_bytes": 0, "samples": 0}
        self.step_size = None
        modules = {"simlab": simlab, "biped": biped, "control": control, "analysis": analysis}
        hooks = {
            "simlab.integrate_step": (self._wrap_recorder, None),
            "simlab.rk4": (self._count_bisection, None),
            "simlab.clamp": (None, self._count_clamp),
            "simlab.write_csv": (None, self._count_bytes),
            "simlab.sample_buffer": (None, self._count_samples),
        }
        self._swaps = []
        for name, mod, path in TARGETS:
            owner, attr = _resolve(modules[mod], path)
            original = owner.__dict__[attr]
            wrapper = self.span(name, original, *hooks.get(name, (None, None)))
            self._swaps.append((owner, attr, original, wrapper))

    def _id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def span(self, name: str, fn, before=None, after=None):
        """`fn` wrapped to record a span; `before(args)` may rewrite the
        arguments and `after(args, result)` may count what the call did."""
        nid = self._id(name)
        clock = time.perf_counter
        name_id, parent, start, end, stack = (
            self.name_id, self.parent, self.start, self.end, self.stack
        )

        def wrapper(*args, **kwargs):
            if before is not None:
                args = before(args)
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def install(self) -> None:
        for owner, attr, _original, wrapper in self._swaps:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _wrapper in self._swaps:
            setattr(owner, attr, original)

    # -- hooks -------------------------------------------------------------

    def _wrap_recorder(self, args):
        # integrate_step(model, controller, state, T, integrator, recorder)
        self.step_size = args[4].step_size
        if len(args) > 5 and args[5] is not None:
            args = args[:5] + (self.span("simlab.recorder", args[5]),)
        return args

    def _count_bisection(self, args):
        # _rk4_advance(model, controller, tau, y, h, k1=None): an advance
        # shorter than the configured step is a bisection advance.
        if args[4] < self.step_size:
            self.counts["rk4_event"] += 1
        return args

    def _count_clamp(self, args, result):
        if result != args[1]:
            self.counts["clamp_hits"] += 1

    def _count_bytes(self, args, result):
        self.counts["csv_bytes"] += Path(args[0]).stat().st_size

    def _count_samples(self, args, result):
        self.counts["samples"] += len(next(iter(result.values()), ()))

    # -- results -----------------------------------------------------------

    def save(self, path: Path) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
        )

    def layer_metrics(self, n_ops: int, overhead_s: float) -> dict:
        """Per-layer metrics per traced operation."""
        name_id = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_dur = dur - child

        def pick(name):
            return name_id == self.names.index(name) if name in self.names else np.zeros(
                dur.shape, dtype=bool
            )

        def calls(name):
            return int(pick(name).sum())

        def total(name, values=dur):
            return float(values[pick(name)].sum())

        def mean(name, values=dur):
            n = calls(name)
            return total(name, values) / n if n else 0.0

        def map_calls_under(name):
            if name not in self.names or "analysis.return_map" not in self.names:
                return 0
            owners = np.flatnonzero(pick(name))
            return int(np.isin(parent[pick("analysis.return_map")], owners).sum())

        rhs_calls = calls("simlab.rhs")
        rk4_calls = calls("simlab.rk4")
        values = {
            "analysis.fixed_point.map_calls": map_calls_under("analysis.fixed_point") / n_ops,
            "analysis.fixed_point.s": total("analysis.fixed_point") / n_ops,
            "analysis.jacobian.map_calls": map_calls_under("analysis.jacobian") / n_ops,
            "analysis.jacobian.s": total("analysis.jacobian") / n_ops,
            "analysis.return_map.ms": 1e3 * mean("analysis.return_map"),
            "simlab.rhs.calls": rhs_calls / n_ops,
            "simlab.rhs.us": 1e6 * mean("simlab.rhs"),
            "simlab.rhs.self_us": 1e6 * mean("simlab.rhs", self_dur),
            "biped.dyn_terms.calls": calls("biped.dyn_terms") / n_ops,
            "biped.dyn_terms.us": 1e6 * mean("biped.dyn_terms"),
            "control.outputs_full.us": 1e6 * mean("control.outputs_full"),
            "control.checked_solve.calls": calls("control.checked_solve") / n_ops,
            "control.checked_solve.us": 1e6 * mean("control.checked_solve"),
            "control.io_torque.self_us": 1e6 * mean("control.io_torque", self_dur),
            "simlab.placement.us": 1e6 * mean("simlab.placement"),
            "simlab.reference.us": 1e6 * mean("simlab.reference"),
            "simlab.rk4.calls": rk4_calls / n_ops,
            "simlab.rk4.event_calls": self.counts["rk4_event"] / n_ops,
            "simlab.rk4.useful_ratio": (
                (rk4_calls - self.counts["rk4_event"]) / rk4_calls if rk4_calls else 0.0
            ),
            "simlab.recorder.us": 1e6 * mean("simlab.recorder"),
            "simlab.recorder.samples": self.counts["samples"] / n_ops,
            "biped.centroidal.us": 1e6 * mean("biped.centroidal"),
            "biped.com_acceleration.us": 1e6 * mean("biped.com_acceleration"),
            "simlab.integrate_step.calls": calls("simlab.integrate_step") / n_ops,
            "simlab.integrate_step.self_ms": 1e3 * mean("simlab.integrate_step", self_dur),
            "simlab.sample_buffer.ms": 1e3 * total("simlab.sample_buffer") / n_ops,
            "simlab.write_csv.s": total("simlab.write_csv") / n_ops,
            "simlab.write_csv.mb": self.counts["csv_bytes"] / 1e6 / n_ops,
            "simlab.artifacts.s": total("simlab.artifacts") / n_ops,
            "biped.impact_map.calls": calls("biped.impact_map") / n_ops,
            "biped.impact_map.us": 1e6 * mean("biped.impact_map"),
            "biped.impact_solution.calls": calls("biped.impact_solution") / n_ops,
            "simlab.placement.clamp_hits": self.counts["clamp_hits"] / n_ops,
            "trace.overhead_s": overhead_s,
        }
        return {name: {"value": values[name], "unit": unit} for name, unit in METRICS}
