"""The benchmark's traced run (perfbench/tracing.py) wraps stridelab
functions and methods by name.  A renamed or removed wrap target must fail
the test suite, not only a traced benchmark run.
"""

import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_resolves():
    tracing = load_tracing()
    try:
        tracer = tracing.Tracer()  # resolves every target; installs nothing
    except tracing.MissingTarget as exc:
        pytest.fail(str(exc))
    assert len(tracer._swaps) == len(tracing.TARGETS)


def traced_run(tracing, plant, out_dir=None):
    """Per-layer metrics of one 2-step run_scenario with every wrap target
    installed, writing its artifacts to out_dir if given."""
    from stridelab import GaitCommand, IntegratorConfig, ScenarioConfig, VirtualConstraintSpec
    from stridelab import simlab

    cfg = ScenarioConfig(
        plant=plant,
        gait=GaitCommand(L_des=14.4, T=0.35, alpha=0.5),
        constraints=VirtualConstraintSpec(H=0.6, z_cl=0.07),
        duration=2,
        integrator=IntegratorConfig(step_size=1e-3),
    )
    tracer = tracing.Tracer()
    tracer.install()
    try:
        simlab.run_scenario(cfg, out_dir)
    finally:
        tracer.uninstall()
    return {name: m["value"] for name, m in tracer.layer_metrics(1, 0.0).items()}


def test_traced_run_sees_every_step_and_sample():
    # The tracer reads integrate_step's integrator and recorder from its
    # positional arguments: a keyword call would break the traced benchmark
    # (integrator) or lose the recorder's spans (recorder).
    tracing = load_tracing()
    alip = traced_run(tracing, "ALIP")
    assert alip["simlab.integrate_step.calls"] == 2
    assert alip["simlab.recorder.samples"] == 701  # 2 steps x 350 samples + t = 0
    assert alip["simlab.recorder.us"] > 0
    five = traced_run(tracing, "FIVE_LINK")
    assert five["simlab.integrate_step.calls"] == 2
    assert five["simlab.recorder.samples"] > 0
    assert five["simlab.recorder.us"] > 0
    assert five["simlab.rk4.event_calls"] > 0  # bisection advances were told apart


def test_traced_run_sees_the_writer_and_the_sample_buffer(tmp_path):
    # The traced benchmark counts CSV bytes from write_csv's path argument,
    # artifact time from _write_artifacts and samples from
    # _SampleBuffer.as_dict: a writer that bypasses write_csv, or a buffer
    # without as_dict, would read as zero there.
    alip = traced_run(load_tracing(), "ALIP", tmp_path)
    assert alip["simlab.write_csv.mb"] > 0
    assert alip["simlab.artifacts.s"] > 0
    assert alip["simlab.recorder.samples"] == 701
