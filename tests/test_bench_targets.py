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
