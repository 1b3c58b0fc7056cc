"""The benchmark's tracer binds rspin functions by name (TARGETS in
bench/tracer.py). A rename or deletion of a traced function must fail
here, not only when the benchmark runs with --trace 1."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _targets():
    spec = importlib.util.spec_from_file_location("rspin_bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return [(mod, name) for mod, names in tracer.TARGETS.items() for name in names]


TARGETS = _targets()


def test_targets_listed():
    assert len(TARGETS) >= 20


@pytest.mark.parametrize("module,name", TARGETS)
def test_target_is_callable(module, name):
    assert callable(getattr(importlib.import_module(module), name, None)), f"{module}.{name}"
