"""The benchmark's tracer binds rspin functions by name (TARGETS in
bench/tracer.py). A rename or deletion of a traced function must fail
here, not only when the benchmark runs with --trace 1."""

import importlib

import pytest

from oracles import bench_module

TARGETS = [(mod, name) for mod, names in bench_module("tracer").TARGETS.items() for name in names]


def test_targets_listed():
    assert len(TARGETS) >= 20


@pytest.mark.parametrize("module,name", TARGETS)
def test_target_is_callable(module, name):
    assert callable(getattr(importlib.import_module(module), name, None)), f"{module}.{name}"
