"""The package's public names and the benchmark's traced layers name things
the program still has, and one cycle of the benchmark's workloads passes
its own output checks."""

import ast
import importlib
import sys
from pathlib import Path

import trilevel

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _layers():
    # read, not imported: the (module, function) pairs assigned to LAYERS
    for node in ast.parse(TRACER.read_text(encoding="utf-8")).body:
        if (isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets]
                == ["LAYERS"]):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{TRACER} assigns no LAYERS")


def test_every_public_name_resolves():
    for name in trilevel.__all__:
        assert hasattr(trilevel, name), f"trilevel.{name}"
    namespace = {}
    exec("from trilevel import *", namespace)
    assert set(trilevel.__all__) <= set(namespace)


def test_every_traced_layer_is_a_program_function():
    layers = _layers()
    assert layers
    for module, name in layers:
        fn = getattr(importlib.import_module(f"trilevel.{module}"), name, None)
        assert callable(fn), f"trilevel.{module}.{name}"


def test_one_benchmark_cycle_passes_its_own_checks(tmp_path, monkeypatch):
    # monkeypatch restores sys.path; the benchmark's modules are dropped so
    # that no later import finds them by their bare names
    monkeypatch.syspath_prepend(str(TRACER.parent))
    try:
        workloads = importlib.import_module("workloads")
        for name, workload in workloads.WORKLOADS.items():
            wl = workload(trilevel, 0, tmp_path / name)
            for item in wl.cycle:
                try:
                    wl.check(item, wl.run(item))
                except Exception as exc:
                    raise AssertionError(f"{name} item {item.key}") from exc
    finally:
        for module in ("workloads", "independent"):
            sys.modules.pop(module, None)
