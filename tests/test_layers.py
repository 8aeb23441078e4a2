"""The benchmark's traced layers name functions the program still has."""

import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _layers():
    # read, not imported: the (module, function) pairs assigned to LAYERS
    for node in ast.parse(TRACER.read_text(encoding="utf-8")).body:
        if (isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets]
                == ["LAYERS"]):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{TRACER} assigns no LAYERS")


def test_every_traced_layer_is_a_program_function():
    layers = _layers()
    assert layers
    for module, name in layers:
        fn = getattr(importlib.import_module(f"trilevel.{module}"), name, None)
        assert callable(fn), f"trilevel.{module}.{name}"
