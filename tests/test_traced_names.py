"""The benchmark's tracer wraps package functions by name; each must exist."""

import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).parents[1] / "perfbench" / "tracer.py"


def _traced():
    # read the TRACED literal from the source, without importing the tracer
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TRACED assignment in {TRACER}")


def test_every_traced_name_resolves():
    traced = _traced()
    assert traced
    for module, name, _ in traced:
        assert callable(getattr(importlib.import_module(module), name)), (module, name)
