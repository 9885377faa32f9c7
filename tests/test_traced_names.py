"""The benchmark's tracer wraps package functions by name; each must exist,
and be loaded by importing the CLI alone."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"

# run after "import kmoments.cli" alone: the traced (module, name) pairs the
# tracer's sys.modules lookup and getattr would not find
_AFTER_CLI_IMPORT = """
import ast, sys
import kmoments.cli
traced = ast.literal_eval(sys.argv[1])
missing = [(m, n) for m, n, _ in traced if not hasattr(sys.modules.get(m), n)]
print(missing)
"""


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


def test_importing_the_cli_binds_every_traced_name():
    # the tracer wraps what "import kmoments.cli" loaded, through the package
    # and the CLI's own imports; a layer both left to a lazy import would be
    # missing from sys.modules, and --trace 1 would fail with a KeyError
    done = subprocess.run(
        [sys.executable, "-c", _AFTER_CLI_IMPORT, repr(_traced())],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    assert done.stdout == "[]\n"
