"""Each run compiles only the package modules it runs.

Each command is a module of its own (``moments_cmd``, ``weights_cmd``,
``verify``), and the ``--help`` text is ``usage``; what only ``verify``
runs lives in ``checks`` and ``verify``, and what only the tests run in
``oracles``; each layer, and the CLI, loads them on first use.  The
loading policy is read from ``python -X importtime`` in child
interpreters: each run loads exactly the package and its four layers,
its own command module and, for ``verify``, ``checks``; no run loads
``oracles`` or ``array`` or imports ``__future__``, and no run compiles
``kmoments.cli`` a second time beside the ``__main__`` that ``-m`` runs.
perfbench's tracer, run unmodified, still wraps the checks that
``verify`` reads through their layer modules.
"""

import importlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACER = ROOT / "perfbench" / "tracer.py"

# the package modules every run loads beside the CLI, which -m runs as __main__
EVERY_RUN = {
    "kmoments",
    "kmoments.gf2r",
    "kmoments.kloosterman",
    "kmoments.codes",
    "kmoments.moments",
}
CHECKS = {"kmoments.checks", "kmoments.verify"}
ORACLES = {"kmoments.oracles"}

MOMENTS = ("moments", "--r", "4", "--code", "4", "--hmax", "1", "--format", "csv")
WEIGHTS = ("weights", "--r", "4", "--code", "2", "--jmax", "3")
VERIFY = ("verify", "--r", "3", "--hmax", "2")
HELP = ("--help",)

# argv -> the package modules its run loads beyond EVERY_RUN: its own command module,
# verify's checks, or the --help text
OWN_MODULES = {
    MOMENTS: {"kmoments.moments_cmd"},
    WEIGHTS: {"kmoments.weights_cmd"},
    VERIFY: CHECKS,
    HELP: {"kmoments.usage"},
}


def _imported(src: Path, argv) -> set[str]:
    """Every module that ``python -X importtime -m kmoments.cli argv`` imports, from ``src``."""
    done = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "kmoments.cli", *argv],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    # "import time: <self us> | <cumulative us> | <indented module name>"
    return {
        line.rsplit("|", 1)[1].strip()
        for line in done.stderr.splitlines()
        if line.startswith("import time:") and line.count("|") == 2
    }


def _package(imported: set[str]) -> set[str]:
    return {m for m in imported if m.split(".")[0] == "kmoments"}


def _beyond_own_modules(src: Path) -> dict[str, set[str]]:
    """Per command, the package modules a moments or weights run loads beyond its own."""
    return {
        argv[0]: _package(_imported(src, argv)) - EVERY_RUN - OWN_MODULES[argv] for argv in (MOMENTS, WEIGHTS)
    }


def test_each_run_loads_exactly_its_own_modules():
    for argv, own in OWN_MODULES.items():
        imported = _imported(SRC, argv)
        assert _package(imported) == EVERY_RUN | own, argv
        assert not ORACLES & imported, argv
        assert "array" not in imported, argv


def test_no_run_imports_future():
    for argv in (MOMENTS, WEIGHTS, VERIFY):
        assert "__future__" not in _imported(SRC, argv), argv


@pytest.mark.parametrize("layer", ["kloosterman", "codes", "moments"])
def test_the_policy_catches_the_checks_imported_at_module_level(tmp_path, layer):
    # a copy of the package whose layer imports the checks at load, after its own definitions,
    # which the checks read
    shutil.copytree(SRC / "kmoments", tmp_path / "kmoments", ignore=shutil.ignore_patterns("__pycache__"))
    path = tmp_path / "kmoments" / f"{layer}.py"
    path.write_text(path.read_text() + "\nfrom . import checks\n")
    beyond = {"kmoments.checks"}
    assert _beyond_own_modules(tmp_path) == {"moments": beyond, "weights": beyond}


def test_the_policy_catches_a_command_module_loaded_by_another_run(tmp_path):
    # a copy of the package whose moments command imports the weights command
    shutil.copytree(SRC / "kmoments", tmp_path / "kmoments", ignore=shutil.ignore_patterns("__pycache__"))
    path = tmp_path / "kmoments" / "moments_cmd.py"
    text = path.read_text()
    anchor = "__all__ = "
    assert text.count(anchor) == 1
    path.write_text(text.replace(anchor, "from . import weights_cmd\n\n" + anchor))
    assert _beyond_own_modules(tmp_path) == {"moments": {"kmoments.weights_cmd"}, "weights": set()}


# run by -m, the CLI is __main__: a package module that imported it back would compile a second copy
COMMAND_MODULES = {"moments_cmd": MOMENTS, "weights_cmd": WEIGHTS, "verify": VERIFY, "usage": HELP}


def test_no_run_imports_the_cli_a_second_time():
    for argv in COMMAND_MODULES.values():
        assert "kmoments.cli" not in _imported(SRC, argv), argv


def test_a_command_module_that_imports_the_cli_back_loads_a_second_copy(tmp_path):
    # a copy of the package whose command modules and usage each import the CLI
    shutil.copytree(SRC / "kmoments", tmp_path / "kmoments", ignore=shutil.ignore_patterns("__pycache__"))
    for module in COMMAND_MODULES:
        path = tmp_path / "kmoments" / f"{module}.py"
        text = path.read_text()
        anchor = "__all__ = "
        assert text.count(anchor) == 1
        path.write_text(text.replace(anchor, "from . import cli\n\n" + anchor))
    for argv in COMMAND_MODULES.values():
        assert "kmoments.cli" in _imported(tmp_path, argv), argv


def test_every_moved_name_is_one_function_object():
    # the package, the one layer that lists the name and the module that defines it give the same object
    import kmoments

    layers = [importlib.import_module(f"kmoments.{layer}") for layer in ("kloosterman", "codes", "moments")]
    for half in ("checks", "oracles"):
        home = importlib.import_module(f"kmoments.{half}")
        for name in home.__all__:
            (layer,) = [layer for layer in layers if name in layer.__all__]
            assert getattr(layer, name) is getattr(home, name), (half, name)
            if name in kmoments.__all__:
                assert getattr(kmoments, name) is getattr(home, name), name


def test_the_unmodified_tracer_wraps_the_checks_verify_reads():
    # the span file descriptor and the spawn time, as perfbench/jobs.run_child sets them;
    # a file, not a pipe, so no read has to run beside the child
    with tempfile.TemporaryFile() as spans:
        env = {
            **os.environ,
            "PYTHONPATH": str(SRC),
            "PERFBENCH_SPAN_FD": str(spans.fileno()),
            "PERFBENCH_SPAWN_T": repr(perf_counter()),
        }
        done = subprocess.run(
            [sys.executable, str(TRACER), "verify", "--r", "4", "--hmax", "2"],
            cwd=ROOT,
            env=env,
            pass_fds=(spans.fileno(),),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert (done.returncode, done.stderr) == (0, "")
        assert done.stdout.splitlines()[-1] == "all: pass"
        spans.seek(0)
        document = json.load(spans)
    names = [span[0] for span in document["spans"]]
    # once per r for the K table, once per code (four at r = 4) for each check
    expected = {
        "kloosterman.kloosterman_table": 1,
        "codes.verify_dual_structure": 4,
        "codes.weight_distribution_exhaustive": 4,
        "moments.pless_check": 4,
    }
    assert {name: names.count(name) for name in expected} == expected
