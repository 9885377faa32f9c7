"""A ``moments`` or ``weights`` run compiles only the package modules it runs.

What only ``verify`` runs lives in ``kloosterman_checks``,
``codes_checks``, ``moments_checks`` and ``verify``, and what only the
tests run in the ``*_oracles`` modules; each layer, and the CLI, loads
them on first use.  The loading policy is read from
``python -X importtime`` in child interpreters: a ``moments`` or
``weights`` run loads no package module beyond the six below, ``verify``
loads no oracle module, no run imports ``__future__``, and no ``verify``
or ``--help`` run compiles ``kmoments.cli`` a second time beside the
``__main__`` that ``-m`` runs.  perfbench's tracer, run unmodified, still wraps
the checks that ``verify`` reads through their layer modules.
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

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACER = ROOT / "perfbench" / "tracer.py"

# every package module a moments or weights run may load
EVERY_COMMAND = {
    "kmoments",
    "kmoments.gf2r",
    "kmoments.kloosterman",
    "kmoments.codes",
    "kmoments.moments",
    "kmoments.cli",
}
CHECKS = {
    "kmoments.kloosterman_checks",
    "kmoments.codes_checks",
    "kmoments.moments_checks",
    "kmoments.verify",
}
ORACLES = {"kmoments.kloosterman_oracles", "kmoments.codes_oracles", "kmoments.moments_oracles"}

MOMENTS = ("moments", "--r", "4", "--code", "4", "--hmax", "1", "--format", "csv")
WEIGHTS = ("weights", "--r", "4", "--code", "2", "--jmax", "3")


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


def _beyond_every_command(src: Path) -> dict[str, set[str]]:
    """Per command, the package modules a moments or weights run loads beyond the six."""
    found = {}
    for argv in (MOMENTS, WEIGHTS):
        package = {m for m in _imported(src, argv) if m.split(".")[0] == "kmoments"}
        found[argv[0]] = package - EVERY_COMMAND
    return found


def test_moments_and_weights_load_no_check_module():
    assert _beyond_every_command(SRC) == {"moments": set(), "weights": set()}


def test_verify_loads_the_check_modules_and_no_oracle_module():
    imported = _imported(SRC, ("verify", "--r", "4"))
    assert CHECKS <= imported
    assert not ORACLES & imported


def test_no_run_imports_future():
    for argv in (MOMENTS, WEIGHTS, ("verify", "--r", "4")):
        assert "__future__" not in _imported(SRC, argv), argv


def test_the_policy_catches_a_check_module_imported_at_module_level(tmp_path):
    # a copy of the package whose codes imports its checks half at the top
    shutil.copytree(SRC / "kmoments", tmp_path / "kmoments", ignore=shutil.ignore_patterns("__pycache__"))
    codes = tmp_path / "kmoments" / "codes.py"
    text = codes.read_text()
    anchor = "from .gf2r import "
    assert text.count(anchor) == 1
    codes.write_text(text.replace(anchor, "from . import codes_checks\n" + anchor))
    beyond = {"kmoments.codes_checks"}
    assert _beyond_every_command(tmp_path) == {"moments": beyond, "weights": beyond}


# run by -m, the CLI is __main__: a package module that imported it back would compile a second copy
VERIFY_AND_HELP = (("verify", "--r", "3", "--hmax", "2"), ("--help",))


def test_no_run_imports_the_cli_a_second_time():
    for argv in VERIFY_AND_HELP:
        assert "kmoments.cli" not in _imported(SRC, argv), argv


def test_a_check_module_that_imports_the_cli_back_loads_a_second_copy(tmp_path):
    # a copy of the package whose verify and usage each import the CLI
    shutil.copytree(SRC / "kmoments", tmp_path / "kmoments", ignore=shutil.ignore_patterns("__pycache__"))
    for module in ("verify", "usage"):
        path = tmp_path / "kmoments" / f"{module}.py"
        text = path.read_text()
        anchor = "__all__ = "
        assert text.count(anchor) == 1
        path.write_text(text.replace(anchor, "from . import cli\n\n" + anchor))
    for argv in VERIFY_AND_HELP:
        assert "kmoments.cli" in _imported(tmp_path, argv), argv


def test_every_moved_name_is_one_function_object():
    # the package, the layer and the module that defines the name give the same object
    import kmoments

    for layer in ("kloosterman", "codes", "moments"):
        module = importlib.import_module(f"kmoments.{layer}")
        for half in ("checks", "oracles"):
            home = importlib.import_module(f"kmoments.{layer}_{half}")
            for name in home.__all__:
                assert name in module.__all__, (layer, name)
                assert getattr(module, name) is getattr(home, name), (layer, name)
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
