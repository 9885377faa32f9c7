"""A smoke run of ``bench/layers.py`` on two trees at r <= 4, with its fixed ``ktable`` jobs
at r = 11 and 12: the JSON it writes has the shape its readers expect, its calls rows show
the sharing of verify's stage record, a function that one tree lacks has rows on the other
side only, a module that a tree lacks is not wrapped, and neither tree it measures gains
bytecode.  Every function the bench wraps is one of the current tree, so a renamed builder
fails here instead of dropping its rows.  It sets no bound on any figure and gates nothing."""

import importlib
import importlib.util
import json
import platform
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from kmoments.gf2r import FieldContext

ROOT = Path(__file__).resolve().parent.parent
sys.path.append(str(ROOT / "perfbench"))
import speed  # noqa: E402

_spec = importlib.util.spec_from_file_location("layers", ROOT / "bench" / "layers.py")
layers = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(layers)

# the one wrapped function that verify calls at no r <= 4: its rows are at r = 7, 8
NOT_CALLED = {"checks.code_cardinality"}


def test_every_wrapped_name_is_a_function_of_the_tree():
    for name in layers.STAGES:
        module, attr = name.split(".")
        assert callable(vars(importlib.import_module(f"kmoments.{module}")).get(attr)), name
    for attr in layers.FIELD_PASSES:
        assert callable(vars(FieldContext).get(attr)), attr


def test_a_module_the_tree_lacks_is_not_wrapped(monkeypatch):
    # as a base tree that predates a module has none of its rows
    monkeypatch.setattr(layers, "STAGES", ("no_such_module.f", "codes._bit_rows"))
    assert [name for name, _, _ in layers._stage_targets()] == ["codes._bit_rows"]


@pytest.fixture(scope="module")
def bench(tmp_path_factory):
    """The trees (the base without ``_block_walk``, renamed ``_gray_walk``; the change as it
    is) and the JSON of one round of the two.  Each tree is a copy of the package without
    bytecode, so that any ``__pycache__`` in it is the bench's."""
    tmp = tmp_path_factory.mktemp("layers")
    srcs = [tmp / "base", tmp / "change"]
    for src in srcs:
        shutil.copytree(ROOT / "src" / "kmoments", src / "kmoments", ignore=shutil.ignore_patterns("__pycache__"))
    for path in (srcs[0] / "kmoments").glob("*.py"):
        path.write_text(path.read_text().replace("_block_walk", "_gray_walk"))
    out = tmp / "bench.json"
    argv = [arg for src in srcs for arg in ("--src", str(src))]
    argv += ["--out", str(out), "--rounds", "1", "--field-r", "3", "4", "--verify-r", "3"]
    done = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "layers.py"), *argv],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert (done.returncode, done.stderr) == (0, "")
    return srcs, json.loads(out.read_text())


def test_layer_bench_writes_each_side_s_medians_and_spreads(bench):
    _, doc = bench
    assert set(doc) == {"sides", "python", "rounds", "field_r", "verify_r", "reference_s", "metrics"}
    assert (doc["python"], doc["rounds"], doc["field_r"], doc["verify_r"], doc["reference_s"]) == (
        platform.python_version(), 1, [3, 4], [3], speed.REFERENCE_S
    )
    assert [set(side) for side in doc["sides"]] == [{"sha", "dirty"}] * 2
    passes = ("build_field", "exp_log", "trace_table", "rest")
    names = [f"field.r{r}.{p}" for r in (3, 4) for p in passes] + ["verify_rows.r3", "verify_rows.r4"]
    stages = [name for name in layers.STAGES if name not in NOT_CALLED]
    names += [f"stages.r{r}.{name}.{row}" for r in (3, 4) for name in stages for row in ("self_s", "calls")]
    names += [f"cli.verify{k}.{part}" for part in ("wall", "shutdown") for k in ("_r3", "")]
    names += ["cli.import_source"] + [f"cli.ktable{k}.source_wall" for k in ("_r11", "_r12", "")]
    slices = ["slice.field_child", "slice.processes"]
    assert sorted(doc["metrics"]) == sorted(names + slices)
    for name, metric in doc["metrics"].items():
        # every row in seconds but a slice is also given normalised: times REFERENCE_S over
        # its process's mean slice; a count of calls is not
        counted = name.endswith(".calls")
        keys = ("sides",) if counted or name in slices else ("sides", "normalised")
        assert metric["unit"] == ("count" if counted else "s"), name
        if "_block_walk" in name:
            continue
        ratios = {"sides": "ratio", "normalised": "normalised_ratio"}
        assert set(metric) == {"unit", *keys, *(ratios[key] for key in keys)}, name
        for key in keys:
            for spread in metric[key]:
                assert set(spread) == {"median", "q1", "q3", "min", "max", "n"} and spread["n"] == 1, name
                assert spread["min"] <= spread["q1"] <= spread["median"] <= spread["q3"] <= spread["max"], name
    metrics = doc["metrics"]
    for name, mean_slice in (("verify_rows.r3", "slice.field_child"), ("cli.verify.wall", "slice.processes")):
        for side in (0, 1):
            raw, normalised = metrics[name]["sides"][side]["median"], metrics[name]["normalised"][side]["median"]
            mean = metrics[mean_slice]["sides"][side]["median"]
            assert raw > 0 and normalised == pytest.approx(raw * speed.REFERENCE_S / mean, rel=1e-12), name
    assert metrics["cli.import_source"]["sides"][0]["median"] > 0


def test_calls_rows_show_the_record_s_sharing(bench):
    # one phi and one K table per r, one walk and one transform per block, of which codes 1
    # and 2 share one and codes 3 and 4 the other; H and G of each code from _bit_rows
    _, doc = bench
    expected = {
        "gf2r._trace_map": 1,
        "kloosterman.kloosterman_table": 1,
        "codes._block_transform": 2,
        "checks._block_walk": 2,
        "checks._generator_rows": 4,
        "codes._bit_rows": 8,
    }
    for r in (3, 4):
        for name, calls in expected.items():
            metric = doc["metrics"][f"stages.r{r}.{name}.calls"]
            medians = [side["median"] for side in metric["sides"] if side]
            assert medians == [calls] * (1 if "_block_walk" in name else 2), (r, name)


def test_a_function_one_tree_lacks_has_rows_on_the_other_side_only(bench):
    _, doc = bench
    for row, keys in (("calls", ("sides",)), ("self_s", ("sides", "normalised"))):
        metric = doc["metrics"][f"stages.r3.checks._block_walk.{row}"]
        assert set(metric) == {"unit", *keys}, row
        for key in keys:
            base, change = metric[key]
            assert base is None and change["median"] > 0, (row, key)
    assert not any("_gray_walk" in name for name in doc["metrics"])


def test_the_measured_trees_gain_no_bytecode(bench):
    srcs, _ = bench
    assert [list(src.rglob("__pycache__")) for src in srcs] == [[], []]
