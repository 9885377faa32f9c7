"""A smoke run of ``bench/layers.py`` at r <= 4, with its fixed ``ktable`` jobs at r = 11
and 12: the JSON it writes has the shape its readers expect, and the tree it measures
gains no bytecode.  It sets no bound on any figure and gates nothing."""

import json
import platform
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.append(str(ROOT / "perfbench"))
import speed  # noqa: E402


def test_layer_bench_writes_each_side_s_medians_and_spreads(tmp_path):
    # a copy of the package without bytecode, so that any __pycache__ in it is the bench's
    src = tmp_path / "src"
    shutil.copytree(ROOT / "src" / "kmoments", src / "kmoments", ignore=shutil.ignore_patterns("__pycache__"))
    out = tmp_path / "bench.json"
    argv = ["--src", str(src), "--out", str(out), "--rounds", "1"]
    argv += ["--field-r", "3", "4", "--verify-r", "3"]
    done = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "layers.py"), *argv],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert (done.returncode, done.stderr) == (0, "")
    assert list(src.rglob("__pycache__")) == []
    doc = json.loads(out.read_text())
    assert set(doc) == {"sides", "python", "rounds", "field_r", "verify_r", "reference_s", "metrics"}
    assert (doc["python"], doc["rounds"], doc["field_r"], doc["verify_r"], doc["reference_s"]) == (
        platform.python_version(), 1, [3, 4], [3], speed.REFERENCE_S
    )
    (side,) = doc["sides"]
    assert set(side) == {"sha", "dirty"}
    passes = ("build_field", "exp_log", "trace_table", "rest")
    names = [f"field.r{r}.{p}" for r in (3, 4) for p in passes] + ["verify_rows.r3", "verify_rows.r4"]
    stages = ["trace_map", "pless_sums"]
    stages += [
        f"{stage}.code{i}" for stage in ("generator_rows", "dual_weights", "transform") for i in (1, 2, 3, 4)
    ]
    names += [f"stages.r{r}.{stage}" for r in (3, 4) for stage in stages]
    names += [f"cli.verify{k}.{part}" for part in ("wall", "shutdown") for k in ("_r3", "")]
    names += ["cli.import_source"] + [f"cli.ktable{k}.source_wall" for k in ("_r11", "_r12", "")]
    slices = ["slice.field_child", "slice.processes"]
    assert sorted(doc["metrics"]) == sorted(names + slices)
    for name, metric in doc["metrics"].items():
        # every row but a slice is also given normalised: times REFERENCE_S over its process's mean slice
        keys = ("sides",) if name in slices else ("sides", "normalised")
        assert set(metric) == {"unit", *keys} and metric["unit"] == "s", name
        for key in keys:
            (spread,) = metric[key]
            assert set(spread) == {"median", "q1", "q3", "min", "max", "n"} and spread["n"] == 1, name
            assert spread["min"] <= spread["q1"] <= spread["median"] <= spread["q3"] <= spread["max"], name
    metrics = doc["metrics"]
    for name, mean_slice in (("verify_rows.r3", "slice.field_child"), ("cli.verify.wall", "slice.processes")):
        raw, normalised = metrics[name]["sides"][0]["median"], metrics[name]["normalised"][0]["median"]
        mean = metrics[mean_slice]["sides"][0]["median"]
        assert raw > 0 and normalised == pytest.approx(raw * speed.REFERENCE_S / mean, rel=1e-12), name
    assert metrics["cli.import_source"]["sides"][0]["median"] > 0
