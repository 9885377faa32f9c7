"""A smoke run of ``bench/layers.py`` at r <= 4, with its fixed ``ktable`` jobs at r = 11
and 12: the JSON it writes has the shape its readers expect.  It sets no bound on any
figure and gates nothing."""

import json
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_layer_bench_writes_each_side_s_medians_and_spreads(tmp_path):
    out = tmp_path / "bench.json"
    argv = ["--src", str(ROOT / "src"), "--out", str(out), "--rounds", "1"]
    argv += ["--field-r", "3", "4", "--verify-r", "3"]
    done = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "layers.py"), *argv],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert (done.returncode, done.stderr) == (0, "")
    doc = json.loads(out.read_text())
    assert set(doc) == {"sides", "python", "rounds", "field_r", "verify_r", "metrics"}
    assert (doc["python"], doc["rounds"], doc["field_r"], doc["verify_r"]) == (
        platform.python_version(), 1, [3, 4], [3]
    )
    (side,) = doc["sides"]
    assert set(side) == {"sha", "dirty"}
    passes = ("build_field", "exp_log", "trace_table", "rest")
    names = [f"field.r{r}.{p}" for r in (3, 4) for p in passes] + ["verify_rows.r3", "verify_rows.r4"]
    stages = ["trace_map", "pless_sums"]
    stages += [f"{stage}.code{i}" for stage in ("generator_rows", "dual_weights") for i in (1, 2, 3, 4)]
    names += [f"stages.r{r}.{stage}" for r in (3, 4) for stage in stages]
    names += [f"cli.verify{k}.{part}" for part in ("wall", "shutdown") for k in ("_r3", "")]
    names += ["cli.import_source"] + [f"cli.ktable{k}.source_wall" for k in ("_r11", "_r12", "")]
    assert sorted(doc["metrics"]) == sorted(names)
    for name, metric in doc["metrics"].items():
        (spread,) = metric["sides"]
        assert metric["unit"] == "s" and "ratio" not in metric, name
        assert set(spread) == {"median", "q1", "q3", "min", "max", "n"} and spread["n"] == 1, name
        assert spread["min"] <= spread["q1"] <= spread["median"] <= spread["q3"] <= spread["max"], name
    assert doc["metrics"]["cli.verify.wall"]["sides"][0]["median"] > 0
    assert doc["metrics"]["cli.import_source"]["sides"][0]["median"] > 0
