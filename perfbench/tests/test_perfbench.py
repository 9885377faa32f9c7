"""The benchmark's own checks, on the three workload shapes at r <= 5."""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys

import pytest

import jobs
import record_reference
import run
import speed
import tracer

SHAPES = {
    "ktable": jobs.make_jobs(
        "moments --r 4 --code 4 --hmax 1 --format csv",
        "moments --r 5 --code 4 --hmax 1 --format csv",
    ),
    "weights": jobs.make_jobs("weights --r 5 --code 2 --jmax 12", "weights --r 4 --format json"),
    "verify": jobs.make_jobs("verify --r 3 --hmax 10", "verify --r 4 --hmax 10", "verify --r 5 --hmax 10"),
}
ENV = jobs.child_env()


def _cli(argv, span_pipe=False):
    cmd = [sys.executable, run.TRACER_PATH] if span_pipe else [sys.executable, "-m", "kmoments.cli"]
    return jobs.run_child([*cmd, *argv], ENV, span_pipe=span_pipe)


@pytest.fixture(scope="module")
def reference():
    return record_reference.record([job for shape in SHAPES.values() for job in shape])


def test_seeded_inputs():
    job = SHAPES["verify"][2]
    assert jobs.seeded_argv(job, 0) == list(job.argv)
    argv = jobs.seeded_argv(job, 11)
    assert argv == jobs.seeded_argv(job, 11)
    modulus, b = int(argv[argv.index("--modulus") + 1], 16), int(argv[argv.index("--b") + 1], 16)
    from kmoments import build_field, irreducible_polys

    assert modulus in irreducible_polys(5)
    assert build_field(5, modulus=modulus).trace_table[b] == 1
    assert len({tuple(jobs.seeded_argv(job, s)) for s in range(1, 9)}) > 1


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("workload", sorted(SHAPES))
def test_gate_passes_on_current_code(workload, seed, reference):
    for job in SHAPES[workload]:
        result = _cli(jobs.seeded_argv(job, seed))
        assert jobs.gate(job, seed, result, reference) is None, job.key


def test_committed_reference_matches_current_code():
    committed = jobs.load_reference()
    for job in jobs.WORKLOADS["verify"][:3]:
        assert jobs.gate(job, 0, _cli(list(job.argv)), committed) is None, job.key


@pytest.mark.parametrize(
    "workload, old, new",
    [
        ("ktable", b",1,1,true", b",3,1,true"),
        ("weights", b"15,", b"16,"),
        ("verify", b"all: pass", b"all: FAIL"),
    ],
)
def test_gate_fails_on_tampered_output(workload, old, new, reference):
    job = SHAPES[workload][0]
    good = _cli(list(job.argv))
    assert old in good.stdout
    changed = dataclasses.replace(good, stdout=good.stdout.replace(old, new, 1))
    assert "invariant" in jobs.gate(job, 7, changed, reference)

    # a byte that changes no number still breaks the seed-0 digest
    reformatted = dataclasses.replace(good, stdout=good.stdout + b"\n")
    assert jobs.gate(job, 7, reformatted, reference) is None
    assert "digest" in jobs.gate(job, 0, reformatted, reference)

    assert "exit code 2" in jobs.gate(job, 0, dataclasses.replace(good, returncode=2), reference)
    assert "unreadable" in jobs.gate(job, 0, dataclasses.replace(good, stdout=b"\xff"), reference)


@pytest.mark.parametrize("workload", sorted(SHAPES))
def test_traced_self_times_sum_to_wall(workload, reference):
    for job in SHAPES[workload]:
        result = _cli(jobs.seeded_argv(job, 0), span_pipe=True)
        assert jobs.gate(job, 0, result, reference) is None, job.key
        doc = json.loads(result.spans)
        self_total = sum(agg["self_s"] for agg in tracer.layer_totals([doc]).values())
        assert 0 <= result.wall_s - self_total <= tracer.tolerance_s(doc), job.key


def test_trace_reaches_every_binding():
    documents = [json.loads(_cli(list(job.argv), span_pipe=True).spans) for job in SHAPES["verify"]]
    parents = set()
    for doc in documents:
        spans = doc["spans"]
        parents |= {(name, spans[parent][0]) for name, _, _, parent, _ in spans if parent is not None}
    # moments imports these by name; codes imports kloosterman_sum by name
    assert ("codes.dual_codeword", "moments.pless_check") in parents
    assert ("codes.weight_distribution", "moments.pless_check") in parents
    assert ("codes.weight_distribution", "moments.moment_sequence") in parents
    assert ("gf2r.build_field", "cli.main") in parents
    totals = tracer.layer_totals(documents)
    assert totals["kloosterman.kloosterman_sum"]["calls"] > 0
    ratio_base = totals["codes.weight_distribution"]
    assert 0 < len(ratio_base["keys"]) < ratio_base["calls"]


def test_weights_bypasses_kloosterman():
    metrics = run._layer_metrics([_cli(list(job.argv), span_pipe=True) for job in SHAPES["weights"]])
    assert metrics["kloosterman.kloosterman_table.calls"][0] == 0
    assert metrics["kloosterman.kloosterman_sum.calls"][0] == 0
    assert metrics["codes.weight_distribution.calls"][0] > 0


def test_speed_probes_run_during_the_child():
    result = jobs.run_child([sys.executable, "-c", "import time; time.sleep(0.35)"], ENV, probe=True)
    # one slice at the spawn, then one every PROBE_INTERVAL_S
    assert 3 <= len(result.probes) <= 5
    assert all(p > 0 for p in result.probes)
    assert speed.factor((speed.REFERENCE_S, speed.REFERENCE_S)) == pytest.approx(1.0)
    assert _cli(["verify", "--r", "3"]).probes == ()


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(jobs.ROOT / "perfbench", tmp_path / "perfbench")
    shutil.copy(jobs.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ktable", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode != 0
    assert '"correct"' not in result.stdout
