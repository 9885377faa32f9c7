"""The benchmark's correctness gate, run in process by tier-1.

``perfbench/reference.json`` maps each benchmark job, keyed by its argv
joined with spaces, to the sha256 of the stdout recorded for it with
the canonical modulus and b, and to the numbers in that output that no
choice of modulus or b changes.  The benchmark refuses a change whose
seed-0 stdout differs, or whose numbers differ under any seed, so every
job is run here through ``cli.main``, at seed 0 and at the seeded field
flags of ``perfbench/jobs.py``, before a change reaches the benchmark.
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from kmoments import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
REFERENCE = PERFBENCH / "reference.json"
JOBS = json.loads(REFERENCE.read_text())["jobs"]

# the benchmark's modules are scripts beside run.py, not a package
sys.path.insert(0, str(PERFBENCH))
import jobs  # noqa: E402


@pytest.mark.parametrize("key", sorted(JOBS))
def test_stdout_matches_the_recorded_digest(capsys, key):
    code = cli.main(key.split())
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    assert hashlib.sha256(captured.out.encode()).hexdigest() == JOBS[key]["sha256"]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_seeded_runs_keep_the_recorded_numbers(capsys, seed):
    # each job with the modulus and trace-one b its seed picks, as the benchmark runs it
    for workload in jobs.WORKLOADS.values():
        for job in workload:
            code = cli.main(jobs.seeded_argv(job, seed))
            captured = capsys.readouterr()
            assert (code, captured.err) == (0, ""), job.key
            assert jobs.invariants(job, captured.out) == JOBS[job.key]["invariants"], job.key
