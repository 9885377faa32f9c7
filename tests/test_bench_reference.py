"""The benchmark's correctness gate, run in process by tier-1.

``perfbench/reference.json`` maps each benchmark job, keyed by its argv
joined with spaces, to the sha256 of the stdout recorded for it with
the canonical modulus and b.  The benchmark refuses a change whose
stdout differs, so every job is run here through ``cli.main`` and its
digest compared, before a change reaches the benchmark.
"""

import hashlib
import json
from pathlib import Path

import pytest

from kmoments import cli

REFERENCE = Path(__file__).resolve().parent.parent / "perfbench" / "reference.json"
JOBS = json.loads(REFERENCE.read_text())["jobs"]


@pytest.mark.parametrize("key", sorted(JOBS))
def test_stdout_matches_the_recorded_digest(capsys, key):
    code = cli.main(key.split())
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    assert hashlib.sha256(captured.out.encode()).hexdigest() == JOBS[key]["sha256"]
