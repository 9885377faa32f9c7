"""Record the reference values the correctness gate compares against.

    python3 perfbench/record_reference.py

Runs every job of every workload once with the canonical modulus and b
(seed 0) and writes reference.json: per job, the modulus-invariant
numbers of its output and the sha256 of its stdout.  Run it only at a
commit whose outputs are known to be right; the gate exists to catch
any later change to these values.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import subprocess
import sys

import jobs as jobs_mod


def _git_sha() -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=jobs_mod.ROOT, capture_output=True, text=True, check=True
        )
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip()


def record(jobs) -> dict:
    env = jobs_mod.child_env()
    recorded = {}
    for job in jobs:
        run = jobs_mod.run_child([sys.executable, "-m", "kmoments.cli", *job.argv], env)
        if run.returncode != 0:
            raise SystemExit(f"{job.key}: exit code {run.returncode}")
        recorded[job.key] = {
            "invariants": jobs_mod.invariants(job, run.stdout.decode()),
            "sha256": hashlib.sha256(run.stdout).hexdigest(),
        }
    return recorded


def main() -> int:
    every_job = [job for jobs in jobs_mod.WORKLOADS.values() for job in jobs]
    doc = {
        "recorded_at": {
            "git": _git_sha(),
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
        },
        "jobs": record(every_job),
    }
    # one line per job keeps the file diffable without spreading counts over lines
    jobs_text = ",\n".join(f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in doc["jobs"].items())
    with open(jobs_mod.REFERENCE_PATH, "w") as fh:
        fh.write(f'{{\n "recorded_at": {json.dumps(doc["recorded_at"])},\n "jobs": {{\n{jobs_text}\n }}\n}}\n')
    return 0


if __name__ == "__main__":
    sys.exit(main())
