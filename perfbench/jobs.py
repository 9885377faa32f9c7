"""Workloads, seeded inputs, child processes and the correctness gate.

Every job is one invocation of the ``kmoments`` CLI at a single r, run
as a fresh child process from the checkout's ``src`` directory.  The
seed only chooses the field representation (``--modulus``/``--b``);
the numbers the gate compares do not depend on that choice.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import random
import selectors
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import speed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

# a child still running after this long counts as failed and is killed
CHILD_TIMEOUT_S = 120.0


@dataclass(frozen=True)
class Job:
    """One CLI run, as its arguments without the seeded field flags."""

    argv: tuple[str, ...]

    @property
    def key(self) -> str:
        return " ".join(self.argv)

    @property
    def r(self) -> int:
        return int(self.argv[self.argv.index("--r") + 1])


def make_jobs(*lines: str) -> tuple[Job, ...]:
    return tuple(Job(tuple(line.split())) for line in lines)


# Why each workload exists, and which layer it loads and bypasses, is
# written down in README.md beside this file.
WORKLOADS: dict[str, tuple[Job, ...]] = {
    "ktable": make_jobs(
        "moments --r 11 --code 4 --hmax 1 --format csv",
        "moments --r 12 --code 4 --hmax 1 --format csv",
    ),
    "weights": make_jobs(
        "weights --r 12 --code 2 --jmax 12",
        "weights --r 8 --format json",
    ),
    "verify": make_jobs(*(f"verify --r {k} --hmax 10" for k in range(3, 10))),
}


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def seeded_argv(job: Job, seed: int) -> list[str]:
    """The job's arguments for this seed.

    Seed 0 passes no field flags, so the CLI uses its canonical modulus
    and b.  Any other seed picks, per job, an irreducible modulus of
    degree r and a trace-one b in the field it defines.
    """
    if seed == 0:
        return list(job.argv)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from kmoments import build_field, irreducible_polys

    rng = random.Random(f"{seed}/{job.key}")
    modulus = rng.choice(list(irreducible_polys(job.r)))
    ctx = build_field(job.r, modulus=modulus)
    b = rng.choice([x for x in ctx.elements() if ctx.trace_table[x] == 1])
    return [*job.argv, "--modulus", f"{modulus:#x}", "--b", f"{b:#x}"]


@dataclass(frozen=True)
class ChildRun:
    """What one finished child process produced and cost."""

    returncode: int
    stdout: bytes
    stderr: bytes
    spans: bytes
    wall_s: float
    cpu_s: float
    maxrss_kb: int
    # CPU times of the speed slices run while the child ran (speed.py)
    probes: tuple[float, ...] = ()


def run_child(
    cmd: list[str], env: dict[str, str], span_pipe: bool = False, probe: bool = False
) -> ChildRun:
    """Run cmd to completion and collect its output and resource use.

    With ``span_pipe`` the child gets the write end of an extra pipe in
    PERFBENCH_SPAN_FD and its own spawn time in PERFBENCH_SPAWN_T.  With
    ``probe`` a speed slice runs right after the spawn and then every
    speed.PROBE_INTERVAL_S until the child closes its output.  The
    child is reaped with wait4 so that its CPU time and peak RSS are its
    own, not a running total over earlier children.
    """
    span_r = span_w = None
    pass_fds: tuple[int, ...] = ()
    if span_pipe:
        span_r, span_w = os.pipe()
        pass_fds = (span_w,)
        env = dict(env, PERFBENCH_SPAN_FD=str(span_w))
    t0 = perf_counter()
    if span_pipe:
        env["PERFBENCH_SPAWN_T"] = repr(t0)
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, pass_fds=pass_fds
    )
    out_fd, err_fd = proc.stdout.fileno(), proc.stderr.fileno()
    streams = {out_fd: bytearray(), err_fd: bytearray()}
    probes: list[float] | None = [] if probe else None
    try:
        if span_pipe:
            os.close(span_w)
            streams[span_r] = bytearray()
        _drain(streams, proc, t0 + CHILD_TIMEOUT_S, probes)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        if proc.returncode is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
        proc.stderr.close()
        if span_r is not None:
            os.close(span_r)
    return ChildRun(
        returncode=proc.returncode,
        stdout=bytes(streams[out_fd]),
        stderr=bytes(streams[err_fd]),
        spans=bytes(streams.get(span_r, b"")),
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        maxrss_kb=usage.ru_maxrss,
        probes=tuple(probes or ()),
    )


def _drain(
    streams: dict[int, bytearray],
    proc: subprocess.Popen,
    deadline: float,
    probes: list[float] | None,
) -> None:
    # read every pipe until EOF, so that no child blocks on a full pipe;
    # with probes, run a speed slice whenever the next one is due
    next_probe = perf_counter() if probes is not None else float("inf")
    with selectors.DefaultSelector() as sel:
        for fd in streams:
            sel.register(fd, selectors.EVENT_READ)
        while sel.get_map():
            now = perf_counter()
            if now >= next_probe:
                probes.append(speed.probe())
                next_probe = now + speed.PROBE_INTERVAL_S
                continue
            ready = sel.select(max(0.0, min(deadline, next_probe) - now))
            if not ready and perf_counter() >= deadline:
                proc.kill()
                deadline = float("inf")
            for key, _ in ready:
                chunk = os.read(key.fd, 1 << 16)
                if chunk:
                    streams[key.fd] += chunk
                else:
                    sel.unregister(key.fd)


# ---------------------------------------------------------------------------
# correctness gate


def _flag(argv: tuple[str, ...], name: str, default: str) -> str:
    return argv[argv.index(name) + 1] if name in argv else default


def invariants(job: Job, text: str):
    """The numbers in a job's output that no choice of modulus or b changes.

    moments: the mk_recursive column; weights: every weight count;
    verify: whether every check passed.  Raises ValueError on output
    that does not have the expected shape.
    """
    command, fmt = job.argv[0], _flag(job.argv, "--format", "pretty")
    if command == "moments" and fmt == "csv":
        rows = list(csv.DictReader(text.splitlines()))
        if not rows:
            raise ValueError("no rows")
        return [[int(w["r"]), int(w["code"]), int(w["h"]), int(w["mk_recursive"])] for w in rows]
    if command == "weights" and fmt == "pretty":
        out = []
        for line in text.splitlines():
            if line.startswith("r="):
                head, counts = line.split(": ")
                r, code = (int(part.split("=")[1]) for part in head.split()[:2])
                out.append([r, code, [int(c) for c in counts.split(",")]])
        if not out:
            raise ValueError("no distribution lines")
        return out
    if command == "weights" and fmt == "json":
        doc = json.loads(text)
        return [[d["r"], d["code"], d["counts"]] for d in doc["distributions"]]
    if command == "verify" and fmt == "pretty":
        last = text.rstrip().splitlines()[-1]
        if last not in ("all: pass", "all: FAIL"):
            raise ValueError(f"unexpected last line {last!r}")
        return {"all_passed": last == "all: pass"}
    raise ValueError(f"no invariants defined for {command} --format {fmt}")


def gate(job: Job, seed: int, run: ChildRun, reference: dict) -> str | None:
    """Why this run fails the correctness gate, or None if it passes."""
    if run.returncode != 0:
        lines = run.stderr.decode(errors="replace").strip().splitlines()
        return f"exit code {run.returncode}: {lines[-1] if lines else 'no message'}"
    ref = reference.get(job.key)
    if ref is None:
        return "no reference values recorded for this job"
    try:
        got = invariants(job, run.stdout.decode())
    except (ValueError, KeyError, IndexError, UnicodeDecodeError) as exc:
        return f"unreadable output: {exc}"
    if got != ref["invariants"]:
        return "modulus-invariant numbers differ from the reference"
    if seed == 0 and hashlib.sha256(run.stdout).hexdigest() != ref["sha256"]:
        return "stdout differs from the recorded seed-0 digest"
    return None


def load_reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)["jobs"]
