"""Benchmark of the kmoments CLI: end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload verify --seed 0 --seconds 30 --trace 0

Jobs run one at a time as child processes of this one parent process,
with no threads.  With ``--trace 0`` it prints the end-to-end metrics,
with ``--trace 1`` the per-layer metrics of traced runs (see
tracer.py).  The end-to-end times are normalised to a reference host
speed (see speed.py).  Every job's output goes through the correctness
gate in jobs.py.  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.  Run it from any directory; it
uses the checkout it sits in.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import sys
from statistics import median, median_low
from time import perf_counter

import jobs as jobs_mod
import speed
import tracer as tracer_mod

# fresh children per job when measuring set-up time; the median is kept
SETUP_REPEATS = 5

# a fresh interpreter that imports the CLI and builds the job's field
# context from the same flags the CLI would parse, then exits
SETUP_CODE = """\
import sys
import kmoments.cli
from kmoments import build_field, parse_poly
argv = sys.argv[1:]
def flag(name):
    return parse_poly(argv[argv.index(name) + 1]) if name in argv else None
build_field(int(argv[argv.index("--r") + 1]), modulus=flag("--modulus"), b=flag("--b"))
"""

TRACER_PATH = tracer_mod.__file__


class Bench:
    """Runs one workload's jobs and keeps the gate's tally."""

    def __init__(self, workload: str, seed: int):
        self.seed = seed
        self.jobs = jobs_mod.WORKLOADS[workload]
        self.argvs = [jobs_mod.seeded_argv(job, seed) for job in self.jobs]
        self.reference = jobs_mod.load_reference()
        self.env = jobs_mod.child_env()
        self.attempted = 0
        self.failures: list[str] = []

    def _tally(self, label: str, reason: str | None) -> None:
        self.attempted += 1
        if reason is not None:
            self.failures.append(f"{label}: {reason}")

    def setup_probe(self, index: int) -> jobs_mod.ChildRun:
        run = jobs_mod.run_child([sys.executable, "-c", SETUP_CODE, *self.argvs[index]], self.env, probe=True)
        reason = None if run.returncode == 0 else f"set-up exit code {run.returncode}"
        self._tally(f"setup {self.jobs[index].key}", reason)
        return run

    def run_job(self, index: int, traced: bool = False) -> jobs_mod.ChildRun:
        argv = self.argvs[index]
        if traced:
            cmd = [sys.executable, TRACER_PATH, *argv]
        else:
            cmd = [sys.executable, "-m", "kmoments.cli", *argv]
        run = jobs_mod.run_child(cmd, self.env, span_pipe=traced, probe=True)
        self._tally(" ".join(argv), jobs_mod.gate(self.jobs[index], self.seed, run, self.reference))
        return run


def _samples(bench: Bench, deadline: float, traced_too: bool) -> list[list[tuple]]:
    """Run the jobs in turn until the next one would end past the deadline.

    "Would end" assumes the job takes as long as it did last time.  Every
    job runs at least once.  Returns, per job, its samples as (untraced
    run, traced run or None).
    """
    samples: list[list[tuple]] = [[] for _ in bench.jobs]
    took = [0.0] * len(bench.jobs)
    index = 0
    while True:
        t0 = perf_counter()
        traced = bench.run_job(index, traced=True) if traced_too else None
        samples[index].append((bench.run_job(index), traced))
        took[index] = perf_counter() - t0
        index = (index + 1) % len(bench.jobs)
        if samples[-1] and perf_counter() + took[index] > deadline:
            print("samples per job: " + " ".join(str(len(job_samples)) for job_samples in samples))
            return samples


def _sum_of_job_medians(runs: list[list[jobs_mod.ChildRun]], field: str, normalise: bool = True) -> float:
    """Sum over jobs of the median of field over the job's runs.

    With normalise, each run's figure is first multiplied by its speed
    factor (speed.py).
    """
    return sum(
        median(getattr(run, field) * (speed.factor(run.probes) if normalise else 1.0) for run in job_runs)
        for job_runs in runs
    )


def end_to_end(bench: Bench, seconds: float) -> dict:
    deadline = perf_counter() + seconds
    bench.setup_probe(0)  # warm-up: byte-compile the package, fill the file cache
    rounds = [[bench.setup_probe(i) for i in range(len(bench.jobs))] for _ in range(SETUP_REPEATS)]
    setup = list(zip(*rounds))  # per job, its probes
    runs = [[plain for plain, _ in job_samples] for job_samples in _samples(bench, deadline, False)]
    peak_kb = max(median(run.maxrss_kb for run in job_runs) for job_runs in runs)
    print(
        "before speed normalisation: "
        f"wall_s = {_sum_of_job_medians(runs, 'wall_s', False)} s, "
        f"cpu_s = {_sum_of_job_medians(runs, 'cpu_s', False)} s, "
        f"setup_s = {_sum_of_job_medians(setup, 'wall_s', False)} s; "
        f"median speed factor {median(speed.factor(run.probes) for job_runs in runs for run in job_runs)}"
    )
    return {
        "wall_s": (_sum_of_job_medians(runs, "wall_s"), "s"),
        "cpu_s": (_sum_of_job_medians(runs, "cpu_s"), "s"),
        "setup_s": (_sum_of_job_medians(setup, "wall_s"), "s"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
    }


def per_layer(bench: Bench, seconds: float) -> dict:
    deadline = perf_counter() + seconds
    bench.setup_probe(0)  # warm-up, as in end_to_end
    samples = _samples(bench, deadline, True)
    # layer figures are per pass: the k-th traced run of every job
    passes = [[job_samples[k][1] for job_samples in samples] for k in range(min(map(len, samples)))]
    per_pass = [_layer_metrics(runs) for runs in passes]
    # median_low keeps each figure one that was measured, and counts whole
    metrics = {name: (median_low(m[name][0] for m in per_pass), unit) for name, (_, unit) in per_pass[0].items()}
    plain = _sum_of_job_medians([[p for p, _ in job_samples] for job_samples in samples], "wall_s")
    traced = _sum_of_job_medians([[t for _, t in job_samples] for job_samples in samples], "wall_s")
    metrics["trace.overhead_frac"] = (traced / plain - 1, "ratio")
    return metrics


QUADRATIC = ("kloosterman.split_quadratic_char_sum", "kloosterman.irreducible_quadratic_char_sum")

# per-layer metric -> (the span names it sums, and which figure of them);
# the base of each useful_ratio is the .calls metric beside it
LAYER_METRICS = {
    "gf2r.build_field.calls": (("gf2r.build_field",), "calls"),
    "gf2r.build_field.self_s": (("gf2r.build_field",), "self_s"),
    "kloosterman.kloosterman_table.calls": (("kloosterman.kloosterman_table",), "calls"),
    "kloosterman.kloosterman_table.self_s": (("kloosterman.kloosterman_table",), "self_s"),
    "kloosterman.kloosterman_table.useful_ratio": (("kloosterman.kloosterman_table",), "useful_ratio"),
    "kloosterman.kloosterman_sum.calls": (("kloosterman.kloosterman_sum",), "calls"),
    "kloosterman.moment_bruteforce.self_s": (("kloosterman.moment_bruteforce",), "self_s"),
    "kloosterman.quadratic_char_sum.calls": (QUADRATIC, "calls"),
    "kloosterman.quadratic_char_sum.self_s": (QUADRATIC, "self_s"),
    "codes.weight_distribution.calls": (("codes.weight_distribution",), "calls"),
    "codes.weight_distribution.self_s": (("codes.weight_distribution",), "self_s"),
    "codes.weight_distribution.useful_ratio": (("codes.weight_distribution",), "useful_ratio"),
    "codes.dual_codeword.calls": (("codes.dual_codeword",), "calls"),
    "codes.dual_codeword.self_s": (("codes.dual_codeword",), "self_s"),
    "codes.verify_dual_structure.self_s": (("codes.verify_dual_structure",), "self_s"),
    "codes.dual_weight_closed_form.self_s": (("codes.dual_weight_closed_form",), "self_s"),
    "codes.weight_distribution_exhaustive.self_s": (("codes.weight_distribution_exhaustive",), "self_s"),
    "codes.code_cardinality.self_s": (("codes.code_cardinality",), "self_s"),
    "moments.moment_sequence.self_s": (("moments.moment_sequence",), "self_s"),
    "moments.pless_check.calls": (("moments.pless_check",), "calls"),
    "moments.pless_check.self_s": (("moments.pless_check",), "self_s"),
    "cli.import.self_s": (("cli.import",), "self_s"),
    "cli.main.self_s": (("cli.main",), "self_s"),
}
UNITS = {"calls": "count", "self_s": "s", "useful_ratio": "ratio"}


def _layer_metrics(runs: list[jobs_mod.ChildRun]) -> dict:
    # a child that died before writing its spans contributes none
    documents = [json.loads(run.spans) if run.spans else {"spans": [], "counts": {}} for run in runs]
    totals = tracer_mod.layer_totals(documents)
    empty = {"calls": 0, "self_s": 0.0, "keys": ()}

    def figure(name, field):
        agg = totals.get(name, empty)
        if field == "useful_ratio":
            return len(agg["keys"]) / agg["calls"] if agg["calls"] else 0.0
        return agg[field]

    metrics = {
        metric: (sum(figure(name, field) for name in names), UNITS[field])
        for metric, (names, field) in LAYER_METRICS.items()
    }
    metrics["cli.output_bytes"] = (sum(len(run.stdout) for run in runs), "bytes")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(jobs_mod.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind so that run_child kills and reaps the running child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (jobs_mod.SRC / "kmoments" / "cli.py").is_file():
        print(f"error: no kmoments sources under {jobs_mod.SRC}", file=sys.stderr)
        return 2

    cpu = speed.pin_to_one_cpu()
    bench = Bench(args.workload, args.seed)
    print(
        f"workload={args.workload} seed={args.seed} trace={args.trace} "
        f"nproc={os.cpu_count()} cpu={cpu} python={platform.python_version()}"
    )
    for argv_ in bench.argvs:
        print("job: kmoments " + " ".join(argv_))
    measure = per_layer if args.trace else end_to_end
    metrics = measure(bench, args.seconds)
    for failure in bench.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    print(f"fail_frac = {len(bench.failures)} failed / {bench.attempted} attempted")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value} {unit}")
    result = {
        "correct": not bench.failures,
        "attempted": bench.attempted,
        "failed": len(bench.failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
