"""Layer timings of kmoments: one source tree, or two side by side.

    python3 bench/layers.py --src SRC [--src SRC2] --out BENCH.json

Each ``--src`` is a ``src`` directory that holds the ``kmoments``
package; with two, the first is the base and the second the change.
Every round runs each tree once, in alternating order, so a drift of
the host's speed falls on both sides alike.  A round holds, per tree:

- one child interpreter that times, in process, ``build_field`` and
  its passes at each ``--field-r``: ``exp_log`` and ``trace_table``
  (the context's two table builders) and ``rest``, what the build
  spends outside them (the modulus, the inverses and the x^2 + x
  guard).  Each figure is the median of a few calls.  The same child
  times ``verify_rows``: one ``list(verify._verify_rows(ctx, (1, 2, 3,
  4), 10))`` at each r, every verify row of all four codes on a context
  built outside the timed call; the median of a few calls, or one call
  per round from r = 14, where a pass takes from 0.2 s to seconds.  It
  also times, at each r, the builders that pass's stage record calls
  (``stages``), each on stage values built outside the timed call, as
  the record hands them on: the trace map phi, the generator rows G of
  each code from phi and its block, each code's dual weights (the
  Gray-code walk over its G; codes 2 and 4 walk their block alone), each
  code's dual-weight histogram (``transform``: the Walsh-Hadamard
  transform of its block, which the histogram is read from) and the
  Pless sums of the four codes at h = 0..10 from their distributions;
  each the median of a few calls, and the walk one call per round from
  r = 14.  The calls, ``gf2r._trace_map(ctx)``,
  ``codes_checks._generator_rows(ctx, i, phi, block)``,
  ``codes_checks.dual_weights(ctx, i, codes_checks._block_walk(G, m,
  q))``, ``codes._dual_weight_histogram(ctx, i,
  codes._block_transform(ctx, i, block))`` and ``moments._pless_sums(10,
  N, counts)``, pass every stage value by position, which the optional
  stage parameters of earlier trees take too, so either tree of an A/B
  run takes them back to the one where ``_dual_weight_histogram`` first
  took its ``transform`` (3bdaec2);
- for each ``--verify-r`` k, two whole-process runs of ``verify --r k
  --hmax 10``, perfbench's ``verify`` job at that r.  The first is
  ``python -m kmoments.cli`` as is, timed from start to exit
  (``wall``).  The second runs the module as ``-m`` does, through
  ``runpy.run_module``, with ``sys.exit`` wrapped to note the monotonic clock;
  ``shutdown`` is the time from the ``sys.exit`` that follows ``main``
  to the end of the process;
- three rows that compile the package from source, as every perfbench
  child does where ``PYTHONDONTWRITEBYTECODE`` is set: ``import_source``,
  the seconds ``import kmoments.cli`` takes inside a fresh child, and for
  each of perfbench's two ``ktable`` jobs, ``moments --r k --code 4
  --hmax 1 --format csv`` at k = 11 and 12, its whole-process
  ``source_wall``.  These children run with ``PYTHONDONTWRITEBYTECODE=1``
  on a fresh copy of the tree's package without ``__pycache__``, so they
  read no bytecode of kmoments and write none, while the standard library
  still loads from its own cache.  (``PYTHONPYCACHEPREFIX`` would move
  the standard library's cache lookups too, and every child would
  compile ``site`` and what it imports from source as well.)

Every row runs on a temporary copy of each tree's package, made
without ``__pycache__`` before the first round, so the bench writes no
bytecode into a checkout it measures.  One warm-up run per copy first
writes the copy's bytecode cache, which every other row but the three
above reads.

The host's speed drifts between rounds, so every row is also given
normalised, as perfbench does: after each timed call (in the child) or
each whole-process child (in this process) the timing process runs one
slice of ``perfbench/speed.py``'s fixed kernel, ``speed.probe()``, and a
round's rows are multiplied by ``speed.REFERENCE_S`` over the mean slice
of the process that timed them.  Each round's mean slices are rows of
their own, ``slice.field_child`` and ``slice.processes``.  perfbench
found slices between children less steadying than slices during them
on a 6 s job; here each timed call or child lasts about a second at most.

The JSON holds each tree's git SHA (with a ``dirty`` flag), the Python
version and ``reference_s``, then per metric each side's median,
quartiles, extremes and count over the rounds, raw (``sides``) and
normalised (``normalised``), and with two trees the ratio of the
medians of each (``ratio``, ``normalised_ratio``).  Nothing is gated;
the figures are for a reader to compare.
"""

import argparse
import contextlib
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from statistics import fmean, median, quantiles

# perfbench's host-speed slice, imported as perfbench/run.py imports it
sys.path.append(str(Path(__file__).resolve().parent.parent / "perfbench"))
import speed  # noqa: E402

FIELD_R = (8, 12, 14, 16)
VERIFY_R = tuple(range(3, 10))
HMAX = 10
# perfbench's ktable jobs, one per r
KTABLE_R = (11, 12)

# calls per child of build_field and of each table builder; fewer where one call is long
CALLS_SMALL_R, CALLS_LARGE_R, LARGE_R = 9, 5, 14

# run as `python -c`: what `python -m kmoments.cli ARGV` does, with sys.exit noting the clock
SHUTDOWN_CHILD = """\
import os, runpy, sys, time
fd = int(sys.argv[1])
del sys.argv[1]
real_exit = sys.exit
def noted_exit(status=None):
    os.write(fd, repr(time.monotonic()).encode())
    real_exit(status)
sys.exit = noted_exit
runpy.run_module("kmoments.cli", run_name="__main__", alter_sys=True)
"""


# run as `python -c`: the seconds `import kmoments.cli` takes, the interpreter's start-up left out
IMPORT_CHILD = """\
import time
t0 = time.perf_counter()
import kmoments.cli
print(time.perf_counter() - t0)
"""


# the CPU seconds of each slice this process has run between its timed calls
SLICES: list[float] = []


def _median_s(call, calls: int) -> float:
    samples = []
    for _ in range(calls):
        t0 = time.perf_counter()
        call()
        samples.append(time.perf_counter() - t0)
        SLICES.append(speed.probe())
    return median(samples)


def _stages(r: int) -> dict[str, float]:
    """In this process: the median seconds of each stage a verify pass builds at r."""
    from kmoments import codes, codes_checks, gf2r, moments

    ctx = gf2r.build_field(r)
    calls = CALLS_LARGE_R if r >= LARGE_R else CALLS_SMALL_R
    lengths = {i: n for i in codes.CODE_INDICES if (n := codes.code_length(ctx, i))}
    out = {f"stages.r{r}.trace_map": _median_s(lambda: gf2r._trace_map(ctx), calls)}
    phi = gf2r._trace_map(ctx)
    blocks = {i: codes._base_entries(ctx, i) for i in lengths}
    gens = {i: codes_checks._generator_rows(ctx, i, phi, blocks[i]) for i in lengths}
    for i in lengths:
        rows = _median_s(lambda: codes_checks._generator_rows(ctx, i, phi, blocks[i]), calls)
        out[f"stages.r{r}.generator_rows.code{i}"] = rows
    for i, n in lengths.items():
        m = n // codes.code_shape(i)[1]

        def walk():
            return codes_checks.dual_weights(ctx, i, codes_checks._block_walk(gens[i], m, ctx.q))

        out[f"stages.r{r}.dual_weights.code{i}"] = _median_s(walk, 1 if r >= LARGE_R else calls)
    for i in lengths:

        def transform():
            return codes._dual_weight_histogram(ctx, i, codes._block_transform(ctx, i, blocks[i]))

        out[f"stages.r{r}.transform.code{i}"] = _median_s(transform, calls)
    dists = {i: codes.weight_distribution(ctx, i, j_max=min(n, HMAX)) for i, n in lengths.items()}

    def pless_sums():
        return [moments._pless_sums(HMAX, n, dists[i]) for i, n in lengths.items()]

    out[f"stages.r{r}.pless_sums"] = _median_s(pless_sums, calls)
    return out


def _field_child(src: str, rs: list[int]) -> dict:
    """In this process: the median seconds of build_field and of each pass at each r,
    of one verify rows pass and of each stage it builds (``figures``), and the mean
    seconds of the slices run between the timed calls (``slice``)."""
    sys.path.insert(0, src)
    from kmoments import verify
    from kmoments.gf2r import build_field

    out = {}
    for r in rs:
        calls = CALLS_LARGE_R if r >= LARGE_R else CALLS_SMALL_R
        samples: dict[str, list[float]] = {"build_field": [], "exp_log": [], "trace_table": []}
        for _ in range(calls):
            t0 = time.perf_counter()
            ctx = build_field(r)
            t1 = time.perf_counter()
            ctx._build_exp_log()
            t2 = time.perf_counter()
            ctx._build_trace_table()
            t3 = time.perf_counter()
            samples["build_field"].append(t1 - t0)
            samples["exp_log"].append(t2 - t1)
            samples["trace_table"].append(t3 - t2)
            SLICES.append(speed.probe())
        medians = {name: median(values) for name, values in samples.items()}
        medians["rest"] = medians["build_field"] - medians["exp_log"] - medians["trace_table"]
        out.update((f"field.r{r}.{name}", value) for name, value in medians.items())
        passes = []
        for _ in range(1 if r >= LARGE_R else CALLS_SMALL_R):
            ctx = build_field(r)
            t0 = time.perf_counter()
            list(verify._verify_rows(ctx, (1, 2, 3, 4), HMAX))
            passes.append(time.perf_counter() - t0)
            SLICES.append(speed.probe())
        out[f"verify_rows.r{r}"] = median(passes)
        out.update(_stages(r))
    return {"figures": out, "slice": fmean(SLICES)}


def _env(src: str) -> dict[str, str]:
    env = {**os.environ, "PYTHONPATH": src}
    # each copy reads its own bytecode cache, written by its warm-up run
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def _verify_argv(k: int) -> list[str]:
    return ["verify", "--r", str(k), "--hmax", str(HMAX)]


def _run(cmd: list[str], env: dict[str, str], **kwargs) -> None:
    done = subprocess.run(cmd, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, **kwargs)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {done.returncode}: {done.stderr.decode().strip()}")


def _timed_cli(argv: list[str], env: dict[str, str]) -> float:
    t0 = time.perf_counter()
    _run([sys.executable, "-m", "kmoments.cli", *argv], env)
    elapsed = time.perf_counter() - t0
    SLICES.append(speed.probe())
    return elapsed


def _wall(src: str, k: int) -> float:
    return _timed_cli(_verify_argv(k), _env(src))


def _copy(src: str, stack: contextlib.ExitStack) -> str:
    """A temporary src directory holding a copy of the ``kmoments`` package of ``src``, without its bytecode."""
    copy = stack.enter_context(tempfile.TemporaryDirectory())
    shutil.copytree(Path(src, "kmoments"), Path(copy, "kmoments"), ignore=shutil.ignore_patterns("__pycache__"))
    return copy


def _from_source(src: str) -> dict[str, float]:
    """``import kmoments.cli`` in a child, and each ktable job whole-process, compiled from source."""
    with contextlib.ExitStack() as stack:
        env = {**os.environ, "PYTHONPATH": _copy(src, stack), "PYTHONDONTWRITEBYTECODE": "1"}
        done = subprocess.run([sys.executable, "-c", IMPORT_CHILD], env=env, capture_output=True, check=True)
        SLICES.append(speed.probe())
        figures = {"cli.import_source": float(done.stdout)}
        for k in KTABLE_R:
            argv = ["moments", "--r", str(k), "--code", "4", "--hmax", "1", "--format", "csv"]
            figures[f"cli.ktable_r{k}.source_wall"] = _timed_cli(argv, env)
    figures["cli.ktable.source_wall"] = sum(figures[f"cli.ktable_r{k}.source_wall"] for k in KTABLE_R)
    return figures


def _shutdown(src: str, k: int) -> float:
    read_end, write_end = os.pipe()
    with os.fdopen(read_end, "rb") as reader:
        try:
            cmd = [sys.executable, "-c", SHUTDOWN_CHILD, str(write_end), *_verify_argv(k)]
            _run(cmd, _env(src), pass_fds=(write_end,))
            ended = time.monotonic()
        finally:
            os.close(write_end)
        SLICES.append(speed.probe())
        return ended - float(reader.read())


def _normalised(figures: dict[str, float], mean_slice: float) -> dict[str, float]:
    return {name: value * speed.REFERENCE_S / mean_slice for name, value in figures.items()}


def _one_round(src: str, args) -> tuple[dict[str, float], dict[str, float]]:
    """Every row of one round of ``src``: its raw seconds (with each mean slice as a
    ``slice.*`` row), and the rows normalised by the slices of the process that timed them."""
    figures, normalised = {}, {}
    if args.field_r:
        cmd = [sys.executable, __file__, "--field-child", src, *map(str, args.field_r)]
        done = subprocess.run(cmd, capture_output=True, text=True, check=True)
        child = json.loads(done.stdout)
        figures.update(child["figures"])
        figures["slice.field_child"] = child["slice"]
        normalised.update(_normalised(child["figures"], child["slice"]))
    SLICES.clear()
    processes = {}
    for part, timer in (("wall", _wall), ("shutdown", _shutdown)):
        per_k = {f"cli.verify_r{k}.{part}": timer(src, k) for k in args.verify_r}
        processes.update(per_k)
        if per_k:
            processes[f"cli.verify.{part}"] = sum(per_k.values())
    processes.update(_from_source(src))
    figures.update(processes)
    figures["slice.processes"] = fmean(SLICES)
    normalised.update(_normalised(processes, figures["slice.processes"]))
    return figures, normalised


def _spread(values: list[float]) -> dict:
    q1, _, q3 = quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {
        "median": median(values),
        "q1": q1,
        "q3": q3,
        "min": min(values),
        "max": max(values),
        "n": len(values),
    }


def _revision(src: str) -> dict:
    def git(*argv: str) -> str | None:
        try:
            done = subprocess.run(["git", "-C", src, *argv], capture_output=True, text=True, timeout=30)
        except OSError:
            return None
        return done.stdout.strip() if done.returncode == 0 else None

    return {"sha": git("rev-parse", "HEAD"), "dirty": bool(git("status", "--porcelain", "--", "."))}


def measure(args) -> dict:
    sides = [str(Path(src).resolve()) for src in args.src]
    rounds: list[list[tuple[dict[str, float], dict[str, float]]]] = [[] for _ in sides]
    with contextlib.ExitStack() as stack:
        copies = [_copy(src, stack) for src in sides]
        for copy in copies:
            _wall(copy, 3)  # warm-up: write the copy's bytecode cache
        for i in range(args.rounds):
            order = range(len(sides)) if i % 2 == 0 else reversed(range(len(sides)))
            for side in order:
                rounds[side].append(_one_round(copies[side], args))
    metrics = {}
    for name in rounds[0][0][0]:
        metric = metrics[name] = {"unit": "s"}
        for key, part in (("sides", 0), ("normalised", 1)):
            if name in rounds[0][0][part]:
                metric[key] = [_spread([rnd[part][name] for rnd in side_rounds]) for side_rounds in rounds]
        if len(sides) == 2:
            for key, ratio in (("sides", "ratio"), ("normalised", "normalised_ratio")):
                if key in metric:
                    metric[ratio] = metric[key][1]["median"] / metric[key][0]["median"]
    return {
        "sides": [_revision(src) for src in sides],
        "python": platform.python_version(),
        "rounds": args.rounds,
        "field_r": list(args.field_r),
        "verify_r": list(args.verify_r),
        "reference_s": speed.REFERENCE_S,
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--field-child"]:
        print(json.dumps(_field_child(argv[1], [int(r) for r in argv[2:]])))
        return 0
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", action="append", required=True, help="a src directory (at most two)")
    parser.add_argument("--out", required=True, help="path of the JSON to write")
    parser.add_argument("--rounds", type=int, default=10)
    parser.add_argument("--field-r", type=int, nargs="*", default=list(FIELD_R))
    parser.add_argument("--verify-r", type=int, nargs="*", default=list(VERIFY_R))
    args = parser.parse_args(argv)
    if len(args.src) > 2 or args.rounds < 1:
        parser.error("give one or two --src and at least one round")
    doc = measure(args)
    Path(args.out).write_text(json.dumps(doc, indent=2) + "\n")
    for name, metric in doc["metrics"].items():
        line = f"{name:<36}"
        for key, ratio in (("sides", "ratio"), ("normalised", "normalised_ratio")):
            if key in metric:
                line += " / ".join(f"{side['median'] * 1e3:10.2f}" for side in metric[key]) + " ms"
                line += f"  x{metric[ratio]:.3f}    " if ratio in metric else "    "
        print(line.rstrip())
    return 0


if __name__ == "__main__":
    sys.exit(main())
