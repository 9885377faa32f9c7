"""Layer timings of kmoments: one source tree, or two side by side.

    python3 bench/layers.py --src SRC [--src SRC2] --out BENCH.json

Each ``--src`` is a ``src`` directory that holds the ``kmoments``
package; with two, the first is the base and the second the change.
Every round runs each tree once, in alternating order, so a drift of
the host's speed falls on both sides alike.  A round holds, per tree:

- one child interpreter that times, in process, at each ``--field-r``:
  ``build_field`` and its two table passes, ``exp_log`` and
  ``trace_table`` (``FieldContext._build_exp_log`` and
  ``_build_trace_table``, wrapped on the class), with ``rest`` the
  build's own time outside them (the modulus, the inverses and the
  x^2 + x guard); ``verify_rows``, one ``list(verify._verify_rows(ctx,
  (1, 2, 3, 4), 10))``, every verify row of all four codes on a context
  built outside the timed call; and ``stages``, the same pass again
  with each function in ``STAGES`` wrapped at every binding in the
  loaded kmoments modules, as perfbench's tracer wraps its functions:
  each one's self time (``.self_s``: its calls less the wrapped calls
  inside them) and number of calls (``.calls``).  The spans and their
  arithmetic are perfbench's ``Tracer.spanned`` and ``layer_totals``;
  a function, or a module, that a tree lacks gets no row on that side.  Each figure
  is the median of a few calls; from r = 14, where a verify rows pass
  takes from 0.2 s to seconds, each pass runs once per round;
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

The host's speed drifts between rounds, so every row in seconds is
also given normalised, as perfbench does: after each timed call (in
the child) or each whole-process child (in this process) the timing
process runs one slice of ``perfbench/speed.py``'s fixed kernel,
``speed.probe()``, and a round's rows are multiplied by
``speed.REFERENCE_S`` over the mean slice of the process that timed
them.  Each round's mean slices are rows of
their own, ``slice.field_child`` and ``slice.processes``.  perfbench
found slices between children less steadying than slices during them
on a 6 s job; here each timed call or child lasts about a second at most.

The JSON holds each tree's git SHA (with a ``dirty`` flag), the Python
version and ``reference_s``, then per metric its ``unit`` (``s``, or
``count`` for the calls rows) and each side's median, quartiles,
extremes and count over the rounds, raw (``sides``) and normalised
(``normalised``), or null on a side without the row, and where both of
two trees have it the ratio of the medians of each (``ratio``,
``normalised_ratio``).  Nothing is gated; the figures are for a reader
to compare.
"""

import argparse
import contextlib
import importlib
import importlib.util
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path
from statistics import fmean, median, quantiles

# perfbench's host-speed slice and its tracer's spans, imported as perfbench/run.py imports them
sys.path.append(str(Path(__file__).resolve().parent.parent / "perfbench"))
import speed  # noqa: E402
from tracer import Tracer, layer_totals  # noqa: E402

FIELD_R = (8, 12, 14, 16)
VERIFY_R = tuple(range(3, 10))
HMAX = 10
# perfbench's ktable jobs, one per r
KTABLE_R = (11, 12)

# calls per child of build_field and of each table builder; fewer where one call is long
CALLS_SMALL_R, CALLS_LARGE_R, LARGE_R = 9, 5, 14

# the functions of kmoments, as module.function, that a verify rows pass is timed through
STAGES = (
    "gf2r._trace_map", "gf2r._walsh_hadamard",
    "kloosterman.kloosterman_table", "kloosterman.moment_bruteforce", "checks.quadratic_char_sums",
    "codes._bit_rows", "codes._block_transform", "codes._dual_weight_histogram", "codes._macwilliams",
    "checks._generator_rows", "checks._block_walk", "checks.dual_weights",
    "checks.verify_dual_structure", "checks.code_cardinality", "checks.weight_distribution_exhaustive",
    "moments._pless_sums", "moments._recursion", "checks.pless_check", "verify._char_sums_hold",
)
# build_field's two table passes, methods of gf2r.FieldContext: the row name of each
FIELD_PASSES = {"_build_exp_log": "exp_log", "_build_trace_table": "trace_table"}

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


@contextlib.contextmanager
def _wrapped(tracer: Tracer, targets, spaces):
    """Each function ``home.attr`` of ``targets`` (label, home, attr) that the tree has,
    wrapped in a span named by its label at every binding in ``spaces``; put back on exit."""
    swaps = [(fn, tracer.spanned(label, fn)) for label, home, attr in targets if (fn := vars(home).get(attr))]
    _rebind(spaces, swaps)
    try:
        yield
    finally:
        _rebind(spaces, [(wrapper, fn) for fn, wrapper in swaps])


def _rebind(spaces, swaps) -> None:
    for space in spaces:
        for attr, value in list(vars(space).items()):
            for old, new in swaps:
                if value is old:
                    setattr(space, attr, new)


def _stage_targets() -> list[tuple]:
    """(name, module, attribute) of each ``STAGES`` function whose module the loaded tree has."""
    return [
        (name, importlib.import_module(f"kmoments.{module}"), attr)
        for name in STAGES
        for module, attr in [name.split(".")]
        if importlib.util.find_spec(f"kmoments.{module}")
    ]


def _field_child(src: str, rs: list[int]) -> dict:
    """In this process: at each r, the median seconds of build_field and its passes, of
    one verify rows pass, and of each STAGES function's self time within such a pass, and
    its median calls (``figures``), and the mean seconds of the slices run between the
    timed calls (``slice``)."""
    sys.path.insert(0, src)
    from kmoments import verify
    from kmoments.gf2r import FieldContext, build_field

    tracer = Tracer()
    # build_field's own time, outside the two passes wrapped in it, is the row rest
    build = tracer.spanned("rest", build_field)
    field_targets = [(row, FieldContext, attr) for attr, row in FIELD_PASSES.items()]
    stage_targets = _stage_targets()
    # every kmoments module, checks among them, is loaded by now
    modules = [m for n, m in list(sys.modules.items()) if n == "kmoments" or n.startswith("kmoments.")]
    samples = defaultdict(list)
    for r in rs:
        with _wrapped(tracer, field_targets, [FieldContext]):
            for _ in range(CALLS_LARGE_R if r >= LARGE_R else CALLS_SMALL_R):
                tracer.spans.clear()
                build(r)
                SLICES.append(speed.probe())
                self_s = {row: entry["self_s"] for row, entry in layer_totals([tracer.document()]).items()}
                for row, seconds in {"build_field": sum(self_s.values()), **self_s}.items():
                    samples[f"field.r{r}.{row}"].append(seconds)
        for _ in range(1 if r >= LARGE_R else CALLS_SMALL_R):
            ctx = build_field(r)
            t0 = time.perf_counter()
            list(verify._verify_rows(ctx, (1, 2, 3, 4), HMAX))
            samples[f"verify_rows.r{r}"].append(time.perf_counter() - t0)
            SLICES.append(speed.probe())
            tracer.spans.clear()
            with _wrapped(tracer, stage_targets, modules):
                list(verify._verify_rows(ctx, (1, 2, 3, 4), HMAX))
            SLICES.append(speed.probe())
            for name, entry in layer_totals([tracer.document()]).items():
                samples[f"stages.r{r}.{name}.self_s"].append(entry["self_s"])
                samples[f"stages.r{r}.{name}.calls"].append(entry["calls"])
    return {"figures": {row: median(values) for row, values in samples.items()}, "slice": fmean(SLICES)}


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
    # every row but the counts of calls
    scale = speed.REFERENCE_S / mean_slice
    return {name: value * scale for name, value in figures.items() if not name.endswith(".calls")}


def _one_round(src: str, args) -> tuple[dict[str, float], dict[str, float]]:
    """Every row of one round of ``src``: its raw seconds and counts (with each mean slice
    as a ``slice.*`` row), and the seconds normalised by the slices of the process that
    timed them."""
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
    # every row of either side, in the order each side first gives it
    for name in dict.fromkeys(name for side_rounds in rounds for name in side_rounds[0][0]):
        metric = metrics[name] = {"unit": "count" if name.endswith(".calls") else "s"}
        for key, part in (("sides", 0), ("normalised", 1)):
            spreads = [
                _spread([rnd[part][name] for rnd in side_rounds]) if name in side_rounds[0][part] else None
                for side_rounds in rounds
            ]
            if any(spreads):
                metric[key] = spreads
        for key, ratio in (("sides", "ratio"), ("normalised", "normalised_ratio")):
            if len(sides) == 2 and all(metric.get(key, [None])):
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
        scale, digits, unit = (1, 0, "") if metric["unit"] == "count" else (1e3, 2, " ms")
        line = f"{name:<60}"
        for key, ratio in (("sides", "ratio"), ("normalised", "normalised_ratio")):
            if key in metric:
                values = [f"{side['median'] * scale:10.{digits}f}" if side else f"{'-':>10}" for side in metric[key]]
                line += " / ".join(values) + unit
                line += f"  x{metric[ratio]:.3f}    " if ratio in metric else "    "
        print(line.rstrip())
    return 0


if __name__ == "__main__":
    sys.exit(main())
