"""Traced kmoments child, and the span arithmetic its parent applies.

Run as a script by run.py, this wraps the public entry points of every
layer, then calls ``kmoments.cli.main`` with the given arguments:

    python3 perfbench/tracer.py moments --r 5 --code 4 --hmax 1

The program itself is not changed.  Each wrapped call records a span
(name, start, end, parent, key) in memory, or, for functions called
thousands of times inside another traced call, only a count.  When
the CLI returns, the spans go out as one JSON document on the file
descriptor named in PERFBENCH_SPAN_FD.  PERFBENCH_SPAWN_T holds the
parent's perf_counter() just before it started this process
(CLOCK_MONOTONIC, shared by both processes), so interpreter start-up
is a span as well.
"""

from __future__ import annotations

import functools
import json
import os
import sys
from time import perf_counter

# (module, function, kind): "span" records one span per call, "count"
# only counts calls, so that the time stays with the calling span
TRACED = (
    ("kmoments.gf2r", "build_field", "span"),
    ("kmoments.kloosterman", "kloosterman_table", "span"),
    ("kmoments.kloosterman", "kloosterman_sum", "count"),
    ("kmoments.kloosterman", "moment_bruteforce", "span"),
    ("kmoments.kloosterman", "split_quadratic_char_sum", "span"),
    ("kmoments.kloosterman", "irreducible_quadratic_char_sum", "span"),
    ("kmoments.codes", "weight_distribution", "span"),
    ("kmoments.codes", "weight_distribution_exhaustive", "span"),
    ("kmoments.codes", "code_cardinality", "span"),
    ("kmoments.codes", "dual_codeword", "span"),
    ("kmoments.codes", "dual_weight_closed_form", "span"),
    ("kmoments.codes", "verify_dual_structure", "span"),
    ("kmoments.moments", "moment_sequence", "span"),
    ("kmoments.moments", "pless_check", "span"),
    ("kmoments.cli", "main", "span"),
)


def _context_key(ctx, *args, **kwargs):
    return [ctx.r, ctx.modulus, ctx.b]


def _context_code_key(ctx, i, *args, **kwargs):
    return [ctx.r, ctx.modulus, ctx.b, i]


# what makes two calls the same work, for the useful-work ratios
KEYS = {
    "kloosterman.kloosterman_table": _context_key,
    "codes.weight_distribution": _context_code_key,
}


def tolerance_s(document: dict) -> float:
    """Time in a traced child that no span covers, at most.

    That is installing the wrappers, writing the spans out and
    interpreter exit; the last two grow with the number of spans.
    """
    return 0.05 + 20e-6 * len(document["spans"])


class Tracer:
    """Spans and counts of one process, kept in memory until written out."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []

    def add_root(self, name: str, start: float, end: float) -> None:
        self.spans.append([name, start, end, None, None])

    def spanned(self, name: str, fn):
        key_of = KEYS.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            key = key_of(*args, **kwargs) if key_of else None
            span = [name, 0.0, 0.0, stack[-1] if stack else None, key]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()

        return wrapper

    def counted(self, name: str, fn):
        counts = self.counts
        counts[name] = 0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Wrap each traced function at every name bound to it.

        Modules import some functions by name (``moments`` binds
        ``weight_distribution``, ``codes`` binds ``kloosterman_sum``), so
        patching only the defining module would miss those callers.
        """
        modules = [m for n, m in list(sys.modules.items()) if n == "kmoments" or n.startswith("kmoments.")]
        for module_name, function, kind in TRACED:
            original = getattr(sys.modules[module_name], function)
            name = f"{module_name.rsplit('.', 1)[-1]}.{function}"
            wrapper = self.spanned(name, original) if kind == "span" else self.counted(name, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)

    def document(self) -> dict:
        return {"spans": self.spans, "counts": self.counts}


def layer_totals(documents: list[dict]) -> dict[str, dict]:
    """Calls, self time and distinct keys per span name, over many jobs.

    Self time is a span's duration minus the durations of its direct
    children; spans of one process nest, so the children never overlap.
    Keys are told apart per job, since each job is its own process.
    """
    totals: dict[str, dict] = {}

    def entry(name):
        return totals.setdefault(name, {"calls": 0, "self_s": 0.0, "keys": set()})

    for job, doc in enumerate(documents):
        spans = doc["spans"]
        covered = [0.0] * len(spans)
        for _, start, end, parent, _ in spans:
            if parent is not None:
                covered[parent] += end - start
        for (name, start, end, _, key), child_s in zip(spans, covered):
            agg = entry(name)
            agg["calls"] += 1
            agg["self_s"] += end - start - child_s
            if key is not None:
                agg["keys"].add((job, *key))
        for name, calls in doc["counts"].items():
            entry(name)["calls"] += calls
    return totals


def main(argv: list[str]) -> int:
    started = perf_counter()
    tracer = Tracer()
    tracer.add_root("python.startup", float(os.environ["PERFBENCH_SPAWN_T"]), started)
    import kmoments.cli

    tracer.add_root("cli.import", started, perf_counter())
    tracer.install()
    try:
        return kmoments.cli.main(argv)
    finally:
        sys.stdout.flush()
        with os.fdopen(int(os.environ["PERFBENCH_SPAN_FD"]), "w") as fh:
            json.dump(tracer.document(), fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
