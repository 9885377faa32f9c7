"""The ``verify`` command: the whole identity suite per (r, code), with pass/fail rows.

``cli.main`` compiles this module, and through it :mod:`kmoments.checks`,
what it runs of every layer, on the first ``verify`` run only, and runs
``run``: a ``moments`` or ``weights`` run compiles neither, and no run
compiles the tests' :mod:`kmoments.oracles`.  ``run`` returns the rows and
writes nothing; ``cli.main`` renders them.  This module imports no
part of the CLI.

Each row is one entry of the table ``ROWS`` (see ``_Row``), which the
tests and the README's cost table read.  The stage record ``_stages``
and the checks read every function through a module at call time, so
that a patched function reaches the suite.  The K table and the checks
that perfbench's tracer wraps (``codes.verify_dual_structure``,
``codes.weight_distribution_exhaustive``, ``codes.code_cardinality``,
``moments.pless_check``) are read through
their layer modules, where the tracer binds its wrapper; every other
function, the private stage builders and the two cores
``codes._macwilliams`` and ``moments._recursion`` among them, through
the module that defines it.  verify calls neither
``codes.weight_distribution`` nor ``moments.moment_sequence``: the
record calls the cores that those two wrap.  The two row scopes below
are verify's; the CLI's run limits are in :mod:`kmoments.cli`.
"""

from collections import namedtuple
from functools import cached_property
from types import SimpleNamespace

from . import checks, gf2r
from . import codes as codes_mod
from . import kloosterman as kl
from . import moments as mo
from .gf2r import FieldContext

__all__ = ["run"]

# Row scopes: not costs (at r = 8 a char-sum row takes 0.14 ms, a full distribution a few ms
# per code); verify's rows stop here only to keep its output, and perfbench/reference.json's
# digests, as recorded
DIGEST_ROWS_MAX_R = 8  # the rows of ROWS that name it
DIGEST_FULL_ROWS_MAX_R = 6  # the rows of ROWS that name it, every trace-one b and the whole distribution


def _char_sums_hold(rec, bs) -> bool:
    """Whether lambda(a/(alpha^2 + alpha + b)) summed over alpha is (-1)^tr(b) K(a) - 1 at each a, b in bs."""
    ctx = rec.ctx
    rows = ((checks.quadratic_char_sums(ctx, b, rec.phi), 1 - 2 * ctx.trace_table[b]) for b in bs)
    return all(row[a] == sign * rec.table[a] - 1 for row, sign in rows for a in ctx.nonzero())


class _Record(SimpleNamespace):
    """The record of ``_stages``; what only the rows under a limit read is built on first read."""

    @cached_property
    def char_sums(self) -> tuple:
        # (passed, note) of the split row, b = 0, and of the irreducible row, b of trace one
        trace_one = [b for b in self.ctx.elements() if self.ctx.trace_table[b] == 1]
        bs = trace_one if self.full else [trace_one[0], trace_one[-1]]
        note = None if bs == trace_one else f"sampled {len(bs)} of {len(trace_one)} b values"
        return (_char_sums_hold(self, [0]), None), (_char_sums_hold(self, bs), note)

    @cached_property
    def fractions(self) -> dict:
        q, values = self.ctx.q, set(self.table[1:])
        return {i: {k: checks.dual_weight_fraction(q, i, k) for k in values} for i in self.codes}


def _stages(ctx: FieldContext, codes: tuple[int, ...], h_max: int) -> _Record:
    """The stage values of one r that verify's rows read, each built once, in dependency order.

    Per r: the trace map ``phi`` (for every G and character-sum row), the K
    ``table`` and ``brute``, MK^0..MK^max(h_max, 1) from it, and on first
    read the two ``char_sums`` results and the ``fractions``, per code the
    K value -> ``dual_weight_fraction`` map.  Per block, from the first code
    on it: the Gray-code walk and the counted Walsh-Hadamard transform,
    which the two codes on it share (a word of a two-copy code is its
    block's word twice, so its weights and transform values are twice the
    block's).  In ``codes``, per code that exists at r: its length ``n``, H
    and G (``h_rows``, ``g_rows``), the dual ``weights``, the
    ``histogram``, the distribution ``dist`` (to min(N, h_max) unless
    ``full``, r <= DIGEST_FULL_ROWS_MAX_R), the Pless ``sums`` and the
    ``moments`` of the recursion to h_max, and the dual-structure ``report``.
    """
    r, q = ctx.r, ctx.q
    stages = _Record(ctx=ctx, h_max=h_max, full=r <= DIGEST_FULL_ROWS_MAX_R, table=kl.kloosterman_table(ctx))
    stages.brute = kl.moment_bruteforce(ctx, max(h_max, 1), stages.table)
    stages.phi, stages.codes = gf2r._trace_map(ctx), {}
    blocks = {}  # trace -> the block's walk and counted transform
    for i in codes:
        if not (n := codes_mod.code_length(ctx, i)):
            continue
        trace, copies = codes_mod.code_shape(i)
        block = codes_mod._base_entries(ctx, i)
        stage = stages.codes[i] = SimpleNamespace(n=n)
        stage.h_rows = codes_mod._bit_rows(block, r, copies)
        stage.g_rows = checks._generator_rows(ctx, i, stages.phi, block)
        if trace not in blocks:
            walk = checks._block_walk(stage.g_rows, n // copies, q)
            blocks[trace] = walk, codes_mod._block_transform(ctx, i, block)
        walk, transform = blocks[trace]
        stage.weights = checks.dual_weights(ctx, i, walk)
        stage.histogram = codes_mod._dual_weight_histogram(ctx, i, transform)
        stage.dist = codes_mod._macwilliams(ctx, i, stage.histogram, n if stages.full else min(n, h_max))
        stage.sums = mo._pless_sums(h_max, n, stage.dist)
        stage.moments = mo._recursion(q, i, stage.sums)
        stage.report = codes_mod.verify_dual_structure(ctx, i, stage.h_rows, stage.g_rows)
    return stages


def _distribution_cardinality(ctx, rec, i, s):
    # where the dual map is not injective (codes 1, 2 at r = 2) the code is larger than 2^(N-r):
    # compare against the nullspace dimension instead
    injective = s.report["injective"]
    expected = 1 << (s.n - ctx.r) if injective else s.report["code_cardinality"]
    if rec.full:
        return sum(s.dist) == expected, None if injective else "dual map not injective; expecting 2^(N-rank)"
    # the note is kept for byte-identical output: the count is code_cardinality's Walsh-Hadamard n_0
    return codes_mod.code_cardinality(ctx, i, s.histogram) == expected, "via group-algebra count"


# A row: its name; whether it is a row of each code, or a field row (once per r, under code None);
# the name of the constant of this module that bounds its r, or None, read when the row runs; and
# its check, (ctx, record, i, stage) -> (passed, note), or None where the row does not apply.
# ROWS holds verify's rows in output order.
_Row = namedtuple("_Row", "name per_code limit check")
ROWS = (
    _Row("kloosterman_weil_bound", False, None,
         lambda ctx, rec, i, s: (all(k * k <= 4 * ctx.q for k in rec.table[1:]), None)),
    _Row("kloosterman_mod4", False, None,
         lambda ctx, rec, i, s: (all(k % 4 == 3 for k in rec.table[1:]), None) if ctx.r > 1 else None),
    # K(a^2) = K(a), with a^2 read as exp[2 log a] (exp holds two periods)
    _Row("kloosterman_frobenius", False, None,
         lambda ctx, rec, i, s: (all(rec.table[ctx.exp[2 * ctx.log[a]]] == rec.table[a]
                                     for a in ctx.nonzero()), None)),
    _Row("moment_first", False, None, lambda ctx, rec, i, s: (rec.brute[1] == 1, None)),
    _Row("split_char_sum", True, "DIGEST_ROWS_MAX_R", lambda ctx, rec, i, s: rec.char_sums[0]),
    _Row("irreducible_char_sum", True, "DIGEST_ROWS_MAX_R", lambda ctx, rec, i, s: rec.char_sums[1]),
    # the literal trace words' weights against the closed forms num / den in the table's K(a)
    _Row("dual_weight_formula", True, "DIGEST_ROWS_MAX_R",
         lambda ctx, rec, i, s: (all(num == den * w for (num, den), w in
                                     zip(map(rec.fractions[i].get, rec.table[1:]), s.weights[1:])), None)),
    # wt(c_i(a)) = num / 4 is half of wt(c_(i-1)(a)) = num / 2 iff 4 divides num
    _Row("dual_weight_halving", True, "DIGEST_ROWS_MAX_R",
         lambda ctx, rec, i, s: (all(num % 4 == 0 for num, _ in rec.fractions[i].values()), None)
         if codes_mod.code_shape(i)[1] == 1 else None),
    _Row("dual_orthogonality", True, None, lambda ctx, rec, i, s: (s.report["orthogonal"], None)),
    # at q = 4 the dual map of a trace-zero code has a kernel of size 2
    _Row("dual_map_kernel", True, None,
         lambda ctx, rec, i, s: (s.report["kernel_size"] == 2, "kernel of size 2 expected at q=4")
         if not codes_mod.code_shape(i)[0] and ctx.q == 4 else None),
    _Row("dual_map_injective", True, None,
         lambda ctx, rec, i, s: (s.report["injective"], None)
         if codes_mod.code_shape(i)[0] or ctx.q != 4 else None),
    _Row("dual_cardinality_product", True, None, lambda ctx, rec, i, s: (s.report["product_check"], None)),
    _Row("distribution_vs_enumeration", True, "DIGEST_FULL_ROWS_MAX_R",
         lambda ctx, rec, i, s: (s.dist == codes_mod.weight_distribution_exhaustive(ctx, i), None)
         if s.n - ctx.r <= codes_mod.ENUMERATION_BUDGET else None),
    _Row("distribution_cardinality", True, "DIGEST_ROWS_MAX_R", _distribution_cardinality),
    _Row("distribution_palindrome", True, "DIGEST_FULL_ROWS_MAX_R",
         lambda ctx, rec, i, s: (s.dist == s.dist[::-1], None) if codes_mod.code_shape(i)[1] == 2 else None),
    _Row("pless_identity", True, None,
         lambda ctx, rec, i, s: (all(ok for *_, ok in mo.pless_check(ctx, i, s.weights, s.sums)), None)),
    _Row("moment_recursion", True, None,
         lambda ctx, rec, i, s: (s.moments == rec.brute[: rec.h_max + 1], None)),
)


def _verify_rows(ctx: FieldContext, codes: tuple[int, ...], h_max: int):
    """Yield (code, check, passed, note) for every row of ``ROWS`` that runs at this r, from one
    ``_stages`` record: the field rows under code None, then each code's rows in table order."""
    record = _stages(ctx, codes, h_max)
    rows = [row for row in ROWS if row.limit is None or ctx.r <= globals()[row.limit]]
    for i, stage in [(None, None), *record.codes.items()]:
        for row in rows:
            if row.per_code == (i is not None) and (result := row.check(ctx, record, i, stage)):
                yield i, row.name, *result


def run(args: SimpleNamespace) -> tuple:
    """Check every r of ``args``; return (payload, header, rows, lines, all passed)."""
    results = [
        {"r": r, "code": i, "check": name, "passed": passed, "note": note}
        for r, ctx in args.contexts.items()
        for i, name, passed, note in _verify_rows(ctx, args.code, args.hmax)
    ]
    all_passed = all(w["passed"] for w in results)

    lines = []
    for w in results:
        code = "-" if w["code"] is None else w["code"]
        status = "pass" if w["passed"] else "FAIL"
        note = f" ({w['note']})" if w["note"] else ""
        lines.append(f"r={w['r']} code={code} {w['check']}: {status}{note}")
    lines.append(f"all: {'pass' if all_passed else 'FAIL'}")
    header = ["r", "code", "check", "passed", "note"]
    return {"all_passed": all_passed, "results": results}, header, results, lines, all_passed
