"""The ``verify`` command: the whole identity suite per (r, code), with pass/fail rows.

``cli.main`` compiles this module, and through it the checks of every
layer, on the first ``verify`` run only, and runs ``run``: a ``moments``
or ``weights`` run compiles none of them.  ``run`` returns the rows and
writes nothing; ``cli.main`` renders them.  This module imports no
part of the CLI.

The stage record ``_stages`` and the rows read every function through
a module at call time, so that a patched function reaches the suite.
The K table and the checks that perfbench's tracer wraps
(``codes.verify_dual_structure``, ``codes.weight_distribution_exhaustive``,
``codes.code_cardinality``, ``moments.pless_check``) are read through
their layer modules, where the tracer binds its wrapper; every other
function, the private stage builders and the two cores
``codes._macwilliams`` and ``moments._recursion`` among them, through
the module that defines it.  verify calls neither
``codes.weight_distribution`` nor ``moments.moment_sequence``: the
record calls the cores that those two wrap.  The two row scopes below
are verify's; the CLI's run limits are in :mod:`kmoments.cli`.
"""

from types import SimpleNamespace

from . import codes_checks, gf2r, kloosterman_checks
from . import codes as codes_mod
from . import kloosterman as kl
from . import moments as mo
from .gf2r import FieldContext

__all__ = ["run"]

# Row scopes: not costs (at r = 8 a char-sum row takes 0.14 ms, a full distribution a few ms
# per code); verify's rows stop here only to keep its output, and perfbench/reference.json's
# digests, as recorded
DIGEST_ROWS_MAX_R = 8  # both char-sum rows, dual_weight_formula and _halving, code_cardinality's row
DIGEST_FULL_ROWS_MAX_R = 6  # irreducible_char_sum at every trace-one b (above, 2), full distribution


def _stages(ctx: FieldContext, codes: tuple[int, ...], h_max: int) -> SimpleNamespace:
    """The stage values of one r that verify's rows read, each built once, in dependency order.

    Per r: the trace map ``phi`` (for every G and character-sum row), the K
    ``table`` and ``brute``, MK^0..MK^max(h_max, 1) from it.  Per block, from
    the first code on it: the Gray-code walk and the counted Walsh-Hadamard
    transform, which the two codes on it share (a word of a two-copy code is
    its block's word twice, so its weights and transform values are twice the
    block's).  In ``codes``, per code that exists at r: its length ``n``, H
    and G (``h_rows``, ``g_rows``), the dual ``weights``, the ``histogram``,
    the distribution ``dist`` (to min(N, h_max) only above
    DIGEST_FULL_ROWS_MAX_R), the Pless ``sums`` and the ``moments`` of the
    recursion to h_max, and the dual-structure ``report``.
    """
    r, q = ctx.r, ctx.q
    table = kl.kloosterman_table(ctx)
    brute = kl.moment_bruteforce(ctx, max(h_max, 1), table)
    stages = SimpleNamespace(phi=gf2r._trace_map(ctx), table=table, brute=brute, codes={})
    blocks = {}  # trace -> the block's walk and counted transform
    for i in codes:
        if not (n := codes_mod.code_length(ctx, i)):
            continue
        trace, copies = codes_mod.code_shape(i)
        block = codes_mod._base_entries(ctx, i)
        stage = stages.codes[i] = SimpleNamespace(n=n)
        stage.h_rows = codes_mod._bit_rows(block, r, copies)
        stage.g_rows = codes_checks._generator_rows(ctx, i, stages.phi, block)
        if trace not in blocks:
            walk = codes_checks._block_walk(stage.g_rows, n // copies, q)
            blocks[trace] = walk, codes_mod._block_transform(ctx, i, block)
        walk, transform = blocks[trace]
        stage.weights = codes_checks.dual_weights(ctx, i, walk)
        stage.histogram = codes_mod._dual_weight_histogram(ctx, i, transform)
        j_max = n if r <= DIGEST_FULL_ROWS_MAX_R else min(n, h_max)
        stage.dist = codes_mod._macwilliams(ctx, i, stage.histogram, j_max)
        stage.sums = mo._pless_sums(h_max, n, stage.dist)
        stage.moments = mo._recursion(q, i, stage.sums)
        stage.report = codes_mod.verify_dual_structure(ctx, i, stage.h_rows, stage.g_rows)
    return stages


def _verify_rows(ctx: FieldContext, codes: tuple[int, ...], h_max: int):
    """Yield (code, check, passed, note) for every verify row of one r, in output order.

    Every row reads its stage values from one ``_stages`` record.  Up to
    DIGEST_ROWS_MAX_R the rows add the two quadratic character sums, whose
    rows repeat under each code (``quadratic_char_sums`` at b = 0 and at
    every trace-one b, or two above DIGEST_FULL_ROWS_MAX_R), and one closed
    form per code and distinct K value.  The field rows come first, under
    code None.
    """
    r, q = ctx.r, ctx.q
    stages = _stages(ctx, codes, h_max)
    table, brute = stages.table, stages.brute
    values = table[1:]
    yield None, "kloosterman_weil_bound", all(k * k <= 4 * q for k in values), None
    if r >= 2:
        yield None, "kloosterman_mod4", all(k % 4 == 3 for k in values), None
    # K(a^2) = K(a), with a^2 read as exp[2 log a] (exp holds two periods)
    exp, log = ctx.exp, ctx.log
    frob = all(table[exp[2 * log[a]]] == table[a] for a in ctx.nonzero())
    yield None, "kloosterman_frobenius", frob, None
    yield None, "moment_first", brute[1] == 1, None

    def char_sums_hold(b: int) -> bool:
        # lambda(a/(alpha^2 + alpha + b)) summed over alpha is (-1)^tr(b) K(a) - 1
        row, sign = kloosterman_checks.quadratic_char_sums(ctx, b, stages.phi), 1 - 2 * ctx.trace_table[b]
        return all(row[a] == sign * table[a] - 1 for a in ctx.nonzero())

    full_rows = r <= DIGEST_FULL_ROWS_MAX_R
    char_sums = []
    if r <= DIGEST_ROWS_MAX_R:
        char_sums.append(("split_char_sum", char_sums_hold(0), None))
        trace_one = [b for b in ctx.elements() if ctx.trace_table[b] == 1]
        bs = trace_one if full_rows else [trace_one[0], trace_one[-1]]
        note = None if bs == trace_one else f"sampled {len(bs)} of {len(trace_one)} b values"
        char_sums.append(("irreducible_char_sum", all(map(char_sums_hold, bs)), note))

    for i, stage in stages.codes.items():
        n, dist, report = stage.n, stage.dist, stage.report
        trace, copies = codes_mod.code_shape(i)
        for name, ok, note in char_sums:
            yield i, name, ok, note

        if r <= DIGEST_ROWS_MAX_R:
            # the literal trace words' weights against the closed forms num / den in the table's K(a)
            fraction = {k: codes_checks.dual_weight_fraction(q, i, k) for k in set(values)}
            ok = all(fraction[table[a]][0] == fraction[table[a]][1] * stage.weights[a] for a in ctx.nonzero())
            yield i, "dual_weight_formula", ok, None
            if copies == 1:
                # wt(c_i(a)) = num / 4 is half of wt(c_(i-1)(a)) = num / 2 iff 4 divides num
                ok = all(num % 4 == 0 for num, _ in fraction.values())
                yield i, "dual_weight_halving", ok, None

        yield i, "dual_orthogonality", report["orthogonal"], None
        if not trace and q == 4:
            ok = report["kernel_size"] == 2
            yield i, "dual_map_kernel", ok, "kernel of size 2 expected at q=4"
        else:
            yield i, "dual_map_injective", report["injective"], None
        yield i, "dual_cardinality_product", report["product_check"], None

        # where the dual map is not injective (codes 1, 2 at r = 2) the code is
        # larger than 2^(N-r); compare against the nullspace dimension instead
        expected_total = 1 << (n - r) if report["injective"] else report["code_cardinality"]
        size_note = None if report["injective"] else "dual map not injective; expecting 2^(N-rank)"
        if full_rows:
            if n - r <= codes_mod.ENUMERATION_BUDGET:
                enumerated = codes_mod.weight_distribution_exhaustive(ctx, i)
                yield i, "distribution_vs_enumeration", dist == enumerated, None
            yield i, "distribution_cardinality", sum(dist) == expected_total, size_note
            if copies == 2:
                ok = all(dist[j] == dist[n - j] for j in range(n + 1))
                yield i, "distribution_palindrome", ok, None
        elif r <= DIGEST_ROWS_MAX_R:
            # the note is kept for byte-identical output; the count is the
            # Walsh-Hadamard n_0 of code_cardinality, not the group algebra
            ok = codes_mod.code_cardinality(ctx, i, stage.histogram) == expected_total
            yield i, "distribution_cardinality", ok, "via group-algebra count"

        pless = mo.pless_check(ctx, i, stage.weights, stage.sums)
        yield i, "pless_identity", all(equal for _, _, equal in pless), None
        yield i, "moment_recursion", stage.moments == brute[: h_max + 1], None


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
