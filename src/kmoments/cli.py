"""Batch front-end: moment tables, weight distributions, verification runs.

Commands
--------
The first argument names the command; every option applies to all three.

moments : recursive MK^h per code, beside the brute-force oracle column
          and a match flag (the K table reaches every r accepted here).
weights : weight distribution rows per code, full or truncated.
verify  : the whole identity suite per (r, code) with pass/fail lines.

Output is deterministic (sorted by r, code, then h or j; no
timestamps), in json, csv or pretty form.  Exit status: 0 all good,
1 usage error, 2 verification mismatch (a failed check, or an exact
arithmetic guard that raised, reported as one ``error:`` line).
"""

from __future__ import annotations

import argparse
import sys
import warnings

from . import codes as codes_mod
from . import kloosterman as kl
from . import moments as mo
from .gf2r import FieldContext, build_field, parse_poly

__all__ = ["RunConfig", "main", "cmd_moments", "cmd_weights", "cmd_verify"]

USAGE_ERROR = 1
MISMATCH_ERROR = 2

SCHEMA_VERSION = 1

# Cost model: every work limit of a run, the largest value it allows, and why.
# README.md shows it as a table; enumeration reads codes.ENUMERATION_BUDGET.
MAX_R = 12  # --r, every subcommand: past 12 no check independent of the K table yet
MAX_HMAX = 32  # --hmax: the recursion sums O(h^2) exact terms per order
FULL_DISTRIBUTION_MAX_R = 8  # weights without --jmax: N + 1 counts of up to N - r bits
CHAR_SUM_MAX_R = 8  # split_char_sum, irreducible_char_sum: literal sums, O(q^2) per r
ALL_B_MAX_R = 6  # irreducible_char_sum at every trace-one b, O(q^3); above, 2 sampled b
DUAL_WEIGHT_MAX_R = 8  # dual_weight_formula, dual_weight_halving: q dual words of N bits
VERIFY_DISTRIBUTION_MAX_R = 6  # verify's full distribution: O(N sqrt(q)) Krawtchouk terms
CARDINALITY_MAX_R = 8  # then distribution_cardinality by code_cardinality, O(q r)
PLESS_MAX_H = 10  # pless_identity checks orders 0..min(--hmax, PLESS_MAX_H)


class RunConfig:
    """Validated options shared by the subcommands."""

    __slots__ = ("r_values", "modulus", "b", "h_max", "codes", "j_max", "fmt", "out", "contexts")

    def __init__(
        self,
        r_values: tuple[int, ...],
        modulus: int | None = None,
        b: int | None = None,
        h_max: int = 10,
        codes: tuple[int, ...] = (1, 2, 3, 4),
        j_max: int | None = None,
        fmt: str = "pretty",
        out: str | None = None,
        contexts: dict[int, FieldContext] | None = None,
    ):
        self.r_values = r_values
        self.modulus = modulus
        self.b = b
        self.h_max = h_max
        self.codes = codes
        self.j_max = j_max
        self.fmt = fmt
        self.out = out
        self.contexts = contexts


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _parse_r_range(text: str) -> tuple[int, ...]:
    if ".." in text:
        lo_s, hi_s = text.split("..", 1)
        lo, hi = int(lo_s), int(hi_s)
    else:
        lo = hi = int(text)
    if lo > hi:
        raise ValueError(f"empty range {text!r}")
    for r in (lo, hi):
        if not 1 <= r <= MAX_R:
            raise ValueError(f"r must be within 1..{MAX_R} (the CLI's MAX_R), got {r}")
    return tuple(range(lo, hi + 1))


def _parse_codes(text: str) -> tuple[int, ...]:
    out = []
    for part in text.split(","):
        i = int(part)
        if i not in codes_mod.CODE_INDICES:
            raise ValueError(f"code index must be in 1..4, got {i}")
        if i not in out:
            out.append(i)
    return tuple(out)


def _build_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig(
        r_values=_parse_r_range(args.r),
        modulus=parse_poly(args.modulus) if args.modulus else None,
        b=parse_poly(args.b) if args.b else None,
        h_max=args.hmax,
        codes=_parse_codes(args.code),
        j_max=args.jmax,
        fmt=args.format,
        out=args.out,
    )
    if not 0 <= cfg.h_max <= MAX_HMAX:
        raise ValueError(f"hmax must be within 0..{MAX_HMAX}")
    if cfg.j_max is not None and cfg.j_max < 0:
        raise ValueError("jmax must be nonnegative")
    if cfg.modulus is not None and len(cfg.r_values) > 1:
        raise ValueError("--modulus applies to a single r, not a range")
    # surface bad overrides (reducible modulus, trace-zero b, ...) as usage
    # errors before any command runs
    cfg.contexts = {r: build_field(r, modulus=cfg.modulus, b=cfg.b) for r in cfg.r_values}
    return cfg


def _csv_cell(value):
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(value).lower()
    return value


def _render(
    cfg: RunConfig,
    command: str,
    payload: dict,
    header: list[str],
    rows: list[dict],
    lines: list[str],
) -> None:
    """Write one command's output in the configured format.

    json is the payload under the schema and command keys; csv is the
    header, then the values of each row dict in key order (None as an
    empty cell, booleans in lower case); pretty is the lines.  json and
    csv are imported here, by the one run that writes them.
    """
    if cfg.fmt == "json":
        import json

        doc = {"schema": SCHEMA_VERSION, "command": command, **payload}
        text = json.dumps(doc, indent=2) + "\n"
    elif cfg.fmt == "csv":
        import csv
        import io

        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([_csv_cell(v) for v in row.values()] for row in rows)
        text = buf.getvalue()
    else:
        text = "\n".join(lines) + "\n"
    if cfg.out:
        try:
            with open(cfg.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise _UsageError(f"cannot write {cfg.out}: {exc.strerror}") from exc
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# moments


def cmd_moments(cfg: RunConfig) -> int:
    rows = []
    for r in cfg.r_values:
        ctx = cfg.contexts[r]
        table = kl.kloosterman_table(ctx)
        for i in cfg.codes:
            if i in (1, 2) and r < 3:
                continue
            seq = mo.moment_sequence(ctx, i, cfg.h_max)
            for h in range(cfg.h_max + 1):
                brute = kl.moment_bruteforce(ctx, h, table)
                rows.append(
                    {
                        "r": r,
                        "modulus_hex": ctx.modulus_hex,
                        "code": i,
                        "h": h,
                        "mk_recursive": seq.mk[h],
                        "mk_bruteforce": brute,
                        "match": seq.mk[h] == brute,
                    }
                )
    if not rows:
        raise _UsageError("no (r, code) combination selected is admissible")

    lines = [
        f"r={w['r']} code={w['code']} h={w['h']:>2} mk={w['mk_recursive']} "
        f"brute={w['mk_bruteforce']} [{'ok' if w['match'] else 'MISMATCH'}]"
        for w in rows
    ]
    header = ["r", "modulus", "code", "h", "mk_recursive", "mk_bruteforce", "match"]
    _render(cfg, "moments", {"rows": rows}, header, rows, lines)
    return 0 if all(w["match"] for w in rows) else MISMATCH_ERROR


# ---------------------------------------------------------------------------
# weights


def cmd_weights(cfg: RunConfig) -> int:
    blocks = []
    for r in cfg.r_values:
        ctx = cfg.contexts[r]
        for i in cfg.codes:
            if i in (1, 2) and r < 2:
                continue
            n = codes_mod.code_length(ctx, i)
            if cfg.j_max is None and r > FULL_DISTRIBUTION_MAX_R:
                raise _UsageError(
                    f"full distribution at r={r} is too large; pass --jmax to truncate"
                )
            j_max = n if cfg.j_max is None else min(cfg.j_max, n)
            # at r = 2 the totals check below already shows the larger code
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                dist = codes_mod.weight_distribution(ctx, i, j_max=j_max)
            block = {
                "r": r,
                "code": i,
                "length": n,
                "j_max": j_max,
                "counts": list(dist.counts),
            }
            if dist.is_full:
                total = sum(dist.counts)
                dim = n - codes_mod.gf2_rank(codes_mod.parity_check_rows(ctx, i))
                block["checks"] = {
                    "total": total,
                    "expected_total": 1 << dim,
                    "cardinality_ok": total == 1 << dim,
                }
                if i in (1, 3):
                    block["checks"]["palindrome"] = all(
                        dist.counts[j] == dist.counts[n - j] for j in range(n + 1)
                    )
            blocks.append(block)
    if not blocks:
        raise _UsageError("no (r, code) combination selected is admissible")

    rows = [
        {"r": blk["r"], "code": blk["code"], "j": j, "count": c}
        for blk in blocks
        for j, c in enumerate(blk["counts"])
    ]
    lines = []
    for blk in blocks:
        lines.append(
            f"r={blk['r']} code={blk['code']} length={blk['length']}: "
            + ",".join(str(c) for c in blk["counts"])
        )
        if "checks" in blk:
            checks = blk["checks"]
            extra = f"  total={checks['total']} (2^(N-r): {checks['cardinality_ok']})"
            if "palindrome" in checks:
                extra += f" palindrome={checks['palindrome']}"
            lines.append(extra)
    _render(cfg, "weights", {"distributions": blocks}, ["r", "code", "j", "count"], rows, lines)
    return 0


# ---------------------------------------------------------------------------
# verify


def _char_sum_checks(ctx: FieldContext, table: kl.KloostermanTable):
    """The two quadratic character sums against the table, up to CHAR_SUM_MAX_R.

    They do not depend on the code, so ``cmd_verify`` evaluates them
    once per r and repeats the rows under each code.  Each sum comes as
    one row over every a: one split row, and one irreducible row per b.
    """
    if ctx.r > CHAR_SUM_MAX_R:
        return []
    split = kl.split_quadratic_char_sums(ctx)
    ok = all(split[a] == table[a] - 1 for a in ctx.nonzero())
    checks = [("split_char_sum", ok, None)]

    trace_one = [b for b in ctx.elements() if ctx.trace_table[b] == 1]
    bs = trace_one if ctx.r <= ALL_B_MAX_R else [trace_one[0], trace_one[-1]]
    rows = (kl.irreducible_quadratic_char_sums(ctx, b) for b in bs)
    ok = all(row[a] == -table[a] - 1 for row in rows for a in ctx.nonzero())
    note = None if bs == trace_one else f"sampled {len(bs)} of {len(trace_one)} b values"
    checks.append(("irreducible_char_sum", ok, note))
    return checks


def _whole_weight(q: int, i: int, k: int) -> int | None:
    # the closed-form weight of c_i(a) from k = K(a); None where a wrong k
    # makes it a fraction, so the check fails instead of raising
    num, den = codes_mod.dual_weight_fraction(q, i, k)
    return None if num % den else num // den


def _verify_checks(
    ctx: FieldContext, i: int, h_max: int, table: kl.KloostermanTable, brute: list[int]
):
    """Yield (check_name, passed, note) for one (context, code) pair.

    ``brute`` holds MK^0..MK^h_max (at least) from the table.  The dual
    words and the weight distribution are built once here and shared by
    every check that reads them.
    """
    r, q = ctx.r, ctx.q
    n = codes_mod.code_length(ctx, i)
    words = codes_mod.dual_words(ctx, i)
    full_distribution = r <= VERIFY_DISTRIBUTION_MAX_R
    dist = codes_mod.weight_distribution(ctx, i, j_max=n if full_distribution else min(n, h_max))

    if r <= DUAL_WEIGHT_MAX_R:
        # the literal trace words against the closed forms in the table's K(a)
        weights = {a: _whole_weight(q, i, table[a]) for a in ctx.nonzero()}
        ok = all(w == words[a].bit_count() for a, w in weights.items())
        yield "dual_weight_formula", ok, None
        if i in (2, 4):
            ok = all(
                w is not None and 2 * w == _whole_weight(q, i - 1, table[a])
                for a, w in weights.items()
            )
            yield "dual_weight_halving", ok, None

    report = codes_mod.verify_dual_structure(ctx, i)
    yield "dual_orthogonality", report["orthogonal"], None
    if i in (1, 2) and q == 4:
        ok = report["kernel_size"] == 2
        yield "dual_map_kernel", ok, "kernel of size 2 expected at q=4"
    else:
        yield "dual_map_injective", report["injective"], None
    yield "dual_cardinality_product", report["product_check"], None

    # where the dual map is not injective (codes 1, 2 at r = 2) the code is
    # larger than 2^(N-r); compare against the nullspace dimension instead
    expected_total = (
        1 << (n - r) if report["injective"] else report["code_cardinality"]
    )
    size_note = None if report["injective"] else "dual map not injective; expecting 2^(N-rank)"
    if full_distribution:
        if n - r <= codes_mod.ENUMERATION_BUDGET:
            enumerated = codes_mod.weight_distribution_exhaustive(ctx, i)
            yield "distribution_vs_enumeration", dist.counts == enumerated.counts, None
        yield "distribution_cardinality", sum(dist.counts) == expected_total, size_note
        if i in (1, 3):
            ok = all(dist.counts[j] == dist.counts[n - j] for j in range(n + 1))
            yield "distribution_palindrome", ok, None
    elif r <= CARDINALITY_MAX_R:
        # the note is kept for byte-identical output; the count is the
        # Walsh-Hadamard n_0 of code_cardinality, not the group algebra
        yield (
            "distribution_cardinality",
            codes_mod.code_cardinality(ctx, i) == expected_total,
            "via group-algebra count",
        )

    if i in (3, 4) or r >= 3:
        pless = mo.pless_check(
            ctx, i, min(h_max, PLESS_MAX_H), counts=dist.counts, words=words
        )
        yield "pless_identity", all(equal for _, _, equal in pless), None
        seq = mo.moment_sequence(ctx, i, h_max, counts=dist.counts)
        ok = all(seq.mk[h] == brute[h] for h in range(h_max + 1))
        yield "moment_recursion", ok, None


def _field_checks(ctx: FieldContext, table: kl.KloostermanTable, brute: list[int]):
    weil = all(k * k <= 4 * ctx.q for k in table.values.values())
    yield "kloosterman_weil_bound", weil, None
    if ctx.r >= 2:
        ok = all(k % 4 == 3 for k in table.values.values())
        yield "kloosterman_mod4", ok, None
    frob = all(table[ctx.mul(a, a)] == table[a] for a in ctx.nonzero())
    yield "kloosterman_frobenius", frob, None
    yield "moment_first", brute[1] == 1, None


def cmd_verify(cfg: RunConfig) -> int:
    results = []
    for r in cfg.r_values:
        ctx = cfg.contexts[r]
        table = kl.kloosterman_table(ctx)
        # MK^h once per r, for moment_first and every code's moment_recursion
        brute = [kl.moment_bruteforce(ctx, h, table) for h in range(max(cfg.h_max, 1) + 1)]
        for name, passed, note in _field_checks(ctx, table, brute):
            results.append({"r": r, "code": None, "check": name, "passed": passed, "note": note})
        char_sums = _char_sum_checks(ctx, table)
        for i in cfg.codes:
            if i in (1, 2) and r < 2:
                continue
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                checks = [*char_sums, *_verify_checks(ctx, i, cfg.h_max, table, brute)]
                for name, passed, note in checks:
                    results.append(
                        {"r": r, "code": i, "check": name, "passed": passed, "note": note}
                    )
    all_passed = all(w["passed"] for w in results)

    lines = []
    for w in results:
        code = "-" if w["code"] is None else w["code"]
        status = "pass" if w["passed"] else "FAIL"
        note = f" ({w['note']})" if w["note"] else ""
        lines.append(f"r={w['r']} code={code} {w['check']}: {status}{note}")
    lines.append(f"all: {'pass' if all_passed else 'FAIL'}")
    header = ["r", "code", "check", "passed", "note"]
    _render(cfg, "verify", {"all_passed": all_passed, "results": results}, header, results, lines)
    return 0 if all_passed else MISMATCH_ERROR


# ---------------------------------------------------------------------------
# entry point


def _make_parser() -> _Parser:
    # one parser for all three commands, which take the same options; a
    # subparser each would build and scan the same eight options three times
    parser = _Parser(
        prog="kmoments",
        usage="%(prog)s {moments,weights,verify} --r R [options]",
        description=__doc__.splitlines()[0] + " Every option applies to all three commands.",
    )
    parser.add_argument(
        "command",
        choices=("moments", "weights", "verify"),
        help="moments: recursive vs brute-force power moments; "
        "weights: code weight distributions; verify: run the full identity suite",
    )
    parser.add_argument("--r", required=True, help="degree, or inclusive range a..b")
    parser.add_argument("--modulus", help="irreducible modulus override (hex or x^k+... form)")
    parser.add_argument("--b", help="trace-one element override (hex)")
    parser.add_argument("--hmax", type=int, default=10, help="largest moment order (default 10)")
    parser.add_argument("--code", default="1,2,3,4", help="comma list from 1..4")
    parser.add_argument("--jmax", type=int, default=None, help="truncate distributions at this weight")
    parser.add_argument("--format", choices=("json", "csv", "pretty"), default="pretty")
    parser.add_argument("--out", default=None, help="write output to this path instead of stdout")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _make_parser()
    try:
        args = parser.parse_args(argv)
        cfg = _build_config(args)
    except (_UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    try:
        if args.command == "moments":
            return cmd_moments(cfg)
        if args.command == "weights":
            return cmd_weights(cfg)
        return cmd_verify(cfg)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except ArithmeticError as exc:
        # an exact-arithmetic guard failed: the numbers do not check out
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return MISMATCH_ERROR


if __name__ == "__main__":
    sys.exit(main())
