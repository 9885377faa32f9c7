"""Batch front-end: moment tables, weight distributions, verification runs.

Subcommands
-----------
moments : recursive MK^h per code, beside the brute-force oracle column
          and a match flag (the K table reaches every r accepted here).
weights : weight distribution rows per code, full or truncated.
verify  : the whole identity suite per (r, code) with pass/fail lines.

Output is deterministic (sorted by r, code, then h or j; no
timestamps), in json, csv or pretty form.  Exit status: 0 all good,
1 usage error, 2 verification mismatch.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import warnings
from dataclasses import dataclass

from . import codes as codes_mod
from . import kloosterman as kl
from . import moments as mo
from .gf2r import FieldContext, build_field, parse_poly

__all__ = ["RunConfig", "main", "cmd_moments", "cmd_weights", "cmd_verify"]

USAGE_ERROR = 1
MISMATCH_ERROR = 2

SCHEMA_VERSION = 1

MAX_HMAX = 32
# full weight distributions on demand only up to this degree
FULL_DISTRIBUTION_MAX_R = 8


@dataclass
class RunConfig:
    """Validated options shared by the subcommands."""

    r_values: tuple[int, ...]
    modulus: int | None = None
    b: int | None = None
    h_max: int = 10
    codes: tuple[int, ...] = (1, 2, 3, 4)
    j_max: int | None = None
    fmt: str = "pretty"
    out: str | None = None
    contexts: dict[int, FieldContext] | None = None


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
    # every subcommand builds a K table or a whole-dual scan, which are
    # quadratic in q, so this one bound covers them all
    top = codes_mod.MAX_QUADRATIC_DEGREE
    for r in (lo, hi):
        if not 1 <= r <= top:
            raise ValueError(f"r must be within 1..{top} (work is quadratic in q), got {r}")
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
    empty cell, booleans in lower case); pretty is the lines.
    """
    if cfg.fmt == "json":
        doc = {"schema": SCHEMA_VERSION, "command": command, **payload}
        text = json.dumps(doc, indent=2) + "\n"
    elif cfg.fmt == "csv":
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
                dim = len(codes_mod.kernel_basis(codes_mod.parity_check_rows(ctx, i), n))
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


def _verify_checks(ctx: FieldContext, i: int, h_max: int, table: kl.KloostermanTable):
    """Yield (check_name, passed, note) for one (context, code) pair."""
    r, q = ctx.r, ctx.q

    if r <= 8:
        ok = all(
            kl.split_quadratic_char_sum(ctx, a) == table[a] - 1 for a in ctx.nonzero()
        )
        yield "split_char_sum", ok, None

        trace_one = [b for b in ctx.elements() if ctx.trace_table[b] == 1]
        bs = trace_one if r <= 6 else [trace_one[0], trace_one[-1]]
        ok = all(
            kl.irreducible_quadratic_char_sum(ctx, a, b) == -table[a] - 1
            for b in bs
            for a in ctx.nonzero()
        )
        note = None if bs == trace_one else f"sampled {len(bs)} of {len(trace_one)} b values"
        yield "irreducible_char_sum", ok, note

        ok = all(
            codes_mod.dual_codeword(ctx, i, a).weight
            == codes_mod.dual_weight_closed_form(ctx, i, a)
            for a in ctx.nonzero()
        )
        yield "dual_weight_formula", ok, None
        if i in (2, 4):
            ok = all(
                2 * codes_mod.dual_weight_closed_form(ctx, i, a)
                == codes_mod.dual_weight_closed_form(ctx, i - 1, a)
                for a in ctx.nonzero()
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

    n = codes_mod.code_length(ctx, i)
    # where the dual map is not injective (codes 1, 2 at r = 2) the code is
    # larger than 2^(N-r); compare against the nullspace dimension instead
    expected_total = (
        1 << (n - r) if report["injective"] else report["code_cardinality"]
    )
    size_note = None if report["injective"] else "dual map not injective; expecting 2^(N-rank)"
    if r <= 6:
        full = codes_mod.weight_distribution(ctx, i)
        # n - r <= 16 needs r <= 6: from r = 7 on, n - r >= q/2 - 1 - r >= 56
        if n - r <= 16:
            brute = codes_mod.weight_distribution_exhaustive(ctx, i)
            yield "distribution_vs_enumeration", full.counts == brute.counts, None
        yield "distribution_cardinality", sum(full.counts) == expected_total, size_note
        if i in (1, 3):
            ok = all(full.counts[j] == full.counts[n - j] for j in range(n + 1))
            yield "distribution_palindrome", ok, None
    elif r <= 8:
        yield (
            "distribution_cardinality",
            codes_mod.code_cardinality(ctx, i) == expected_total,
            "via group-algebra count",
        )

    if i in (3, 4) or r >= 3:
        ok = all(equal for _, _, equal in mo.pless_check(ctx, i, min(h_max, 10)))
        yield "pless_identity", ok, None
        seq = mo.moment_sequence(ctx, i, h_max)
        ok = all(
            seq.mk[h] == kl.moment_bruteforce(ctx, h, table)
            for h in range(h_max + 1)
        )
        yield "moment_recursion", ok, None


def _field_checks(ctx: FieldContext, table: kl.KloostermanTable):
    weil = all(k * k <= 4 * ctx.q for k in table.values.values())
    yield "kloosterman_weil_bound", weil, None
    if ctx.r >= 2:
        ok = all(k % 4 == 3 for k in table.values.values())
        yield "kloosterman_mod4", ok, None
    frob = all(table[ctx.mul(a, a)] == table[a] for a in ctx.nonzero())
    yield "kloosterman_frobenius", frob, None
    yield "moment_first", kl.moment_bruteforce(ctx, 1, table) == 1, None


def cmd_verify(cfg: RunConfig) -> int:
    results = []
    for r in cfg.r_values:
        ctx = cfg.contexts[r]
        table = kl.kloosterman_table(ctx)
        for name, passed, note in _field_checks(ctx, table):
            results.append({"r": r, "code": None, "check": name, "passed": passed, "note": note})
        for i in cfg.codes:
            if i in (1, 2) and r < 2:
                continue
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                for name, passed, note in _verify_checks(ctx, i, cfg.h_max, table):
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
    parser = _Parser(prog="kmoments", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("moments", "recursive vs brute-force power moments"),
        ("weights", "code weight distributions"),
        ("verify", "run the full identity suite"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--r", required=True, help="degree, or inclusive range a..b")
        p.add_argument("--modulus", help="irreducible modulus override (hex or x^k+... form)")
        p.add_argument("--b", help="trace-one element override (hex)")
        p.add_argument("--hmax", type=int, default=10, help="largest moment order (default 10)")
        p.add_argument("--code", default="1,2,3,4", help="comma list from 1..4")
        p.add_argument("--jmax", type=int, default=None, help="truncate distributions at this weight")
        p.add_argument("--format", choices=("json", "csv", "pretty"), default="pretty")
        p.add_argument("--out", default=None, help="write output to this path instead of stdout")
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


if __name__ == "__main__":
    sys.exit(main())
