"""Batch front-end: moment tables, weight distributions, verification runs.

Commands
--------
The command may stand anywhere among the options.  Every command accepts
every option; --jmax shapes only weights, and --hmax only moments and
verify.  Each option is declared once, in ``OPTIONS``, and each command
in ``COMMANDS``; the parser and ``--help`` read both, and each command
reads the checked values.

moments : recursive MK^h per code, beside the brute-force oracle column
          and a match flag (the K table reaches every r accepted here).
weights : weight distribution rows per code, full or truncated.
verify  : the whole identity suite per (r, code) with pass/fail lines.

Output is deterministic (sorted by r, code, then h or j; no
timestamps), in json, csv or pretty form.  Exit status: 0 all good,
1 usage error (a failed write of the output or of --help too),
2 verification mismatch (a failed check, or an exact arithmetic guard
that raised); each error is one ``error:`` line.
"""

from __future__ import annotations

import os
import sys
from types import SimpleNamespace

from . import codes as codes_mod
from . import kloosterman as kl
from . import moments as mo
from .gf2r import FieldContext, build_field, parse_poly

__all__ = ["main", "cmd_moments", "cmd_weights", "cmd_verify"]

USAGE_ERROR = 1
MISMATCH_ERROR = 2

SCHEMA_VERSION = 1

# Cost model: every work limit of a run, the largest value it allows, and why.
# README.md shows it as a table; enumeration reads codes.ENUMERATION_BUDGET.
MAX_R = 12  # --r, every subcommand: past 12 no check independent of the K table yet
MAX_HMAX = 32  # --hmax: not a cost (O(h^2) exact terms); the orders the tests check by brute force
FULL_DISTRIBUTION_MAX_R = 8  # weights reaching weight N: not a cost, --jmax N - 1 prints almost as much
# not costs (at r = 8 a char-sum row takes 0.14 ms, a full distribution a few ms per code):
# verify's rows stop here only to keep its output, and perfbench/reference.json's digests, as recorded
DIGEST_ROWS_MAX_R = 8  # both char-sum rows, dual_weight_formula and _halving, code_cardinality's row
DIGEST_FULL_ROWS_MAX_R = 6  # irreducible_char_sum at every trace-one b (above, 2), full distribution


# Every option of every command: name, default, the values it takes (int,
# str, or a tuple of choices) and its --help text.  --r is required.
OPTIONS = (
    ("r", None, str, "degree, or inclusive range a..b (required)"),
    ("modulus", None, str, "irreducible modulus override (hex or x^k+... form)"),
    ("b", None, str, "trace-one element override (hex)"),
    ("hmax", 10, int, "largest moment order"),
    ("code", "1,2,3,4", str, "comma list from 1..4"),
    ("jmax", None, int, "truncate distributions at this weight"),
    ("format", "pretty", ("json", "csv", "pretty"), "output form"),
    ("out", None, str, "write output to this path instead of stdout"),
)


class _UsageError(Exception):
    pass


def _ints(name: str, text: str, parts: list[str]) -> list[int]:
    # ASCII digits after an optional "-": int() would also read "٣", "+3", "1_1" and " 4"
    for part in parts:
        digits = part.removeprefix("-")
        if not (digits.isascii() and digits.isdigit()):
            raise _UsageError(f"argument --{name}: invalid value: {text!r}")
    return [int(part) for part in parts]


def _poly(name: str, text: str) -> int:
    try:
        return parse_poly(text)
    except ValueError as exc:
        raise ValueError(f"argument --{name}: {exc}") from None


def _parse_r_range(text: str) -> tuple[int, ...]:
    bounds = _ints("r", text, text.split("..", 1))
    lo, hi = bounds[0], bounds[-1]
    if lo > hi:
        raise ValueError(f"empty range {text!r}")
    for r in (lo, hi):
        if not 1 <= r <= MAX_R:
            raise ValueError(f"r must be within 1..{MAX_R} (the CLI's MAX_R), got {r}")
    return tuple(range(lo, hi + 1))


def _parse_codes(text: str) -> tuple[int, ...]:
    codes = _ints("code", text, text.split(","))
    for i in codes:
        codes_mod.code_shape(i)
    return tuple(dict.fromkeys(codes))


def _build_config(args: SimpleNamespace) -> None:
    """Check the parsed options; set ``args.code`` to a tuple without repeats and
    ``args.contexts`` to the field context of each r, in ascending order."""
    r_values = _parse_r_range(args.r)
    modulus = None if args.modulus is None else _poly("modulus", args.modulus)
    b = None if args.b is None else _poly("b", args.b)
    args.code = _parse_codes(args.code)
    if not 0 <= args.hmax <= MAX_HMAX:
        raise ValueError(f"hmax must be within 0..{MAX_HMAX}")
    if args.jmax is not None and args.jmax < 0:
        raise ValueError("jmax must be nonnegative")
    if modulus is not None and len(r_values) > 1:
        raise ValueError("--modulus applies to a single r, not a range")
    # surface bad overrides (reducible modulus, trace-zero b, ...) as usage
    # errors before any command runs
    args.contexts = {r: build_field(r, modulus=modulus, b=b) for r in r_values}


def _csv_cell(value):
    return str(value).lower() if isinstance(value, bool) else value


def _render(
    args: SimpleNamespace,
    command: str,
    payload: dict,
    header: list[str],
    rows: list[dict],
    lines: list[str],
) -> None:
    """Write one command's output in the format ``args.format`` names.

    json is the payload under the schema and command keys; csv is the
    header, then the values of each row dict in key order (None as an
    empty cell, booleans in lower case); pretty is the lines.  json and
    csv are imported here, by the one run that writes them.
    """
    if args.format == "json":
        import json

        doc = {"schema": SCHEMA_VERSION, "command": command, **payload}
        text = json.dumps(doc, indent=2) + "\n"
    elif args.format == "csv":
        import csv
        import io

        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([_csv_cell(v) for v in row.values()] for row in rows)
        text = buf.getvalue()
    else:
        text = "\n".join(lines) + "\n"
    _write(text, args.out)


def _write(text: str, path: str | None) -> None:
    """Write ``text`` to the file ``path``, or to stdout if it is None; a failure is a usage error."""
    if path is not None:
        try:
            with open(path, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise _UsageError(f"cannot write {path!r}: {exc.strerror}") from exc
    else:
        try:
            sys.stdout.write(text)
            sys.stdout.flush()
        except OSError as exc:
            # send what is left in the buffer to the null device, or the flush at exit fails again
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            raise _UsageError(f"cannot write to stdout: {exc.strerror}") from exc


# ---------------------------------------------------------------------------
# moments


def cmd_moments(args: SimpleNamespace) -> int:
    rows = []
    for r, ctx in args.contexts.items():
        table = kl.kloosterman_table(ctx)
        # MK^h depends on r alone: one column, shared by every code
        brute = kl.moment_bruteforce(ctx, args.hmax, table)
        for i in args.code:
            if not codes_mod.code_length(ctx, i):
                continue
            seq = mo.moment_sequence(ctx, i, args.hmax)
            for h in range(args.hmax + 1):
                rows.append(
                    {
                        "r": r,
                        "modulus_hex": f"{ctx.modulus:#x}",
                        "code": i,
                        "h": h,
                        "mk_recursive": seq[h],
                        "mk_bruteforce": brute[h],
                        "match": seq[h] == brute[h],
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
    _render(args, "moments", {"rows": rows}, header, rows, lines)
    return 0 if all(w["match"] for w in rows) else MISMATCH_ERROR


# ---------------------------------------------------------------------------
# weights


def cmd_weights(args: SimpleNamespace) -> int:
    blocks, lines = [], []
    for r, ctx in args.contexts.items():
        for i in args.code:
            n = codes_mod.code_length(ctx, i)
            if not n:
                continue
            _, copies = codes_mod.code_shape(i)
            j_max = n if args.jmax is None else min(args.jmax, n)
            if j_max == n and r > FULL_DISTRIBUTION_MAX_R:
                raise _UsageError(
                    f"full distribution of code {i} at r={r} is too large (N = {n}); "
                    f"pass --jmax below {n}"
                )
            dist = codes_mod.weight_distribution(ctx, i, j_max=j_max)
            blocks.append({"r": r, "code": i, "length": n, "j_max": j_max, "counts": list(dist)})
            lines.append(f"r={r} code={i} length={n}: " + ",".join(str(c) for c in dist))
            if j_max == n:
                total = sum(dist)
                dim = n - codes_mod.gf2_rank(codes_mod.parity_check_rows(ctx, i))
                checks = {"total": total, "expected_total": 1 << dim, "cardinality_ok": total == 1 << dim}
                # 2^(N - rank H) words, which is 2^(N - r) only where H has rank r
                size = "N-r" if dim == n - r else "N-rank"
                extra = f"  total={total} (2^({size}): {checks['cardinality_ok']})"
                if copies == 2:
                    checks["palindrome"] = all(dist[j] == dist[n - j] for j in range(n + 1))
                    extra += f" palindrome={checks['palindrome']}"
                blocks[-1]["checks"] = checks
                lines.append(extra)
    if not blocks:
        raise _UsageError("no (r, code) combination selected is admissible")

    rows = [
        {"r": blk["r"], "code": blk["code"], "j": j, "count": c}
        for blk in blocks
        for j, c in enumerate(blk["counts"])
    ]
    _render(args, "weights", {"distributions": blocks}, ["r", "code", "j", "count"], rows, lines)
    return 0


# ---------------------------------------------------------------------------
# verify


def _verify_rows(ctx: FieldContext, codes: tuple[int, ...], h_max: int):
    """Yield (code, check, passed, note) for every verify row of one r, in output order.

    Once per r: the K table, MK^0..MK^max(h_max, 1) from it (for
    moment_first and every code's moment_recursion), and up to
    DIGEST_ROWS_MAX_R the two quadratic character sums, whose rows repeat
    under each code (``quadratic_char_sums`` at b = 0 and at every
    trace-one b, or two above DIGEST_FULL_ROWS_MAX_R).  The field rows come
    first, under code None.  Once per code: the q dual weights, the weight
    distribution (to h_max only above DIGEST_FULL_ROWS_MAX_R; there the
    cardinality row's ``code_cardinality`` runs the histogram again) and
    the dual-structure report, each shared by every row that reads it.
    """
    r, q = ctx.r, ctx.q
    table = kl.kloosterman_table(ctx)
    brute = kl.moment_bruteforce(ctx, max(h_max, 1), table)
    values = table[1:]
    yield None, "kloosterman_weil_bound", all(k * k <= 4 * q for k in values), None
    if r >= 2:
        yield None, "kloosterman_mod4", all(k % 4 == 3 for k in values), None
    frob = all(table[ctx.mul(a, a)] == table[a] for a in ctx.nonzero())
    yield None, "kloosterman_frobenius", frob, None
    yield None, "moment_first", brute[1] == 1, None

    def char_sums_hold(b: int) -> bool:
        # lambda(a/(alpha^2 + alpha + b)) summed over alpha is (-1)^tr(b) K(a) - 1
        row, sign = kl.quadratic_char_sums(ctx, b), 1 - 2 * ctx.trace_table[b]
        return all(row[a] == sign * table[a] - 1 for a in ctx.nonzero())

    full_rows = r <= DIGEST_FULL_ROWS_MAX_R
    char_sums = []
    if r <= DIGEST_ROWS_MAX_R:
        char_sums.append(("split_char_sum", char_sums_hold(0), None))
        trace_one = [b for b in ctx.elements() if ctx.trace_table[b] == 1]
        bs = trace_one if full_rows else [trace_one[0], trace_one[-1]]
        note = None if bs == trace_one else f"sampled {len(bs)} of {len(trace_one)} b values"
        char_sums.append(("irreducible_char_sum", all(map(char_sums_hold, bs)), note))

    for i in codes:
        n = codes_mod.code_length(ctx, i)
        if not n:
            continue
        trace, copies = codes_mod.code_shape(i)
        for name, ok, note in char_sums:
            yield i, name, ok, note
        weights = codes_mod.dual_weights(ctx, i)
        dist = codes_mod.weight_distribution(ctx, i, j_max=n if full_rows else min(n, h_max))

        if r <= DIGEST_ROWS_MAX_R:
            # the literal trace words' weights against the closed forms num / den in the table's K(a)
            fractions = {a: codes_mod.dual_weight_fraction(q, i, table[a]) for a in ctx.nonzero()}
            ok = all(num == den * weights[a] for a, (num, den) in fractions.items())
            yield i, "dual_weight_formula", ok, None
            if copies == 1:
                # wt(c_i(a)) = num / 4 is half of wt(c_(i-1)(a)) = num / 2 iff 4 divides num
                ok = all(num % 4 == 0 for num, _ in fractions.values())
                yield i, "dual_weight_halving", ok, None

        report = codes_mod.verify_dual_structure(ctx, i)
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
            ok = codes_mod.code_cardinality(ctx, i) == expected_total
            yield i, "distribution_cardinality", ok, "via group-algebra count"

        pless = mo.pless_check(ctx, i, h_max, counts=dist, weights=weights)
        yield i, "pless_identity", all(equal for _, _, equal in pless), None
        seq = mo.moment_sequence(ctx, i, h_max, counts=dist)
        yield i, "moment_recursion", seq == brute[: h_max + 1], None


def cmd_verify(args: SimpleNamespace) -> int:
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
    _render(args, "verify", {"all_passed": all_passed, "results": results}, header, results, lines)
    return 0 if all_passed else MISMATCH_ERROR


# ---------------------------------------------------------------------------
# entry point

# command -> (function, --help text); the dispatch, the parser and --help read it
COMMANDS = {
    "moments": (cmd_moments, "recursive vs brute-force power moments"),
    "weights": (cmd_weights, "code weight distributions"),
    "verify": (cmd_verify, "run the full identity suite"),
}


def _convert(name: str, kind, value: str):
    if isinstance(kind, tuple):
        if value not in kind:
            choices = ", ".join(map(repr, kind))
            raise _UsageError(f"argument --{name}: invalid choice: {value!r} (choose from {choices})")
        return value
    return _ints(name, value, [value])[0] if kind is int else value


def _option(arg: str, known: tuple[str, ...]) -> tuple[str | None, str | None] | None:
    """(name, inline value) of an option argument, the name None if unknown; None for a word.

    A word is a value or the command: no leading dash, "-", a negative
    number (-5, -.5, -5.5), or a string with a space that names no option.
    """
    whole, _, frac = arg[1:].rpartition(".")
    if not arg.startswith("-") or arg == "-" or frac.isdecimal() and (not whole or whole.isdecimal()):
        return None
    if arg[:2] == "-h":  # -h, or -h with an attached value
        return "help", arg[2:] or None
    flag, eq, value = arg.partition("=")
    names = [n for n in known if "--" + n == flag] or [
        n for n in known if flag[:2] == "--" and ("--" + n).startswith(flag)
    ]
    if len(names) > 1:
        raise _UsageError(f"ambiguous option: {flag} could match --{', --'.join(names)}")
    if not names and " " in arg:
        return None
    return (names[0] if names else None), (value if eq else None)


def _parse_args(argv: list[str]) -> SimpleNamespace | None:
    """The command and the value of every option in ``argv``; None for --help.

    The command may come anywhere.  An option is ``--name value`` or
    ``--name=value``, with the name cut to any unique prefix; a repeated
    option keeps its last value, and ``--`` makes every later argument a word.
    """
    values = {name: default for name, default, _, _ in OPTIONS}
    kinds = {name: kind for name, _, kind, _ in OPTIONS}
    known = (*kinds, "help")
    # every option is read before any acts, so an ambiguous one is refused even after --help
    head = argv[: argv.index("--")] if "--" in argv else argv
    options = {arg: _option(arg, known) for arg in head}
    words, unknown, after_word = [], [], False
    args = iter(argv)
    for arg in args:
        option = options.get(arg)
        if arg == "--":
            # the command slot takes a "--" right next to it; any other is a stray word
            words += [arg, *args] if words and not after_word else args
        elif option is None:
            words.append(arg)
        else:
            name, value = option
            if name is None:
                unknown.append(arg)
            elif name == "help":
                if value is not None:
                    raise _UsageError(f"argument -h/--help: ignored explicit argument {value!r}")
                return None
            else:
                if value is None:
                    value = next(args, None)
                    if value in (None, "--") or options[value]:
                        raise _UsageError(f"argument --{name}: expected one argument")
                values[name] = _convert(name, kinds[name], value)
        after_word = option is None
        if words and words[0] not in COMMANDS:
            choices = ", ".join(map(repr, COMMANDS))
            raise _UsageError(f"argument command: invalid choice: {words[0]!r} (choose from {choices})")
    missing = [name for name, given in (("command", words), ("--r", values["r"] is not None)) if not given]
    if missing:
        raise _UsageError("the following arguments are required: " + ", ".join(missing))
    if unknown or words[1:]:
        raise _UsageError("unrecognized arguments: " + " ".join(unknown + words[1:]))
    return SimpleNamespace(command=words[0], **values)


def _help() -> str:
    lines = [
        f"usage: kmoments {{{','.join(COMMANDS)}}} --r R [options]",
        "",
        __doc__.splitlines()[0],
        "Every command accepts every option; --jmax shapes only weights,",
        "and --hmax only moments and verify.",
        "",
        "commands:",
        *(f"  {name:<28}{text}" for name, (_, text) in COMMANDS.items()),
        "",
        "options:",
        f"  {'-h, --help':<28}show this help and exit",
    ]
    for name, default, kind, text in OPTIONS:
        spec = f"--{name} " + ("{" + ",".join(kind) + "}" if isinstance(kind, tuple) else name.upper())
        lines.append(f"  {spec:<28}{text}" + ("" if default is None else f" (default {default})"))
    return "\n".join(lines) + "\n"


def main(argv: list[str] | None = None) -> int:
    try:
        try:
            args = _parse_args(sys.argv[1:] if argv is None else argv)
            if args is None:
                _write(_help(), None)
                return 0
            _build_config(args)
        except ValueError as exc:
            # a ValueError from a command would be a fault, so only set-up's is a usage error
            raise _UsageError(exc) from exc
        return COMMANDS[args.command][0](args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except ArithmeticError as exc:
        # an exact-arithmetic guard failed: the numbers do not check out
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return MISMATCH_ERROR


if __name__ == "__main__":
    sys.exit(main())
