"""Batch front-end: moment tables, weight distributions, verification runs.

Commands
--------
The command may stand anywhere among the options.  Every command accepts
every option; --jmax shapes only weights, and --hmax only moments and
verify.  Each option is declared once, in ``OPTIONS``, and each command
in ``COMMANDS``; the parser and ``--help`` read both.  Each command is a
module of its own (``moments_cmd``, ``weights_cmd``, ``verify``) that only
its own run compiles; it reads the checked values and returns what it
found, and ``main`` renders it and picks the exit status.

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

import gc
import math
import os
import sys
from types import SimpleNamespace

from . import codes as codes_mod
from .gf2r import build_field, parse_poly

__all__ = ["main"]

USAGE_ERROR = 1
MISMATCH_ERROR = 2

SCHEMA_VERSION = 1

# Cost model: every work limit of a run, the largest value it allows, and why.
# README.md shows it as a table; enumeration reads codes.ENUMERATION_BUDGET.
MAX_R = 12  # --r, every subcommand: past 12 no check independent of the K table yet
MAX_HMAX = 32  # --hmax: not a cost (O(h^2) exact terms); the orders the tests check by brute force
FULL_DISTRIBUTION_MAX_R = 8  # weights reaching weight N: not a cost, --jmax N - 1 prints almost as much


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
    # a weights run that would reach weight N past FULL_DISTRIBUTION_MAX_R, or print a count
    # past the digits Python converts to str (none if 0, or before 3.10.7)
    digits = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    for ctx in args.contexts.values() if args.command == "weights" else ():
        for i in args.code:
            n = codes_mod.code_length(ctx, i)
            if n and ctx.r > FULL_DISTRIBUTION_MAX_R and (args.jmax is None or args.jmax >= n):
                too_large = f"full distribution of code {i} at r={ctx.r} is too large (N = {n})"
                raise ValueError(f"{too_large}; pass --jmax below {n}")
            # C_j <= C(N, j) <= C(N, top) for j <= jmax, and every C(N, j) < 2^N
            top = min(n // 2, n if args.jmax is None else args.jmax)
            if digits and n * math.log10(2) >= digits and math.comb(n, top) >= 10**digits:
                too_long = f"weight counts of code {i} at r={ctx.r} may pass {digits} digits (N = {n})"
                raise ValueError(f"{too_long}, the most Python prints of an int; pass a smaller --jmax")


def _csv_cell(value):
    return str(value).lower() if isinstance(value, bool) else value


def _render(
    args: SimpleNamespace, payload: dict, header: list[str], rows: list[dict], lines: list[str]
) -> None:
    """Write the output of the command ``args.command`` in the format ``args.format`` names.

    json is the payload under the schema and command keys; csv is the
    header, then the values of each row dict in key order (None as an
    empty cell, booleans in lower case); pretty is the lines.  json and
    csv are imported here, by the one run that writes them.
    """
    if args.format == "json":
        import json

        doc = {"schema": SCHEMA_VERSION, "command": args.command, **payload}
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
# entry point

# command -> (its module, --help text); the dispatch, the parser and --help read it.  Only a
# run of the command compiles its module, whose run(args) writes nothing: it returns (payload,
# header, rows, lines, ok), the json payload, the csv header and rows, the pretty lines and
# whether every check held, and main renders it
COMMANDS = {
    "moments": ("moments_cmd", "recursive vs brute-force power moments"),
    "weights": ("weights_cmd", "code weight distributions"),
    "verify": ("verify", "run the full identity suite"),
}

# the first line of --help; not read from __doc__, which python -OO drops
SUMMARY = "Batch front-end: moment tables, weight distributions, verification runs."


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


def main(argv: list[str] | None = None) -> int:
    try:
        try:
            args = _parse_args(sys.argv[1:] if argv is None else argv)
            if args is None:
                from .usage import help_text

                _write(help_text(SUMMARY, COMMANDS, OPTIONS), None)
                return 0
            _build_config(args)
        except ValueError as exc:
            # a ValueError from a command would be a fault, so only set-up's is a usage error
            raise _UsageError(exc) from exc
        # the import statement's own hook, which -X importtime logs (importlib.import_module is not)
        command = __import__(f"{__package__}.{COMMANDS[args.command][0]}", fromlist=["run"])
        payload, header, rows, lines, ok = command.run(args)
        if not rows:
            raise _UsageError("no (r, code) combination selected is admissible")
        _render(args, payload, header, rows, lines)
        return 0 if ok else MISMATCH_ERROR
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except ArithmeticError as exc:
        # an exact-arithmetic guard failed: the numbers do not check out
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return MISMATCH_ERROR


def entry() -> None:
    """The process entry, ``python -m kmoments.cli`` or the ``kmoments`` command.

    It runs ``main``, then freezes the heap before exiting with its status,
    so the interpreter's shutdown collections skip every object still alive.
    ``main`` itself never freezes: in a longer-lived process a freeze would
    pin every later garbage cycle.
    """
    status = main()
    gc.freeze()
    sys.exit(status)


if __name__ == "__main__":
    entry()
