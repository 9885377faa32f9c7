import errno
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import oracles
from kmoments import build_field, cli
from kmoments.cli import main

GOLDEN = Path(__file__).parent / "golden" / "cli"
SRC = Path(__file__).resolve().parent.parent / "src"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- moments ---------------------------------------------------------------------


def test_moments_r3_code1(capsys):
    code, out, _ = run(capsys, "moments", "--r", "3", "--hmax", "3", "--code", "1", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == 1 and doc["command"] == "moments"
    rows = doc["rows"]
    assert [w["mk_recursive"] for w in rows] == [7, 1, 55, -47]
    assert [w["mk_bruteforce"] for w in rows] == [7, 1, 55, -47]
    assert all(w["match"] for w in rows)


def test_moments_modulus_invariance(capsys):
    cols = []
    for modulus in ("0x0B", "0x0D"):  # x^3+x+1 and x^3+x^2+1
        code, out, _ = run(
            capsys, "moments", "--r", "3", "--hmax", "6", "--code", "1",
            "--modulus", modulus, "--format", "json",
        )
        assert code == 0
        cols.append([w["mk_recursive"] for w in json.loads(out)["rows"]])
    assert cols[0] == cols[1]


def test_moments_csv_format(capsys):
    code, out, _ = run(capsys, "moments", "--r", "3", "--hmax", "1", "--code", "2", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "r,modulus,code,h,mk_recursive,mk_bruteforce,match"
    assert lines[1] == "3,0xb,2,0,7,7,true"


def test_moments_mismatch_exit_code(capsys, monkeypatch):
    # force a bogus oracle value to confirm the mismatch path exits 2
    import kmoments.kloosterman as kl

    monkeypatch.setattr(kl, "moment_bruteforce", lambda ctx, h_max, table: (12345,) * (h_max + 1))
    code, out, _ = run(capsys, "moments", "--r", "3", "--hmax", "1", "--code", "1", "--format", "json")
    assert code == 2
    assert not json.loads(out)["rows"][0]["match"]


def test_a_guard_failing_while_fields_are_built_exits_2(capsys, monkeypatch):
    import kmoments.gf2r as gf2r

    # a field product that is always 0: x^2 + x = x takes all 8 values
    monkeypatch.setattr(gf2r.FieldContext, "mul", lambda self, x, y: 0)
    code, out, err = run(capsys, "moments", "--r", "3")
    assert (code, out) == (2, "")
    assert err.splitlines() == [
        "error: ArithmeticError: the image of x^2 + x (8 values) is not the trace-zero set "
        "(4 values): 0x1 is in the image only"
    ]


# -- weights ----------------------------------------------------------------------


def test_weights_r3(capsys):
    code, out, _ = run(capsys, "weights", "--r", "3", "--code", "1,2", "--format", "json")
    assert code == 0
    blocks = json.loads(out)["distributions"]
    assert blocks[0]["counts"] == [1, 0, 3, 0, 3, 0, 1]
    assert blocks[0]["checks"]["palindrome"] is True
    assert blocks[1]["counts"] == [1, 0, 0, 0]
    assert blocks[1]["checks"]["cardinality_ok"] is True


def test_weights_truncated_large_field(capsys):
    code, out, _ = run(capsys, "weights", "--r", "10", "--code", "3", "--jmax", "6", "--format", "json")
    assert code == 0
    blk = json.loads(out)["distributions"][0]
    assert blk["j_max"] == 6 and len(blk["counts"]) == 7
    assert blk["counts"][0] == 1 and blk["counts"][1] == 0


def test_weights_full_refused_large_field(capsys):
    code, _, err = run(capsys, "weights", "--r", "10", "--code", "3")
    assert code == 1
    assert "--jmax" in err


@pytest.mark.parametrize("jmax", [(), ("--jmax", "256"), ("--jmax", "999")])
def test_weights_full_refusal_names_the_length(capsys, jmax):
    # with --jmax at or past N the hint once said "pass --jmax to truncate" all the same
    code, out, err = run(capsys, "weights", "--r", "9", "--code", "4", *jmax)
    assert (code, out) == (1, "")
    assert err == "error: full distribution of code 4 at r=9 is too large (N = 256); pass --jmax below 256\n"


def test_weights_r2_degenerate_code_quiet(capsys, recwarn):
    code, out, err = run(capsys, "weights", "--r", "2", "--code", "1", "--format", "json")
    assert code == 0
    assert err == "" and not recwarn.list
    blk = json.loads(out)["distributions"][0]
    assert blk["counts"] == [1, 0, 1]
    assert blk["checks"]["cardinality_ok"] is True


def test_weights_csv(capsys):
    code, out, _ = run(capsys, "weights", "--r", "3", "--code", "4", "--format", "csv")
    assert code == 0
    assert out.splitlines() == ["r,code,j,count", "3,4,0,1", "3,4,1,0", "3,4,2,0", "3,4,3,1", "3,4,4,0"]


# -- verify -----------------------------------------------------------------------


def test_verify_passes(capsys):
    code, out, _ = run(capsys, "verify", "--r", "3..4", "--hmax", "5", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["all_passed"] is True
    assert all(w["passed"] for w in doc["results"])


def test_verify_r2_kernel_reported_not_failed(capsys):
    code, out, _ = run(capsys, "verify", "--r", "2", "--code", "1", "--hmax", "3", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    kernel = [w for w in doc["results"] if w["check"] == "dual_map_kernel"]
    assert kernel and kernel[0]["passed"] and "kernel" in kernel[0]["note"]


def test_verify_detects_breakage(capsys, monkeypatch):
    import kmoments.cli as cli

    monkeypatch.setattr(
        cli.mo, "pless_check", lambda ctx, i, h_max, counts=None, weights=None: ((0, 1, False),)
    )
    code, out, _ = run(capsys, "verify", "--r", "3", "--code", "3", "--hmax", "2", "--format", "json")
    assert code == 2
    assert json.loads(out)["all_passed"] is False


_WRONG_K_PROBE = """
import sys
import kmoments.cli as cli

real = cli.kl.kloosterman_table


def off_by_two(ctx):
    # K(1) moved by 2 is no longer 3 mod 4, so its closed-form weights are fractions
    table = list(real(ctx))
    table[1] += 2
    return tuple(table)


cli.kl.kloosterman_table = off_by_two
sys.exit(cli.main(["verify", "--r", "4", "--code", "2", "--hmax", "4"]))
"""


@pytest.mark.parametrize("flags", [(), ("-O",)], ids=["asserts", "optimized"])
def test_verify_fails_on_a_wrong_k_value(flags):
    # a wrong K(a) makes a closed form a fraction, which no weight equals:
    # the checks fail whether or not asserts run, and no weight is floored
    src = Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run(
        [sys.executable, *flags, "-c", _WRONG_K_PROBE],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert (done.returncode, done.stderr) == (2, "")
    lines = done.stdout.splitlines()
    assert "r=4 code=2 dual_weight_formula: FAIL" in lines
    assert "r=4 code=2 dual_weight_halving: FAIL" in lines
    assert lines[-1] == "all: FAIL"


@pytest.mark.parametrize("shift", [2, 4])
def test_verify_dual_weight_rows_catch_a_shifted_k(capsys, monkeypatch, shift):
    # K(1) + 2 moves every closed form off its weight and leaves num / 4 a
    # fraction; K(1) + 4 keeps num divisible by 4, so the halving rows pass
    real = cli.kl.kloosterman_table

    def shifted(ctx):
        table = list(real(ctx))
        table[1] += shift
        return tuple(table)

    monkeypatch.setattr(cli.kl, "kloosterman_table", shifted)
    code, out, _ = run(capsys, "verify", "--r", "3..6", "--format", "json")
    assert code == 2
    passed = {(w["r"], w["code"], w["check"]): w["passed"] for w in json.loads(out)["results"]}
    for r in range(3, 7):
        assert not any(passed[r, i, "dual_weight_formula"] for i in (1, 2, 3, 4)), r
        assert all(passed[r, i, "dual_weight_halving"] is (shift == 4) for i in (2, 4)), r


def _count_calls(monkeypatch, targets):
    """Wrap each (module, name) so the returned dict counts its calls by name."""
    calls = {name: 0 for _, name in targets}

    def counting(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    for module, name in targets:
        monkeypatch.setattr(module, name, counting(module, name))
    return calls


def _per_a_targets():
    import kmoments.codes as codes
    import kmoments.kloosterman as kl
    import kmoments.moments as mo

    # moments imports dual_weights by name, so pless_check calls it there
    return [
        (kl, "quadratic_char_sums"),
        (kl, "split_quadratic_char_sum"),
        (kl, "irreducible_quadratic_char_sum"),
        (kl, "kloosterman_sum"),
        (codes, "dual_codeword"),
        (codes, "dual_weights"),
        (mo, "dual_weights"),
    ]


def test_verify_char_sums_once_per_r_and_no_per_a_oracles(capsys, monkeypatch):
    import kmoments.codes as codes
    import kmoments.kloosterman as kl
    import kmoments.moments as mo

    # moments binds weight_distribution by name, so a call from there is seen there
    shared = [
        (codes, "weight_distribution"),
        (mo, "weight_distribution"),
        (kl, "moment_bruteforce"),
    ]
    calls = _count_calls(monkeypatch, _per_a_targets())
    built = _count_calls(monkeypatch, shared)
    seen = []
    counted = kl.quadratic_char_sums
    monkeypatch.setattr(kl, "quadratic_char_sums", lambda ctx, b: seen.append(b) or counted(ctx, b))
    code, _, _ = run(capsys, "verify", "--r", "6", "--hmax", "4")
    assert code == 0
    # for all four codes: one split row (b = 0) over the q - 1 = 63 values of a,
    # and one irreducible row per trace-one b (32 of them); no per-a sum
    assert calls["quadratic_char_sums"] == 33
    ctx = build_field(6)
    assert seen.count(0) == 1
    assert sorted(b for b in seen if b) == [b for b in ctx.elements() if ctx.trace_table[b] == 1]
    assert calls["split_quadratic_char_sum"] == 0
    assert calls["irreducible_quadratic_char_sum"] == 0
    assert calls["kloosterman_sum"] == 0
    assert calls["dual_codeword"] == 0
    # one build per code, shared by dual_weight_formula and pless_check
    assert calls["dual_weights"] == 4
    # one distribution per code, shared by the distribution checks, pless_check
    # and moment_sequence; the column MK^0..MK^4 once for the r, shared by the four codes
    assert built == {"weight_distribution": 4, "moment_bruteforce": 1}


def test_moments_brute_force_column_once_per_r(capsys, monkeypatch):
    import kmoments.kloosterman as kl

    # the column MK^0..MK^4 at r = 5, in one call shared by the four codes
    calls = _count_calls(monkeypatch, [(kl, "moment_bruteforce")])
    code, _, _ = run(capsys, "moments", "--r", "5", "--hmax", "4")
    assert code == 0
    assert calls == {"moment_bruteforce": 1}


def test_verify_builds_no_kernel_basis(capsys, monkeypatch):
    import kmoments.codes as codes

    # the dual-structure report works from ranks, and r = 7 is past the enumeration
    calls = _count_calls(monkeypatch, [(codes, "kernel_basis")])
    code, _, _ = run(capsys, "verify", "--r", "7", "--hmax", "4")
    assert code == 0
    assert calls["kernel_basis"] == 0


@pytest.mark.parametrize(
    "argv",
    [("moments", "--r", "3..6", "--hmax", "4"), ("weights", "--r", "2..6")],
)
def test_moments_and_weights_build_no_dual_word_or_char_sum(capsys, monkeypatch, argv):
    calls = _count_calls(monkeypatch, _per_a_targets())
    assert run(capsys, *argv)[0] == 0
    assert all(count == 0 for count in calls.values()), calls


# -- usage errors -------------------------------------------------------------------

# values no option reader takes, which the error names with their option; the
# integer options take ASCII digits after an optional "-" only, where int()
# would also read non-ASCII digits, a "+", a "_" or surrounding spaces
_UNREADABLE = [
    ("moments", "--r", ""),
    ("moments", "--r", "3.."),
    ("moments", "--r", "3..4..5"),
    ("moments", "--r", "3", "--code", "1,,2"),
    ("moments", "--r", "3", "--code", "x"),
    ("moments", "--r", "3", "--modulus", ""),
    ("moments", "--r", "3", "--modulus", "0xZZ"),
    ("moments", "--r", "3", "--modulus", "0b102"),
    ("moments", "--r", "3", "--modulus", "x^3+y"),
    ("moments", "--r", "3", "--b", ""),
    ("moments", "--r", "3", "--b", "x^a"),
    ("moments", "--r", "3", "--b", "1e3"),
    ("moments", "--r", "3", "--modulus", "x^3+x^2+x^2+x+1"),
    ("moments", "--r", "3", "--modulus", "x^3+x+1+1"),
    ("moments", "--r", "4", "--modulus", "0x1_3"),
    ("moments", "--r", "3", "--modulus", "1\u0663"),
    ("moments", "--r", "3", "--b", "x^\u0663"),
    ("moments", "--r", "\u0663"),
    ("moments", "--r", "\uff13"),
    ("moments", "--r", "1_1"),
    ("moments", "--r", "+3"),
    ("moments", "--r", "3.. 4"),
    ("moments", "--r", "3", "--code", " 4"),
    ("moments", "--r", "3", "--hmax", "\u0661"),
    ("weights", "--r", "3", "--jmax", "0_1"),
]


@pytest.mark.parametrize(
    "argv",
    [
        ("moments", "--r", "0"),
        ("moments", "--r", "3..18"),
        ("moments", "--r", "5..3"),
        ("verify", "--r", "3", "--code", "5"),
        ("moments", "--r", "3", "--hmax", "33"),
        ("moments", "--r", "3", "--modulus", "0x0C"),
        ("moments", "--r", "3..4", "--modulus", "0x0B"),
        ("moments", "--r", "3", "--b", "0x2"),
        ("weights", "--r", "3", "--jmax", "-2"),
        ("verify", "--r", "13"),
        *_UNREADABLE,
    ],
)
def test_usage_errors(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 1
    assert err.startswith("error:")
    if argv in _UNREADABLE:
        assert err == f"error: argument {argv[-2]}: invalid value: {argv[-1]!r}\n"


@pytest.mark.parametrize("i", ["0", "5", "1,5"])
def test_bad_code_index_message(capsys, i):
    code, _, err = run(capsys, "verify", "--r", "3", "--code", i)
    assert code == 1
    assert err == f"error: code index must be one of (1, 2, 3, 4), got {i[-1]}\n"


@pytest.mark.parametrize("flag", ["--b", "--modulus"])
def test_out_of_range_polynomial_is_one_short_line(capsys, flag):
    # the exponent is refused before any shift, and the message does not
    # spell out a million-term polynomial
    code, out, err = run(capsys, "moments", "--r", "3", flag, "x^1000000")
    assert (code, out) == (1, "")
    assert err == f"error: argument {flag}: polynomial exponents must be within 0..16 (gf2r.MAX_DEGREE)\n"


def test_unknown_flag_is_usage_error(capsys):
    assert run(capsys, "moments", "--r", "3", "--frobnicate")[0] == 1


@pytest.mark.parametrize(
    "argv", [(), ("frobnicate", "--r", "3"), ("--r", "3"), ("moments",)]
)
def test_missing_or_unknown_command_is_one_line_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith("error:") and len(err.splitlines()) == 1


def test_help_names_every_command():
    code, out, err = run_process("--help")
    assert (code, err) == (0, "")
    assert all(name in out.decode() for name in ("moments", "weights", "verify"))


@pytest.mark.parametrize("argv", [("-h",), ("verify", "--r", "3", "--he"), ("--frob", "--help")])
def test_help_lists_every_command_and_option(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert all(f"  {name} " in out for name in ("moments", "weights", "verify"))
    assert all(f"  --{name} " in out for name in ("r", "modulus", "b", "hmax", "code", "jmax", "format", "out"))


# -- the option parser against argparse ----------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        ("moments", "--r", "3"),
        ("--r", "3", "--hmax", "4", "verify"),
        ("--code", "1", "weights", "--r", "3..5", "--format", "csv"),
        ("moments", "--r=3", "--format=json", "--jmax=-2", "--out=-", "--modulus=x^3+x+1"),
        ("verify", "--r", "3", "--hm", "4", "--fo", "json", "--c", "2", "--j", "3", "--mod", "0x0B", "--o", "x.csv"),
        ("moments", "--r", "3", "--r", "4", "--hmax", "1", "--hmax=2", "--format", "csv", "--format", "json"),
        ("weights", "--r", "3", "--jmax", "-2"),
        ("verify", "--r", "3..5"),
        ("--r", "3", "--", "moments"),
        ("moments", "--r", "-3", "--out", "a b", "--b", "0x2"),
    ],
    ids=[
        "plain",
        "options_first",
        "command_between",
        "equals",
        "abbreviations",
        "repeated",
        "negative",
        "range",
        "end_of_options",
        "odd_values",
    ],
)
def test_parser_agrees_with_argparse(argv):
    expected = vars(oracles.argparse_parser().parse_args(list(argv)))
    assert vars(cli._parse_args(list(argv))) == expected


@pytest.mark.parametrize(
    "argv",
    [
        (),
        ("--r", "3"),
        ("frobnicate", "--r", "3"),
        ("moments",),
        ("moments", "--hmax", "3"),
        ("moments", "--r", "3", "--frobnicate"),
        ("moments", "--r", "3", "-x"),
        ("moments", "--r"),
        ("moments", "--r", "--hmax", "3"),
        ("moments", "--r", "3", "--h", "3"),
        ("moments", "--r", "3", "--hmax", "x"),
        ("moments", "--r", "3", "--format", "xml"),
        ("moments", "verify", "--r", "3"),
        ("moments", "--r", "3", "--help=1"),
        ("moments", "--r", "3", "--"),
        ("moments", "--r", "-3..5"),
    ],
    ids=[
        "nothing",
        "no_command",
        "unknown_command",
        "no_r",
        "no_r_with_options",
        "unknown_flag",
        "unknown_short_flag",
        "missing_value_at_end",
        "missing_value",
        "ambiguous_prefix",
        "hmax_not_int",
        "format_xml",
        "two_commands",
        "help_with_value",
        "stray_end_of_options",
        "range_with_leading_dash",
    ],
)
def test_parser_rejects_what_argparse_rejects(capsys, argv):
    with pytest.raises(oracles.ArgparseUsageError):
        oracles.argparse_parser().parse_args(list(argv))
    with pytest.raises(cli._UsageError):
        cli._parse_args(list(argv))
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith("error:") and len(err.splitlines()) == 1


# -- determinism and --out -----------------------------------------------------------


def test_output_byte_identical(capsys, tmp_path):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for p in paths:
        code = main(["verify", "--r", "3", "--hmax", "4", "--format", "json", "--out", str(p)])
        assert code == 0
        capsys.readouterr()
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_out_writes_file(capsys, tmp_path):
    target = tmp_path / "moments.csv"
    code = main(["moments", "--r", "3", "--hmax", "2", "--code", "3", "--format", "csv", "--out", str(target)])
    assert code == 0
    assert capsys.readouterr().out == ""
    assert target.read_text().startswith("r,modulus,code,h,")


def test_out_missing_directory_is_usage_error(capsys, tmp_path):
    # an empty --out names no file: refused like any path that cannot be written
    missing = str(tmp_path / "missing" / "moments.csv")
    for out, target in ((("--out", missing), missing), (("--out", ""), ""), (("--out=",), "")):
        code = main(["moments", "--r", "3", "--hmax", "1", "--code", "3", *out])
        captured = capsys.readouterr()
        assert code == 1, out
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot write {target!r}: ")
        assert len(captured.err.splitlines()) == 1


def _run_into(stdout, *argv, unbuffered=False):
    """Run ``python -m kmoments.cli argv`` writing to ``stdout``: (exit code, stderr text)."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    done = subprocess.run(
        [sys.executable, "-m", "kmoments.cli", *argv],
        env=env,
        stdout=stdout,
        stderr=subprocess.PIPE,
        timeout=60,
    )
    return done.returncode, done.stderr.decode()


# a command's output, then --help and -h, each buffered and unbuffered;
# the ids of the command runs are [False] and [True]
_STDOUT_RUNS = pytest.mark.parametrize(
    "argv, unbuffered",
    [
        pytest.param(argv, unbuffered, id=f"{prefix}{unbuffered}")
        for prefix, argv in (("", ("verify", "--r", "3")), ("--help-", ("--help",)), ("-h-", ("-h",)))
        for unbuffered in (False, True)
    ],
)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
@_STDOUT_RUNS
def test_full_stdout_is_one_line(argv, unbuffered):
    # buffered, the write lands in the buffer and only the flush fails
    with open("/dev/full", "wb") as full:
        code, err = _run_into(full, *argv, unbuffered=unbuffered)
    assert (code, err) == (1, f"error: cannot write to stdout: {os.strerror(errno.ENOSPC)}\n")


@_STDOUT_RUNS
def test_closed_pipe_stdout_is_one_line(argv, unbuffered):
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        code, err = _run_into(write_end, *argv, unbuffered=unbuffered)
    finally:
        os.close(write_end)
    assert (code, err) == (1, f"error: cannot write to stdout: {os.strerror(errno.EPIPE)}\n")


# -- golden outputs ------------------------------------------------------------------


GOLDEN_FORMATS = pytest.mark.parametrize(
    "fmt, ext", [("json", "json"), ("csv", "csv"), ("pretty", "txt")]
)
GOLDEN_CASES = pytest.mark.parametrize(
    "name, argv",
    [
        ("moments", ("moments", "--r", "3..4", "--hmax", "4")),
        ("weights", ("weights", "--r", "2..4")),
        ("verify", ("verify", "--r", "2..4", "--hmax", "4")),
        # past r = 4: the dual-word scans at r >= 5, the sampled b values
        # of irreducible_char_sum at r = 7, 8 and a non-canonical field
        ("verify_r5_9", ("verify", "--r", "5..9", "--hmax", "10")),
        ("verify_r7_modulus", ("verify", "--r", "7", "--modulus", "0x9d", "--b", "0x2b")),
        # --code order and de-duplication, codes 1 and 2 from r = 3, --jmax truncation
        ("moments_codes", ("moments", "--r", "3..5", "--code", "4,1", "--hmax", "6")),
        ("weights_codes", ("weights", "--r", "3..4", "--code", "3,1,3", "--jmax", "5")),
        # below r = 3: codes 1 and 2 skipped at r = 1, where they are empty,
        # run at r = 2 with their 2-to-1 dual map, and no kloosterman_mod4 row at r = 1
        ("moments_r1_3", ("moments", "--r", "1..3", "--hmax", "3")),
        ("weights_r1", ("weights", "--r", "1")),
        ("verify_r1", ("verify", "--r", "1", "--hmax", "3")),
        # above both digest limits, up to MAX_R: no character-sum, dual-weight or distribution row
        ("verify_r10_12", ("verify", "--r", "10..12", "--hmax", "10")),
    ],
)


def run_process(*argv, flags=()):
    """Run ``python [flags] -m kmoments.cli argv``: (exit code, stdout bytes, stderr text)."""
    done = subprocess.run(
        [sys.executable, *flags, "-m", "kmoments.cli", *argv],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        timeout=60,
    )
    return done.returncode, done.stdout, done.stderr.decode()


@GOLDEN_FORMATS
@GOLDEN_CASES
def test_golden_output(capsys, name, argv, fmt, ext):
    code, out, err = run(capsys, *argv, "--format", fmt)
    assert (code, err) == (0, "")
    assert out.encode() == (GOLDEN / f"{name}.{ext}").read_bytes()


@GOLDEN_FORMATS
@GOLDEN_CASES
def test_golden_output_optimized(name, argv, fmt, ext):
    # python -O drops every assert; no output may depend on one
    code, out, err = run_process(*argv, "--format", fmt, flags=("-O",))
    assert (code, err) == (0, "")
    assert out == (GOLDEN / f"{name}.{ext}").read_bytes()


# -- runtime dependencies ------------------------------------------------------------


def test_cli_imports_only_the_standard_library():
    # numpy and friends may be installed; the package must not load them
    probe = (
        "import json, sys\n"
        "before = set(sys.modules)\n"
        "import kmoments.cli\n"
        "print(json.dumps(sorted(set(sys.modules) - before)))\n"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    loaded = json.loads(done.stdout)
    assert "kmoments.kloosterman" in loaded
    foreign = [
        m for m in loaded
        if m.split(".")[0] not in sys.stdlib_module_names and m.split(".")[0] != "kmoments"
    ]
    assert foreign == []


def test_cli_import_loads_no_dataclasses_json_or_csv():
    # dataclasses pulls in inspect, ast, dis and tokenize, and argparse pulls
    # in gettext and locale; json and csv are imported by the renderer only
    # for the format that needs them, and nothing imports fractions (decimal)
    probe = (
        "import sys\n"
        "import kmoments.cli\n"
        "names = ('dataclasses', 'inspect', 'json', 'csv', 'argparse', 'gettext', 'locale', 'fractions', 'decimal')\n"
        "print(*[m for m in names if m in sys.modules])\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert (done.returncode, done.stderr, done.stdout) == (0, "", "\n")
    # json is still there when a run renders it
    code, out, err = run_process("verify", "--r", "2..4", "--hmax", "4", "--format", "json")
    assert (code, err) == (0, "")
    assert out == (GOLDEN / "verify.json").read_bytes()


@pytest.mark.parametrize(
    "argv",
    [("verify", "--r", "3..9", "--hmax", "10"), ("moments", "--r", "3", "--format", "csv")],
    ids=["verify", "moments_csv"],
)
def test_cli_run_loads_no_argparse_or_fractions(argv):
    # the option table replaces argparse, and the Pless right side is an int
    probe = (
        "import sys\n"
        "import kmoments.cli\n"
        f"code = kmoments.cli.main({list(argv)!r})\n"
        "names = ('argparse', 'gettext', 'locale', 'fractions', 'decimal')\n"
        "print(code, *[m for m in names if m in sys.modules], file=sys.stderr)\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert (done.returncode, done.stderr) == (0, "0\n")
    assert done.stdout
