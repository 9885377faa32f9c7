import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

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

    monkeypatch.setattr(kl, "moment_bruteforce", lambda ctx, h, table=None: 12345)
    code, out, _ = run(capsys, "moments", "--r", "3", "--hmax", "1", "--code", "1", "--format", "json")
    assert code == 2
    assert not json.loads(out)["rows"][0]["match"]


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
        cli.mo, "pless_check", lambda ctx, i, h_max, counts=None, words=None: ((0, 1, False),)
    )
    code, out, _ = run(capsys, "verify", "--r", "3", "--code", "3", "--hmax", "2", "--format", "json")
    assert code == 2
    assert json.loads(out)["all_passed"] is False


_WRONG_K_PROBE = """
import sys
from types import MappingProxyType
import kmoments.cli as cli

real = cli.kl.kloosterman_table


def off_by_two(ctx):
    # K(1) moved by 2 is no longer 3 mod 4, so its closed-form weights are fractions
    table = real(ctx)
    values = dict(table.values)
    values[1] += 2
    return cli.kl.KloostermanTable(table.r, table.modulus, MappingProxyType(values))


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

    # moments imports dual_words by name, so pless_check calls it there
    return [
        (kl, "split_quadratic_char_sums"),
        (kl, "irreducible_quadratic_char_sums"),
        (kl, "split_quadratic_char_sum"),
        (kl, "irreducible_quadratic_char_sum"),
        (kl, "kloosterman_sum"),
        (codes, "kloosterman_sum"),
        (codes, "dual_codeword"),
        (codes, "dual_words"),
        (mo, "dual_words"),
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
    code, _, _ = run(capsys, "verify", "--r", "6", "--hmax", "4")
    assert code == 0
    # for all four codes: one split row over the q - 1 = 63 values of a, and
    # one irreducible row per trace-one b (32 of them); no per-a sum
    assert calls["split_quadratic_char_sums"] == 1
    assert calls["irreducible_quadratic_char_sums"] == 32
    assert calls["split_quadratic_char_sum"] == 0
    assert calls["irreducible_quadratic_char_sum"] == 0
    assert calls["kloosterman_sum"] == 0
    assert calls["dual_codeword"] == 0
    # one build per code, shared by dual_weight_formula and pless_check
    assert calls["dual_words"] == 4
    # one distribution per code, shared by the distribution checks, pless_check
    # and moment_sequence; MK^0..MK^4 once for the r, shared by the four codes
    assert built == {"weight_distribution": 4, "moment_bruteforce": 5}


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
    ],
)
def test_usage_errors(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 1
    assert err.startswith("error:")


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
    target = tmp_path / "missing" / "moments.csv"
    code = main(["moments", "--r", "3", "--hmax", "1", "--code", "3", "--out", str(target)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error:") and str(target) in captured.err
    assert len(captured.err.splitlines()) == 1


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
    # dataclasses pulls in inspect, ast, dis and tokenize; json and csv are
    # imported by the renderer only for the format that needs them, and
    # fractions (which loads decimal) by pless_check only
    probe = (
        "import sys\n"
        "import kmoments.cli\n"
        "names = ('dataclasses', 'inspect', 'json', 'csv', 'fractions', 'decimal')\n"
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
