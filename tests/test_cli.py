import json
from pathlib import Path

import pytest

from kmoments.cli import main

GOLDEN = Path(__file__).parent / "golden" / "cli"


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

    monkeypatch.setattr(cli.mo, "pless_check", lambda ctx, i, h_max: ((0, 1, False),))
    code, out, _ = run(capsys, "verify", "--r", "3", "--code", "3", "--hmax", "2", "--format", "json")
    assert code == 2
    assert json.loads(out)["all_passed"] is False


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


@pytest.mark.parametrize("fmt, ext", [("json", "json"), ("csv", "csv"), ("pretty", "txt")])
@pytest.mark.parametrize(
    "name, argv",
    [
        ("moments", ("moments", "--r", "3..4", "--hmax", "4")),
        ("weights", ("weights", "--r", "2..4")),
        ("verify", ("verify", "--r", "2..4", "--hmax", "4")),
    ],
)
def test_golden_output(capsys, name, argv, fmt, ext):
    code, out, err = run(capsys, *argv, "--format", fmt)
    assert (code, err) == (0, "")
    assert out.encode() == (GOLDEN / f"{name}.{ext}").read_bytes()
