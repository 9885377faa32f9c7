"""The CLI's cost model: the run limits in one block at the top of cli,
verify's two row scopes in one block at the top of verify, and the README
table of both.

Each limit is probed by the run it bounds: inside at its value, outside
one above, and outside at its value once the constant is lowered by one
in the module that holds it, so a literal left in a function body in
place of the name fails here.  verify's limits are probed by every row
that ``verify.ROWS`` bounds by them, and the README names those rows.
"""

import json
import re
from pathlib import Path

import pytest

import kmoments.cli as cli
from kmoments import codes, gf2r, verify
from kmoments import moments as mo

README = Path(__file__).resolve().parent.parent / "README.md"

NOT_LIMITS = {"USAGE_ERROR", "MISMATCH_ERROR", "SCHEMA_VERSION"}


# module -> the comment that opens its block of limits
BLOCKS = {cli: "# Cost model", verify: "# Row scopes"}


def _block(module) -> dict[str, int]:
    """The constants under the module's opening comment in BLOCKS, up to the next blank line."""
    lines = Path(module.__file__).read_text().splitlines()
    start = next(k for k, line in enumerate(lines) if line.startswith(BLOCKS[module]))
    block = {}
    for line in lines[start:]:
        if not line:
            break
        if line.startswith("#"):
            continue
        # each limit carries its reason as a comment on the same line
        m = re.fullmatch(r"([A-Z_]+) = (\d+)  # \S.*", line)
        assert m, line
        block[m[1]] = int(m[2])
    return block


def _readme_rows() -> list[tuple[str, int, str]]:
    """(limit, value, bounds cell) of each row of the README's cost table."""
    text = README.read_text()
    section = text.split("## Cost limits", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"^\| `([\w.]+)` \| (\d+) \| ([^|]*) \|", section, flags=re.M)


def _run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _accepted(capsys, *argv) -> bool:
    code, _, err = _run(capsys, *argv)
    if code:
        assert code == 1 and err.startswith("error:") and len(err.splitlines()) == 1, err
    return code == 0


def _verify_rows(capsys, r: int, *codes: str, h_max: int = 2) -> dict[str, str | None]:
    """Each row name of ``verify --r r --hmax h_max`` over ``codes`` (default: all) -> its note."""
    code = ("--code", ",".join(codes)) if codes else ()
    status, out, err = _run(capsys, "verify", "--r", str(r), *code, "--hmax", str(h_max), "--format", "json")
    assert status == 0, err
    return {w["check"]: w["note"] for w in json.loads(out)["results"] if w["code"] is not None}


def _full_distribution(capsys, r):
    # code 4 has N = q/2: with no --jmax, --jmax N or --jmax past N the run reaches
    # weight N, and all three are accepted or all three refused
    accepted = set()
    for jmax in ((), ("--jmax", str(2 ** (r - 1))), ("--jmax", "100000")):
        code, _, err = _run(capsys, "weights", "--r", str(r), "--code", "4", *jmax)
        assert code == 0 or "--jmax" in err, err
        accepted.add(code == 0)
    assert len(accepted) == 1, r
    return accepted.pop()


def _all_b(capsys, r):
    note = _verify_rows(capsys, r, "3")["irreducible_char_sum"]
    assert note in (None, f"sampled 2 of {2 ** (r - 1)} b values"), note
    return note is None


def _pless_orders(capsys, monkeypatch, h_max):
    seen = []
    real = mo.pless_check

    def recording(ctx, i, weights, sums):
        seen.append(len(sums) - 1)
        return real(ctx, i, weights, sums)

    monkeypatch.setattr(mo, "pless_check", recording)
    _verify_rows(capsys, 3, "3", h_max=h_max)
    return seen == [h_max]


# limit -> probe(capsys, monkeypatch, x): whether the run it bounds, at x, is inside the limit;
# verify's rows are probed from verify.ROWS below
PROBES = {
    "MAX_R": lambda capsys, mp, r: _accepted(capsys, "moments", "--r", str(r), "--code", "4", "--hmax", "1"),
    "MAX_HMAX": lambda capsys, mp, h: _accepted(capsys, "moments", "--r", "3", "--code", "3", "--hmax", str(h)),
    "FULL_DISTRIBUTION_MAX_R": lambda capsys, mp, r: _full_distribution(capsys, r),
    # the note "sampled 2 of ... b values", which the seed-0 digests hold at r = 7, 8
    "DIGEST_FULL_ROWS_MAX_R": lambda capsys, mp, r: _all_b(capsys, r),
}

# the rows that a verify limit bounds, each probed at the limit's value; at r = 6 no code has
# distribution_vs_enumeration (N - r >= 25 > codes.ENUMERATION_BUDGET), so its limit is set to 5
LIMITED_ROWS = [row for row in verify.ROWS if row.limit]
PROBE_R = {"distribution_vs_enumeration": 5}


def test_every_limit_is_in_the_block_and_probed():
    for module, not_limits in ((cli, NOT_LIMITS), (verify, set())):
        ints = {name for name, value in vars(module).items() if name.isupper() and type(value) is int}
        block = _block(module)
        assert ints - set(block) == not_limits, module
        assert all(getattr(module, name) == value for name, value in block.items())
    assert {*PROBES, *(row.limit for row in LIMITED_ROWS)} == {*_block(cli), *_block(verify)}
    assert {row.limit for row in LIMITED_ROWS} == set(_block(verify))


@pytest.mark.parametrize("name", sorted(PROBES))
def test_limit_bounds_its_run(name, capsys, monkeypatch):
    probe = PROBES[name]
    (module,) = [module for module in BLOCKS if name in _block(module)]
    limit = getattr(module, name)
    assert probe(capsys, monkeypatch, limit)
    assert not probe(capsys, monkeypatch, limit + 1)
    monkeypatch.setattr(module, name, limit - 1)
    assert not probe(capsys, monkeypatch, limit)


@pytest.mark.parametrize("row", LIMITED_ROWS, ids=lambda row: row.name)
def test_row_stops_at_its_limit(row, capsys, monkeypatch):
    at = PROBE_R.get(row.name, getattr(verify, row.limit))
    monkeypatch.setattr(verify, row.limit, at)
    assert row.name in _verify_rows(capsys, at)
    assert row.name not in _verify_rows(capsys, at + 1)
    monkeypatch.setattr(verify, row.limit, at - 1)
    assert row.name not in _verify_rows(capsys, at)


def test_verify_checks_pless_to_hmax(capsys, monkeypatch):
    # pless_identity covers every order --hmax asks for, as moment_recursion does
    assert _pless_orders(capsys, monkeypatch, 12)


def test_enumeration_reads_the_library_budget(capsys, monkeypatch):
    # code 2 at r = 5 has N - r = 15 - 5 = 10 free coordinates
    monkeypatch.setattr(codes, "ENUMERATION_BUDGET", 10)
    assert "distribution_vs_enumeration" in _verify_rows(capsys, 5, "2")
    monkeypatch.setattr(codes, "ENUMERATION_BUDGET", 9)
    assert "distribution_vs_enumeration" not in _verify_rows(capsys, 5, "2")


def test_weights_refuse_counts_past_the_int_str_limit_in_set_up(capsys, monkeypatch):
    # past MAX_R: at r = 14 the middle counts of code 3 (N = 16384) have about 4900 digits,
    # past Python's default 4300, and str() of one would end the run in a traceback
    monkeypatch.setattr(cli, "MAX_R", 14)
    real, calls = codes.weight_distribution, []

    def recording(ctx, i, j_max=None):
        calls.append((ctx.r, i, j_max))
        return real(ctx, i, j_max)

    monkeypatch.setattr(codes, "weight_distribution", recording)
    code, out, err = _run(capsys, "weights", "--r", "14", "--code", "3", "--jmax", "16383")
    assert (code, out, calls) == (1, "", [])
    assert err.startswith("error: weight counts of code 3 at r=14 may pass") and len(err.splitlines()) == 1
    code, out, err = _run(capsys, "weights", "--r", "14", "--code", "3", "--jmax", "12", "--format", "csv")
    assert (code, err, calls) == (0, "", [(14, 3, 12)])
    assert len(out.splitlines()) == 14


def test_readme_cost_table_matches_the_code():
    expected = {
        **_block(cli),
        **_block(verify),
        "codes.ENUMERATION_BUDGET": codes.ENUMERATION_BUDGET,
        "gf2r.MAX_DEGREE": gf2r.MAX_DEGREE,
    }
    rows = [(name, int(value)) for name, value, _ in _readme_rows()]
    assert sorted(rows) == sorted(expected.items())


def test_readme_names_the_rows_of_each_verify_limit():
    # in a verify limit's bounds cell, a lowercase name in backticks is a row of verify.ROWS,
    # and every row that the limit bounds is one of them
    for limit, _, cell in _readme_rows():
        if limit in _block(verify):
            named = set(re.findall(r"`([a-z_0-9]+)`", cell))
            assert named - {row.name for row in verify.ROWS} == set(), limit
            assert {row.name for row in LIMITED_ROWS if row.limit == limit} - named == set(), limit
