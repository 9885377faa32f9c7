"""The CLI's cost model: one block of limits in cli, and the README table of it.

Each limit is probed by the run it bounds: inside at its value, outside
one above, and outside at its value once the constant is lowered by one,
so a literal left in a function body in place of the name fails here.
"""

import json
import re
from pathlib import Path

import pytest

import kmoments.cli as cli
from kmoments import codes, gf2r

README = Path(__file__).resolve().parent.parent / "README.md"

NOT_LIMITS = {"USAGE_ERROR", "MISMATCH_ERROR", "SCHEMA_VERSION"}


def _cli_block() -> dict[str, int]:
    """The constants under the "# Cost model" comment, up to the next blank line."""
    lines = Path(cli.__file__).read_text().splitlines()
    start = next(k for k, line in enumerate(lines) if line.startswith("# Cost model"))
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


def _readme_rows() -> list[tuple[str, int]]:
    text = README.read_text()
    section = text.split("## Cost limits", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"^\| `([\w.]+)` \| (\d+) \|", section, flags=re.M)


def _run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _accepted(capsys, *argv) -> bool:
    code, _, err = _run(capsys, *argv)
    if code:
        assert code == 1 and err.startswith("error:") and len(err.splitlines()) == 1, err
    return code == 0


def _verify_rows(capsys, r: int, code: int = 3, h_max: int = 2) -> dict[str, str | None]:
    status, out, err = _run(
        capsys, "verify", "--r", str(r), "--code", str(code), "--hmax", str(h_max),
        "--format", "json",
    )
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
    note = _verify_rows(capsys, r)["irreducible_char_sum"]
    assert note in (None, f"sampled 2 of {2 ** (r - 1)} b values"), note
    return note is None


def _pless_orders(capsys, monkeypatch, h_max):
    seen = []
    real = cli.mo.pless_check

    def recording(ctx, i, h, counts=None, weights=None):
        seen.append(h)
        return real(ctx, i, h, counts=counts, weights=weights)

    monkeypatch.setattr(cli.mo, "pless_check", recording)
    _verify_rows(capsys, 3, h_max=h_max)
    return seen == [h_max]


# case -> probe(capsys, monkeypatch, x): whether the run it bounds, at x, is inside the
# limit; a case is named after its limit, unless LIMIT_OF names another
PROBES = {
    "MAX_R": lambda capsys, mp, r: _accepted(
        capsys, "moments", "--r", str(r), "--code", "4", "--hmax", "1"
    ),
    "MAX_HMAX": lambda capsys, mp, h: _accepted(
        capsys, "moments", "--r", "3", "--code", "3", "--hmax", str(h)
    ),
    "FULL_DISTRIBUTION_MAX_R": lambda capsys, mp, r: _full_distribution(capsys, r),
    "CHAR_SUM_MAX_R": lambda capsys, mp, r: "split_char_sum" in _verify_rows(capsys, r),
    "ALL_B_MAX_R": lambda capsys, mp, r: _all_b(capsys, r),
    "VERIFY_DISTRIBUTION_MAX_R": lambda capsys, mp, r: (
        "distribution_palindrome" in _verify_rows(capsys, r)
    ),
    "DUAL_WEIGHT_MAX_R": lambda capsys, mp, r: "dual_weight_formula" in _verify_rows(capsys, r),
    "CARDINALITY_MAX_R": lambda capsys, mp, r: (
        "distribution_cardinality" in _verify_rows(capsys, r)
    ),
}

# verify's two digest limits each hold back the rows of several limits they replaced;
# each row keeps its case under the name of the limit it had
LIMIT_OF = {
    "CHAR_SUM_MAX_R": "DIGEST_ROWS_MAX_R",
    "DUAL_WEIGHT_MAX_R": "DIGEST_ROWS_MAX_R",
    "CARDINALITY_MAX_R": "DIGEST_ROWS_MAX_R",
    "ALL_B_MAX_R": "DIGEST_FULL_ROWS_MAX_R",
    "VERIFY_DISTRIBUTION_MAX_R": "DIGEST_FULL_ROWS_MAX_R",
}


def _limit(case: str) -> str:
    return LIMIT_OF.get(case, case)


def test_every_limit_is_in_the_block_and_probed():
    ints = {name for name, value in vars(cli).items() if name.isupper() and type(value) is int}
    block = _cli_block()
    assert ints - set(block) == NOT_LIMITS
    assert {_limit(case) for case in PROBES} == set(block)
    assert all(getattr(cli, name) == value for name, value in block.items())


@pytest.mark.parametrize("case", sorted(PROBES))
def test_limit_bounds_its_run(case, capsys, monkeypatch):
    probe, name = PROBES[case], _limit(case)
    limit = getattr(cli, name)
    assert probe(capsys, monkeypatch, limit)
    assert not probe(capsys, monkeypatch, limit + 1)
    monkeypatch.setattr(cli, name, limit - 1)
    assert not probe(capsys, monkeypatch, limit)


def test_verify_checks_pless_to_hmax(capsys, monkeypatch):
    # pless_identity covers every order --hmax asks for, as moment_recursion does
    assert _pless_orders(capsys, monkeypatch, 12)


def test_enumeration_reads_the_library_budget(capsys, monkeypatch):
    # code 2 at r = 5 has N - r = 15 - 5 = 10 free coordinates
    monkeypatch.setattr(codes, "ENUMERATION_BUDGET", 10)
    assert "distribution_vs_enumeration" in _verify_rows(capsys, 5, code=2)
    monkeypatch.setattr(codes, "ENUMERATION_BUDGET", 9)
    assert "distribution_vs_enumeration" not in _verify_rows(capsys, 5, code=2)


def test_readme_cost_table_matches_the_code():
    expected = {
        **_cli_block(),
        "codes.ENUMERATION_BUDGET": codes.ENUMERATION_BUDGET,
        "gf2r.MAX_DEGREE": gf2r.MAX_DEGREE,
    }
    rows = [(name, int(value)) for name, value in _readme_rows()]
    assert sorted(rows) == sorted(expected.items())
