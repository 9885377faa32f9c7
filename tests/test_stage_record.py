"""verify's stage record against the library builders, and the rule that keeps one path per stage.

``verify._stages`` composes the private builders and the two cores
``codes._macwilliams`` and ``moments._recursion`` once per r, while the
``moments`` and ``weights`` commands call ``weight_distribution`` and
``moment_sequence``, which compose the same builders from the context.
The record must give what those give, and what ``tests/stages.py`` builds
for the tests of the functions that take stage values.

A function that takes a stage value takes it as a required argument: a
default would give it a second path, build it or take it.
"""

import ast
from pathlib import Path

import pytest

from kmoments import build_field, checks, codes, verify
from kmoments.codes import parity_check_rows, weight_distribution
from kmoments.kloosterman import kloosterman_table
from kmoments.moments import moment_sequence

import stages

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "kmoments"

# the stage values that verify's record builds once and hands on
STAGE_VALUES = {"phi", "block", "walk", "transform", "histogram", "h_rows", "g_rows", "counts", "sums", "weights"}


@pytest.mark.parametrize("h_max", [3, 10])
@pytest.mark.parametrize("r", range(2, 9))
def test_record_gives_what_the_library_builders_give(r, h_max):
    # the full distribution up to verify.DIGEST_FULL_ROWS_MAX_R, above it up to min(N, h_max)
    ctx = build_field(r)
    record = verify._stages(ctx, codes.CODE_INDICES, h_max)
    assert list(record.codes) == list(codes.CODE_INDICES)
    for i, stage in record.codes.items():
        n = codes.code_length(ctx, i)
        assert stage.n == n
        assert len(stage.dist) == (n if r <= verify.DIGEST_FULL_ROWS_MAX_R else min(n, h_max)) + 1
        assert stage.dist == weight_distribution(ctx, i, len(stage.dist) - 1), (r, i)
        assert stage.moments == moment_sequence(ctx, i, h_max), (r, i)
        assert stage.moments == record.brute[: h_max + 1], (r, i)
        assert (stage.h_rows, stage.g_rows) == (parity_check_rows(ctx, i), stages.g_rows(ctx, i)), (r, i)
        assert stage.weights == stages.weights(ctx, i), (r, i)
        assert stage.histogram == stages.histogram(ctx, i), (r, i)
        assert stage.sums == stages.sums(ctx, i, h_max), (r, i)
        assert stage.report == stages.report(ctx, i), (r, i)


def test_record_leaves_out_the_codes_that_do_not_exist():
    # codes 1 and 2 have length 0 at r = 1
    assert list(verify._stages(build_field(1), codes.CODE_INDICES, 4).codes) == [3, 4]


def test_the_digest_rows_values_are_built_where_those_rows_run(monkeypatch):
    # the character-sum results and the dual-weight fractions, on a record's first read: at
    # r = 8 the split row and 2 sampled b, and 4 codes' fractions; at r = 9 no row reads them
    calls = []
    for module, name in ((checks, "quadratic_char_sums"), (checks, "dual_weight_fraction")):
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args, real=real, name=name: calls.append(name) or real(*args))
    for r in (8, 9):
        ctx, calls[:] = build_field(r), []
        list(verify._verify_rows(ctx, codes.CODE_INDICES, 3))
        distinct = len(set(kloosterman_table(ctx)[1:]))
        expected = {"quadratic_char_sums": 3, "dual_weight_fraction": 4 * distinct} if r == 8 else {}
        assert {name: calls.count(name) for name in set(calls)} == expected, r


def _defaulted_stage_values(text: str) -> list[str]:
    """'line function(parameter)' of each stage-value parameter with a default in ``text``."""
    found = []
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            positional = args.posonlyargs + args.args
            defaulted = positional[len(positional) - len(args.defaults) :]
            defaulted += [a for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
            name = getattr(node, "name", "<lambda>")
            found += [f"{node.lineno} {name}({a.arg})" for a in defaulted if a.arg in STAGE_VALUES]
    return found


def test_no_function_takes_a_stage_value_with_a_default():
    found = {
        path.name: hits
        for path in sorted(PACKAGE.glob("*.py"))
        if (hits := _defaulted_stage_values(path.read_text()))
    }
    assert found == {}


def test_the_rule_catches_each_way_to_default_a_stage_value():
    source = (
        "def a(ctx, i, walk=None):\n    pass\n"
        "def b(ctx, i, *, sums=()):\n    pass\n"
        "def c(ctx, i, j_max=None, histogram=None):\n    pass\n"
        "d = lambda ctx, b, phi=None: phi\n"
        "def e(ctx, i, weights, sums, h_max=3):\n    pass\n"
    )
    assert _defaulted_stage_values(source) == ["1 a(walk)", "3 b(sums)", "5 c(histogram)", "7 <lambda>(phi)"]
