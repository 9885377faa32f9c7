import csv
import itertools
import json
import random
from math import isqrt
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kmoments import build_field
from kmoments.codes import dual_codeword
from kmoments.gf2r import _trace_map, irreducible_polys
from kmoments.kloosterman import (
    irreducible_quadratic_char_sum,
    kloosterman_sum,
    kloosterman_table,
    moment_bruteforce,
    quadratic_char_sums,
    split_quadratic_char_sum,
)

import oracles

GOLDEN = Path(__file__).parent / "golden"


# -- single sums ---------------------------------------------------------------


def test_k_r3_values(ctx3):
    assert kloosterman_sum(ctx3, 1) == -5
    assert kloosterman_sum(ctx3, 3) == 3
    # Frobenius orbit {2, 4, 6} shares one value
    assert kloosterman_sum(ctx3, 4) == kloosterman_sum(ctx3, 2)


@pytest.mark.parametrize("r", range(1, 6))
def test_k_matches_schoolbook_oracle(r):
    ctx = build_field(r)
    for a in ctx.nonzero():
        assert kloosterman_sum(ctx, a) == oracles.naive_kloosterman(a, ctx.modulus, r)


def test_k_zero_rejected(ctx3):
    with pytest.raises(ValueError):
        kloosterman_sum(ctx3, 0)


@pytest.mark.parametrize("r", range(2, 9))
def test_k_frobenius_invariance(r, contexts, tables):
    ctx, table = contexts[r], tables[r]
    for a in ctx.nonzero():
        assert table[ctx.mul(a, a)] == table[a]


# -- the full table ------------------------------------------------------------


def test_table_r3_multiset(tables):
    assert sorted(tables[3][1:]) == [-5, -1, -1, -1, 3, 3, 3]


@pytest.mark.parametrize("r", range(1, 9))
def test_table_size_and_first_moment(r, tables):
    table = tables[r]
    assert len(table) == 1 << r and table[0] is None
    # character orthogonality: the K values sum to 1 at every degree
    assert sum(table[1:]) == 1


@pytest.mark.parametrize("r", range(2, 9))
def test_weil_bound_and_mod4(r, tables):
    q = 1 << r
    for k in tables[r][1:]:
        assert k * k <= 4 * q
        assert k % 4 == 3


def test_table_values_read_only():
    table = kloosterman_table(build_field(3))
    with pytest.raises(TypeError):
        table[1] = 99
    assert table[1] == -5


@pytest.fixture(scope="module")
def wide_tables():
    """Canonical contexts and tables for r = 9..16 (the field's MAX_DEGREE)."""
    return {r: (ctx := build_field(r), kloosterman_table(ctx)) for r in range(9, 17)}


@pytest.mark.parametrize("r", range(1, 11))
def test_table_equals_literal_sum_everywhere(r, contexts, tables, wide_tables):
    ctx, table = (contexts[r], tables[r]) if r <= 8 else wide_tables[r]
    assert len(table) == ctx.q and table[0] is None
    for a in ctx.nonzero():
        assert table[a] == kloosterman_sum(ctx, a), a


@settings(max_examples=20, deadline=None)
@given(data=st.data(), r=st.integers(3, 10))
def test_table_equals_literal_sum_any_representation(data, r):
    modulus = data.draw(st.sampled_from(list(irreducible_polys(r))), label="modulus")
    field = build_field(r, modulus=modulus)
    b = data.draw(
        st.sampled_from([x for x in field.elements() if field.trace_table[x] == 1]), label="b"
    )
    ctx = build_field(r, modulus=modulus, b=b)
    table = kloosterman_table(ctx)
    for a in ctx.nonzero():
        assert table[a] == kloosterman_sum(ctx, a), a


@pytest.mark.parametrize("r", range(13, 17))
def test_table_past_degree_12(r, wide_tables):
    ctx, table = wide_tables[r]
    q = ctx.q
    assert len(table) == q
    assert sum(table[1:]) == 1
    for k in table[1:]:
        assert k * k <= 4 * q
        assert k % 4 == 3
    for a in [1, 2, q - 1] + random.Random(r).sample(range(3, q - 1), 5):
        assert table[a] == kloosterman_sum(ctx, a), a


@pytest.mark.parametrize("r", range(2, 17))
def test_value_set_lachaud_wolfmann(r, tables, wide_tables):
    # the values of K are exactly the k = -1 (mod 4) with k^2 <= 4q
    table = tables[r] if r <= 8 else wide_tables[r][1]
    q = 1 << r
    bound = isqrt(4 * q)
    expected = {k for k in range(-bound, bound + 1) if k % 4 == 3}
    assert set(table[1:]) == expected


def test_table_never_calls_the_per_a_sum(monkeypatch):
    import kmoments.checks as checks
    import kmoments.codes as codes
    import kmoments.kloosterman as kl
    import kmoments.oracles as package_oracles

    calls = {"kloosterman_sum": 0, "dual_codeword": 0, "dual_weights": 0, "_dual_weight_histogram": 0}

    def counting(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    for module, name in (
        (package_oracles, "kloosterman_sum"),
        (package_oracles, "dual_codeword"),
        (checks, "dual_weights"),
        (codes, "_dual_weight_histogram"),
    ):
        monkeypatch.setattr(module, name, counting(module, name))
    table = kl.kloosterman_table(build_field(6))
    assert all(count == 0 for count in calls.values()), calls
    assert len(table) == 64


@pytest.mark.parametrize("r", [3, 4])
def test_multiset_invariant_across_moduli(r):
    multisets = {
        tuple(sorted(kloosterman_table(build_field(r, modulus=m))[1:]))
        for m in itertools.islice(irreducible_polys(r), 2)
    }
    assert len(multisets) == 1


# -- brute-force moments ---------------------------------------------------------


def test_moments_r3(ctx3, tables):
    # MK^2 = (-5)^2 + 3*1 + 3*9
    assert moment_bruteforce(ctx3, 3, tables[3]) == (7, 1, 55, -47)
    assert moment_bruteforce(ctx3, 0, tables[3]) == (7,)


@pytest.mark.parametrize("r", range(1, 9))
def test_moment_zeroth_and_first(r, contexts, tables):
    ctx = contexts[r]
    assert moment_bruteforce(ctx, 1, tables[r]) == (ctx.q - 1, 1)


@pytest.mark.parametrize("r", range(2, 9))
def test_second_moment_classical_value(r, contexts, tables):
    q = 1 << r
    assert moment_bruteforce(contexts[r], 2, tables[r])[2] == q * q - q - 1


def test_column_equals_the_ungrouped_sums():
    # grouping the q - 1 values by K(a) changes no sum, to the CLI's MAX_HMAX = 32
    for r in range(1, 13):
        ctx = build_field(r)
        table = kloosterman_table(ctx)
        literal = tuple(sum(k**h for k in table[1:]) for h in range(33))
        assert moment_bruteforce(ctx, 32, table) == literal, r


def test_moment_rejects_negative_order(ctx3, tables):
    with pytest.raises(ValueError, match=r"^h_max must be an int >= 0, got -1$"):
        moment_bruteforce(ctx3, -1, tables[3])


def test_moment_refuses_a_table_of_another_field(tables):
    # the r = 3 table summed as if it were r = 4's would give the r = 3 moment, 55
    with pytest.raises(ValueError, match="q = 16 field, got 8 entries"):
        moment_bruteforce(build_field(4), 2, tables[3])


# -- the two auxiliary character sums --------------------------------------------


def test_split_sum_r3(ctx3):
    assert split_quadratic_char_sum(ctx3, 1) == -6  # K(1) - 1
    assert split_quadratic_char_sum(ctx3, 3) == 2  # K(3) - 1


@pytest.mark.parametrize("r", range(1, 7))
def test_split_sum_identity(r, contexts, tables):
    ctx, table = contexts[r], tables[r]
    for a in ctx.nonzero():
        assert split_quadratic_char_sum(ctx, a) == table[a] - 1


def test_irreducible_sum_r3(ctx3):
    assert irreducible_quadratic_char_sum(ctx3, 1, 1) == 4  # -K(1) - 1
    assert irreducible_quadratic_char_sum(ctx3, 3, 1) == -4


@pytest.mark.parametrize("r", range(1, 7))
def test_irreducible_sum_identity_all_b(r, contexts, tables):
    ctx, table = contexts[r], tables[r]
    trace_one = [b for b in ctx.elements() if ctx.trace_table[b] == 1]
    for b in trace_one:
        for a in ctx.nonzero():
            assert irreducible_quadratic_char_sum(ctx, a, b) == -table[a] - 1


@pytest.mark.parametrize("r", range(2, 8))
def test_char_sums_equal_mul_inverse_oracles(r, contexts):
    ctx = contexts[r]
    trace_one = [b for b in ctx.elements() if ctx.trace_table[b] == 1]
    for a in ctx.nonzero():
        assert split_quadratic_char_sum(ctx, a) == oracles.split_char_sum_by_mul(ctx, a), a
        for b in trace_one:
            assert irreducible_quadratic_char_sum(ctx, a, b) == (
                oracles.irreducible_char_sum_by_mul(ctx, a, b)
            ), (a, b)


def _assert_rows_equal_per_a_sums(ctx, bs):
    phi = _trace_map(ctx)
    assert quadratic_char_sums(ctx, 0, phi)[1:] == [
        split_quadratic_char_sum(ctx, a) for a in ctx.nonzero()
    ]
    for b in bs:
        assert quadratic_char_sums(ctx, b, phi)[1:] == [
            irreducible_quadratic_char_sum(ctx, a, b) for a in ctx.nonzero()
        ], b


@pytest.mark.parametrize("r", range(1, 10))
def test_char_sum_rows_equal_the_per_a_sums(r, contexts):
    # every trace-one b up to r = 6, as verify reads them; above, the first and last
    ctx = contexts[r] if r <= 8 else build_field(r)
    trace_one = [b for b in ctx.elements() if ctx.trace_table[b] == 1]
    _assert_rows_equal_per_a_sums(ctx, trace_one if r <= 6 else [trace_one[0], trace_one[-1]])


@settings(max_examples=20, deadline=None)
@given(data=st.data(), r=st.integers(2, 8))
def test_char_sum_rows_equal_the_per_a_sums_any_representation(data, r):
    modulus = data.draw(st.sampled_from(list(irreducible_polys(r))), label="modulus")
    ctx = build_field(r, modulus=modulus)
    trace_one = [x for x in ctx.elements() if ctx.trace_table[x] == 1]
    _assert_rows_equal_per_a_sums(ctx, [data.draw(st.sampled_from(trace_one), label="b")])


@pytest.mark.parametrize("r", range(1, 9))
def test_char_sum_row_identity_at_every_b(r, contexts, tables):
    # the denominators alpha^2 + alpha + b, b of either trace, give (-1)^tr(b) K(a) - 1
    ctx, table, phi = contexts[r], tables[r], _trace_map(contexts[r])
    for b in ctx.elements():
        sign = 1 - 2 * ctx.trace_table[b]
        assert quadratic_char_sums(ctx, b, phi) == [None] + [sign * table[a] - 1 for a in ctx.nonzero()], b


@pytest.mark.parametrize("r", range(1, 13))
def test_char_sum_rows_equal_the_lookup_oracle(r, contexts):
    # b = 0, a nonzero trace-zero b where there is one, and the first and last trace-one b
    ctx = contexts[r] if r <= 8 else build_field(r)
    trace_one = [b for b in ctx.elements() if ctx.trace_table[b] == 1]
    for b in dict.fromkeys((0, ctx.theta[-1], trace_one[0], trace_one[-1])):
        assert quadratic_char_sums(ctx, b, _trace_map(ctx)) == oracles.char_sum_row_by_lookup(ctx, b), b


@pytest.mark.parametrize("r", range(9, 17))
def test_char_sum_row_identity_to_the_largest_field(r):
    # (-1)^tr(b) K(a) - 1 at b = 0 and one trace-one b, past the lookup oracle's reach
    ctx = build_field(r)
    table, phi = kloosterman_table(ctx), _trace_map(ctx)
    for b in (0, ctx.b):
        sign = 1 - 2 * ctx.trace_table[b]
        assert quadratic_char_sums(ctx, b, phi) == [None] + [sign * k - 1 for k in table[1:]], b


def test_char_sum_rows_index_by_a_and_check_b(ctx3):
    phi = _trace_map(ctx3)
    assert quadratic_char_sums(ctx3, 0, phi)[:4] == [None, -6, split_quadratic_char_sum(ctx3, 2), 2]
    assert quadratic_char_sums(ctx3, 1, phi)[1] == 4
    # tr(2) = 0 at r = 3: b + theta is theta, so the row is the split one
    assert ctx3.trace_table[2] == 0
    assert quadratic_char_sums(ctx3, 2, phi) == quadratic_char_sums(ctx3, 0, phi)


def test_verify_fails_when_a_char_sum_denominator_moves(capsys, monkeypatch):
    import copy

    import kmoments.checks as checks
    import kmoments.cli as cli

    real = checks.quadratic_char_sums

    def neighbour(ctx, b, phi):
        # the least nonzero t in theta becomes g t, its neighbour in exp order,
        # so the denominator b + t of the row moves to b + g t
        moved = copy.copy(ctx)
        t = ctx.theta[1]
        moved.theta = (0, ctx.exp[ctx.log[t] + 1], *ctx.theta[2:])
        return real(moved, b, phi)

    monkeypatch.setattr(checks, "quadratic_char_sums", neighbour)
    assert cli.main(["verify", "--r", "3..4", "--hmax", "2"]) == 2
    lines = capsys.readouterr().out.splitlines()
    for r in (3, 4):
        assert f"r={r} code=3 split_char_sum: FAIL" in lines
        assert f"r={r} code=3 irreducible_char_sum: FAIL" in lines
    assert lines[-1] == "all: FAIL"


def test_char_sum_domain_errors(ctx3):
    with pytest.raises(ValueError):
        split_quadratic_char_sum(ctx3, 0)
    with pytest.raises(ValueError):
        irreducible_quadratic_char_sum(ctx3, 0, 1)
    with pytest.raises(ValueError, match="trace 1"):
        irreducible_quadratic_char_sum(ctx3, 1, 2)  # tr(2) = 0 at r=3


# call -> (argument, its least value at r = 3, the call passing x as that argument)
_BY_ELEMENT = {
    "kloosterman_sum": ("a", 1, lambda ctx, x: kloosterman_sum(ctx, x)),
    "split_quadratic_char_sum": ("a", 1, lambda ctx, x: split_quadratic_char_sum(ctx, x)),
    "irreducible_quadratic_char_sum:a": (
        "a", 1, lambda ctx, x: irreducible_quadratic_char_sum(ctx, x, ctx.b)
    ),
    "irreducible_quadratic_char_sum:b": (
        "b", 0, lambda ctx, x: irreducible_quadratic_char_sum(ctx, 1, x)
    ),
    "quadratic_char_sums:b": ("b", 0, lambda ctx, x: quadratic_char_sums(ctx, x, _trace_map(ctx))),
    "dual_codeword:a": ("a", 0, lambda ctx, x: dual_codeword(ctx, 1, x)),
}


@pytest.mark.parametrize("x", [-1, 8, 1.0, True])
@pytest.mark.parametrize("name", _BY_ELEMENT)
def test_out_of_range_elements_are_refused(name, x, ctx3):
    # unchecked, -1 reads the tables at a = 7 (and passes the trace check as b = 7);
    # 1.0 and True pass a range test as 1, where 1.0 cannot index a table and True reads a = 1
    argument, lo, call = _BY_ELEMENT[name]
    with pytest.raises(ValueError, match=rf"^{argument} must be an int in {lo}\.\.7, got {x}$"):
        call(ctx3, x)


# -- golden files ---------------------------------------------------------------


@pytest.mark.parametrize("r", [3, 4])
def test_golden_csv(r, tables):
    with open(GOLDEN / f"kloosterman_r{r}.csv", newline="") as fh:
        header, *rows = csv.reader(fh)
    assert header == ["a", "K"]
    assert [(int(a), int(k)) for a, k in rows] == list(enumerate(tables[r]))[1:]


@pytest.mark.parametrize("r", [3, 4])
def test_golden_json(r, contexts, tables):
    doc = json.loads((GOLDEN / f"kloosterman_r{r}.json").read_text())
    ctx = contexts[r]
    assert doc["r"] == ctx.r == r
    assert doc["modulus_hex"] == format(ctx.modulus, "#x")
    pairs = [(row["a"], row["k"]) for row in doc["values"]]
    assert pairs == list(enumerate(tables[r]))[1:]
    # the committed values are pinned to the schoolbook oracle too
    for row in doc["values"]:
        assert row["k"] == oracles.naive_kloosterman(row["a"], ctx.modulus, r)
