import itertools
import json
from pathlib import Path

import pytest

from kmoments import build_field
from kmoments.gf2r import irreducible_polys
from kmoments.kloosterman import (
    irreducible_quadratic_char_sum,
    kloosterman_sum,
    kloosterman_table,
    moment_bruteforce,
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
    assert tables[3].multiset() == (-5, -1, -1, -1, 3, 3, 3)


@pytest.mark.parametrize("r", range(1, 9))
def test_table_size_and_first_moment(r, tables):
    table = tables[r]
    assert len(table.values) == (1 << r) - 1
    # character orthogonality: the K values sum to 1 at every degree
    assert sum(table.values.values()) == 1


@pytest.mark.parametrize("r", range(2, 9))
def test_weil_bound_and_mod4(r, tables):
    q = 1 << r
    for k in tables[r].values.values():
        assert k * k <= 4 * q
        assert k % 4 == 3


def test_table_values_read_only():
    table = kloosterman_table(build_field(3))
    with pytest.raises(TypeError):
        table.values[1] = 99
    assert table[1] == -5


def test_table_refused_past_quadratic_budget():
    with pytest.raises(ValueError, match="O\\(q\\^2\\)"):
        kloosterman_table(build_field(13))


@pytest.mark.parametrize("r", [3, 4])
def test_multiset_invariant_across_moduli(r):
    multisets = {
        kloosterman_table(build_field(r, modulus=m)).multiset()
        for m in itertools.islice(irreducible_polys(r), 2)
    }
    assert len(multisets) == 1


# -- brute-force moments ---------------------------------------------------------


def test_moments_r3(ctx3, tables):
    t = tables[3]
    assert moment_bruteforce(ctx3, 0, t) == 7
    assert moment_bruteforce(ctx3, 1, t) == 1
    assert moment_bruteforce(ctx3, 2, t) == 55  # (-5)^2 + 3*1 + 3*9
    assert moment_bruteforce(ctx3, 3, t) == -47


@pytest.mark.parametrize("r", range(1, 9))
def test_moment_zeroth_and_first(r, contexts, tables):
    ctx, t = contexts[r], tables[r]
    assert moment_bruteforce(ctx, 0, t) == ctx.q - 1
    assert moment_bruteforce(ctx, 1, t) == 1


@pytest.mark.parametrize("r", range(2, 9))
def test_second_moment_classical_value(r, contexts, tables):
    q = 1 << r
    assert moment_bruteforce(contexts[r], 2, tables[r]) == q * q - q - 1


def test_moment_rejects_negative_order(ctx3):
    with pytest.raises(ValueError):
        moment_bruteforce(ctx3, -1)


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
    trace_one = [b for b in ctx.elements() if ctx.trace(b) == 1]
    for b in trace_one:
        for a in ctx.nonzero():
            assert irreducible_quadratic_char_sum(ctx, a, b) == -table[a] - 1


def test_char_sum_domain_errors(ctx3):
    with pytest.raises(ValueError):
        split_quadratic_char_sum(ctx3, 0)
    with pytest.raises(ValueError):
        irreducible_quadratic_char_sum(ctx3, 0, 1)
    with pytest.raises(ValueError, match="trace 1"):
        irreducible_quadratic_char_sum(ctx3, 1, 2)  # tr(2) = 0 at r=3


# -- serialization and golden files ------------------------------------------------


@pytest.mark.parametrize("r", [3, 4])
def test_golden_csv(r, tables):
    assert tables[r].to_csv_text() == (GOLDEN / f"kloosterman_r{r}.csv").read_text()


@pytest.mark.parametrize("r", [3, 4])
def test_golden_json(r, tables):
    text = (GOLDEN / f"kloosterman_r{r}.json").read_text()
    assert tables[r].to_json_text() == text
    doc = json.loads(text)
    ctx = build_field(r)
    assert doc["r"] == r and doc["modulus_hex"] == ctx.modulus_hex
    # the committed values are pinned to the schoolbook oracle too
    for row in doc["values"]:
        assert row["k"] == oracles.naive_kloosterman(row["a"], ctx.modulus, r)
