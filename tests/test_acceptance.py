"""Acceptance suite: every identity the package claims, at full scope.

Each test prints one ACCEPTANCE line (visible under ``pytest -s`` or
``pytest --capture=tee-sys``).  All comparisons are exact integer
equality; there are no tolerances anywhere.
"""

import itertools
from contextlib import contextmanager

import pytest

from kmoments import build_field
from kmoments.codes import (
    code_length,
    dual_codeword,
    dual_weight_closed_form,
    verify_dual_structure,
    weight_distribution,
    weight_distribution_exhaustive,
)
from kmoments.gf2r import irreducible_polys
from kmoments.kloosterman import (
    irreducible_quadratic_char_sum,
    kloosterman_sum,
    kloosterman_table,
    moment_bruteforce,
    split_quadratic_char_sum,
)
from kmoments.moments import moment_sequence, pless_check

ALL_CODES = (1, 2, 3, 4)


@contextmanager
def criterion(label):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {label}: FAIL")
        raise
    else:
        print(f"ACCEPTANCE {label}: PASS")


def admissible(i, r):
    # codes 1 and 2 are empty at r = 1; every code runs wherever it exists
    return i in (3, 4) or r >= 2


def test_01_recursions_match_bruteforce(contexts, tables):
    with criterion("01 recursion-equals-oracle (4 codes, r=1..6, h=1..10)"):
        for r in (1, 2, 3, 4, 5, 6):
            ctx, table = contexts[r], tables[r]
            brute = moment_bruteforce(ctx, 10, table)
            for i in [i for i in ALL_CODES if admissible(i, r)]:
                seq = moment_sequence(ctx, i, 10)
                for h in range(1, 11):
                    assert seq[h] == brute[h], (i, r, h)


def test_02_golden_values_q8(ctx3, tables):
    with criterion("02 golden values at q=8"):
        assert ctx3.modulus == 0b1011
        assert kloosterman_sum(ctx3, 1) == -5
        assert sorted(tables[3][1:]) == [-5, -1, -1, -1, 3, 3, 3]
        assert moment_bruteforce(ctx3, 3, tables[3]) == (7, 1, 55, -47)
        assert weight_distribution(ctx3, 1) == (1, 0, 3, 0, 3, 0, 1)
        assert weight_distribution(ctx3, 2) == (1, 0, 0, 0)


def test_03_quadratic_denominator_char_sums(contexts, tables):
    with criterion("03 split/irreducible character sums (r<=8, all a, all b)"):
        for r in range(1, 9):
            ctx, table = contexts[r], tables[r]
            for a in ctx.nonzero():
                assert split_quadratic_char_sum(ctx, a) == table[a] - 1, (r, a)
            trace_one = [b for b in ctx.elements() if ctx.trace_table[b] == 1]
            for b in trace_one:
                for a in ctx.nonzero():
                    assert irreducible_quadratic_char_sum(ctx, a, b) == -table[a] - 1, (r, a, b)


def test_04_dual_weights_closed_form(contexts):
    with criterion("04 dual weight closed forms + halving (r<=8, all a)"):
        for r in range(1, 9):
            ctx = contexts[r]
            codes = ALL_CODES if ctx.q >= 4 else (3, 4)
            for a in ctx.nonzero():
                k = kloosterman_sum(ctx, a)
                weight = {i: dual_weight_closed_form(ctx.q, i, k) for i in codes}
                for i in codes:
                    assert sum(dual_codeword(ctx, i, a)) == weight[i], (r, i, a)
                assert 2 * weight[4] == weight[3]
                if ctx.q >= 4:
                    assert 2 * weight[2] == weight[1]


def test_05_distribution_dp_vs_enumeration(contexts):
    with criterion("05 DP vs exhaustive enumeration (r=3,4) and prefix consistency (r=5,6)"):
        for r in (3, 4):
            ctx = contexts[r]
            for i in ALL_CODES:
                dp = weight_distribution(ctx, i)
                assert dp == weight_distribution_exhaustive(ctx, i), (r, i)
        for r in (5, 6):
            ctx = contexts[r]
            for i in ALL_CODES:
                full = weight_distribution(ctx, i)
                j_max = min(10, code_length(ctx, i))
                pre = weight_distribution(ctx, i, j_max=j_max)
                assert full[: j_max + 1] == pre, (r, i)


def test_06_palindrome_distributions(contexts):
    with criterion("06 palindrome distributions for the doubled codes (r=3,4,5)"):
        for r in (3, 4, 5):
            ctx = contexts[r]
            for i in (1, 3):
                counts = weight_distribution(ctx, i)
                n = code_length(ctx, i)
                assert all(counts[j] == counts[n - j] for j in range(n + 1)), (r, i)


def test_07_pless_identity(contexts):
    with criterion("07 Pless power moment identity (r=1..6, h=0..10)"):
        for r in (1, 2, 3, 4, 5, 6):
            ctx = contexts[r]
            for i in [i for i in ALL_CODES if admissible(i, r)]:
                for h in range(11):
                    lhs, rhs, equal = pless_check(ctx, i, h)[h]
                    assert equal and lhs == rhs, (r, i, h)


def test_08_dual_map_and_cardinalities(contexts):
    with criterion("08 dual map injectivity, q=4 kernel, distribution totals"):
        for r in range(1, 9):
            ctx = contexts[r]
            for i in (3, 4):
                assert verify_dual_structure(ctx, i)["injective"], (r, i)
        for r in range(3, 9):
            ctx = contexts[r]
            for i in (1, 2):
                assert verify_dual_structure(ctx, i)["injective"], (r, i)
        ctx2 = contexts[2]
        for i in (1, 2):
            assert verify_dual_structure(ctx2, i)["kernel_size"] == 2, i
        # wherever the dual map is injective the code has 2^(N-r) words
        for r in range(1, 9):
            ctx = contexts[r]
            for i in ALL_CODES:
                if i in (1, 2) and r < 3:
                    continue
                n = code_length(ctx, i)
                assert sum(weight_distribution(ctx, i)) == 1 << (n - r), (r, i)


def test_09_representation_invariance():
    with criterion("09 invariance under modulus and b choice (r=3,4,5)"):
        for r in (3, 4, 5):
            mods = list(itertools.islice(irreducible_polys(r), 2))
            assert len(mods) == 2
            sequences = {
                (i, moment_sequence(build_field(r, modulus=m), i, 10))
                for m in mods
                for i in ALL_CODES
            }
            # one sequence per code index, identical across moduli
            assert len(sequences) == len(ALL_CODES), (r, sequences)
            assert len({mk for _, mk in sequences}) == 1
            ctx = build_field(r)
            trace_one = [x for x in ctx.elements() if ctx.trace_table[x] == 1]
            for i in (3, 4):
                per_b = {
                    moment_sequence(build_field(r, b=b), i, 10)
                    for b in (trace_one[0], trace_one[-1])
                }
                assert len(per_b) == 1, (r, i)


def test_10_kloosterman_sanity_bounds(contexts, tables):
    # the -1 mod 4 congruence needs q = 0 mod 4, i.e. r >= 2: at r = 1 the
    # single value is K(1) = +1
    with criterion("10 Weil bound (r<=10) and -1 mod 4 congruence (2<=r<=10)"):
        assert tables[1][1] == 1
        for r in range(1, 11):
            table = tables[r] if r <= 8 else kloosterman_table(build_field(r))
            q = 1 << r
            for k in table[1:]:
                assert k * k <= 4 * q, (r, k)
                if r >= 2:
                    assert k % 4 == 3, (r, k)
