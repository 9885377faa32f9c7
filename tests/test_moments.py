import copy
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kmoments import build_field
from kmoments.kloosterman import kloosterman_table, moment_bruteforce
from kmoments.codes import weight_distribution
from kmoments.moments import (
    _next_stirling2_row,
    _pless_sums,
    _recursion,
    moment_sequence,
    pless_check,
    stirling2_explicit,
)

import oracles
import stages


# -- combinatorial helpers -------------------------------------------------------


def test_stirling_examples():
    assert stirling2_explicit(0, 0) == 1
    assert all(stirling2_explicit(h, 1) == 1 for h in range(1, 12))
    assert stirling2_explicit(3, 2) == 3
    assert stirling2_explicit(2, 3) == 0
    assert stirling2_explicit(4, 2) == 7
    assert stirling2_explicit(5, 3) == 25


def test_stirling_recurrence_vs_alternating_sum():
    # the rows _pless_sums steps through, S(h, 0..h) for h = 0..30
    row = [1]
    for h in range(31):
        if h:
            row = _next_stirling2_row(row)
        assert row == [stirling2_explicit(h, t) for t in range(h + 1)], h


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n=st.integers(0, 300), h_max=st.integers(0, 32))
def test_pless_sums_equal_the_order_by_order_oracle(data, n, h_max):
    # any integer counts C_0..C_min(N, h_max), signed and past any code's size
    size = min(n, h_max) + 1
    dist = data.draw(st.lists(st.integers(-(2**80), 2**80), min_size=size, max_size=size), label="dist")
    assert _pless_sums(h_max, n, dist) == oracles.pless_sums_by_order(h_max, n, dist)


# -- the four recursions ---------------------------------------------------------


def test_recursion_hand_cases():
    # code 1, h=1: (q-1) MK^0 = 49, correction q * 6 = 48
    assert _recursion(8, 1, _pless_sums(1, 6, (1, 0))) == (7, 1)
    # code 3, h=1: -(q+1) MK^0 = -63, correction q * 8 = 64
    assert _recursion(8, 3, _pless_sums(1, 8, (1, 0))) == (7, 1)


@pytest.mark.parametrize("i", [1, 2, 3, 4])
def test_recursion_second_moment(i, ctx3):
    assert moment_sequence(ctx3, i, 2) == (7, 1, 55)


def test_sequence_r3(ctx3):
    assert moment_sequence(ctx3, 2, 3) == (7, 1, 55, -47)


def test_sequence_r4_first_moment(ctx4):
    seq = moment_sequence(ctx4, 3, 1)
    assert seq == (15, 1)


@pytest.mark.parametrize("r", [3, 4, 5])
def test_all_codes_agree(r):
    ctx = build_field(r)
    seqs = {moment_sequence(ctx, i, 8) for i in (1, 2, 3, 4)}
    assert len(seqs) == 1


@pytest.mark.parametrize("r", range(3, 9))
@pytest.mark.parametrize("i", [1, 2, 3, 4])
def test_recursion_equals_bruteforce(r, i, contexts, tables):
    ctx = contexts[r]
    assert moment_sequence(ctx, i, 12) == moment_bruteforce(ctx, 12, tables[r])


def test_recursion_equals_bruteforce_to_the_cli_hmax():
    # all four codes at r = 3..11, h up to the CLI's MAX_HMAX = 32: a flipped
    # sign s, a lost 2^h or q - 1 and q + 1 swapped in the step shows at some h
    for r in range(3, 12):
        ctx = build_field(r)
        table = kloosterman_table(ctx)
        brute = moment_bruteforce(ctx, 32, table)
        for i in (1, 2, 3, 4):
            assert moment_sequence(ctx, i, 32) == brute, (r, i)


@pytest.mark.parametrize("r", range(1, 7))
def test_moment_magnitude_bound(r, contexts):
    # |MK^h| <= (q-1) (2 sqrt(q))^h, squared to stay in integers
    ctx = contexts[r]
    seq = moment_sequence(ctx, 4, 8)
    q = ctx.q
    for h, mk in enumerate(seq):
        assert mk * mk <= (q - 1) ** 2 * (4 * q) ** h


@pytest.mark.parametrize("r", [1, 2])
@pytest.mark.parametrize("i", [3, 4])
def test_recursion_small_fields_codes_34(r, i, contexts, tables):
    # no degree bound is claimed for codes 3 and 4; holds down to r = 1
    ctx = contexts[r]
    assert moment_sequence(ctx, i, 10) == moment_bruteforce(ctx, 10, tables[r])


def test_codes_12_run_wherever_they_exist():
    # at r = 2 the dual map of codes 1 and 2 is 2-to-1; the Pless sum over a
    # and the weight counts both count each dual word twice, so both hold
    canonical = build_field(2)
    trace_one = [b for b in canonical.elements() if canonical.trace_table[b]]
    assert len(trace_one) == 2
    for b in trace_one:
        ctx = build_field(2, b=b)
        table = kloosterman_table(ctx)
        brute = moment_bruteforce(ctx, 10, table)
        for i in (1, 2):
            assert moment_sequence(ctx, i, 10) == brute, (b, i)
            assert all(equal for _, _, equal in stages.pless(ctx, i, 10)), (b, i)
    # at r = 1 codes 1 and 2 have length 0: no code, no recursion
    for i in (1, 2):
        with pytest.raises(ValueError, match="needs q >= 4"):
            moment_sequence(build_field(1), i, 2)
        with pytest.raises(ValueError, match="needs q >= 4"):
            pless_check(build_field(1), i, (0, 0), [1, 0])


def test_recursion_argument_validation(ctx3):
    with pytest.raises(ValueError):
        moment_sequence(ctx3, 6, 2)


def test_longer_prefix_changes_nothing(ctx3):
    # the Pless sums to h read the counts to min(N, h) only
    short = weight_distribution(ctx3, 1, j_max=2)
    full = weight_distribution(ctx3, 1)
    assert _recursion(8, 1, _pless_sums(2, 6, short)) == _recursion(8, 1, _pless_sums(2, 6, full))


def test_invariant_under_theta_reordering():
    ctx = build_field(4)
    reordered = copy.copy(ctx)
    reordered.theta = ctx.theta[:1] + ctx.theta[:0:-1]
    for i in (1, 2, 3, 4):
        assert moment_sequence(ctx, i, 6) == moment_sequence(reordered, i, 6)


def test_moment_sequence_type(ctx3):
    seq = moment_sequence(ctx3, 1, 4)
    assert type(seq) is tuple and len(seq) == 5
    assert seq[0] == 7


# -- Pless power moment identity ----------------------------------------------------


@pytest.mark.parametrize("i", [1, 2, 3, 4])
def test_pless_h0_counts_codewords(i, ctx3):
    lhs, rhs, equal = stages.pless(ctx3, i, 0)[0]
    assert (lhs, rhs, equal) == (8, 8, True)


def test_pless_hand_values(ctx3):
    assert stages.pless(ctx3, 1, 1)[1] == (24, 24, True)
    assert stages.pless(ctx3, 4, 1)[1] == (16, 16, True)


@pytest.mark.parametrize("r", [3, 4, 5])
@pytest.mark.parametrize("i", [1, 2, 3, 4])
def test_pless_identity(r, i, contexts):
    ctx = contexts[r]
    for h in range(9):
        lhs, rhs, equal = stages.pless(ctx, i, h)[h]
        assert equal and lhs == rhs


@pytest.mark.parametrize("i", [3, 4])
def test_pless_small_fields(i, contexts):
    for r in (1, 2):
        for h in range(6):
            assert stages.pless(contexts[r], i, h)[h][2]


def test_pless_one_pass(monkeypatch, contexts):
    import kmoments.checks as package_checks
    import kmoments.moments as mo
    import kmoments.oracles as package_oracles

    ctx = contexts[5]
    weights, sums = stages.weights(ctx, 3), stages.sums(ctx, 3, 10)
    calls = {"dual_weights": 0, "dual_codeword": 0, "weight_distribution": 0}

    def counting(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    for module, name in (
        (package_checks, "dual_weights"),
        (mo, "weight_distribution"),
        (package_oracles, "dual_codeword"),
    ):
        monkeypatch.setattr(module, name, counting(module, name))
    # both sides from the values given, with nothing built again
    checks = pless_check(ctx, 3, weights, sums)
    assert calls == {"dual_weights": 0, "dual_codeword": 0, "weight_distribution": 0}
    assert len(checks) == 11
    assert all(equal for _, _, equal in checks)
    assert all(type(rhs) is int and rhs == lhs for lhs, rhs, _ in checks)


def _pless_right_side(r: int, n: int, counts, h: int) -> Fraction:
    """sum_j (-1)^j C_j sum_t t! S(h, t) 2^(r-t) C(N-j, N-t), term by term in Fractions."""
    return sum(
        (-1) ** j
        * counts[j]
        * sum(
            math.factorial(t) * stirling2_explicit(h, t) * Fraction(2) ** (r - t) * math.comb(n - j, n - t)
            for t in range(j, min(n, h) + 1)
        )
        for j in range(min(n, h) + 1)
    )


@pytest.mark.parametrize("i", [1, 2, 3, 4])
def test_pless_corrupted_count_is_exact_and_unequal(i, contexts):
    # one weight count off by one: from h = 2 on the right side is no longer
    # the left side, and it is still the exact literal sum, an int (every term
    # t! S(h, t) 2^(r-t) is one, since t <= N <= 2^r)
    ctx = contexts[4]
    counts = list(weight_distribution(ctx, i))
    counts[2] += 1
    n = len(counts) - 1
    checks = pless_check(ctx, i, stages.weights(ctx, i), _pless_sums(10, n, counts))
    for h, (lhs, rhs, equal) in enumerate(checks):
        assert type(rhs) is int and rhs == _pless_right_side(ctx.r, n, counts, h)
        assert equal == (rhs == lhs) == (h < 2)

