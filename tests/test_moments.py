import copy
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kmoments import build_field
from kmoments.kloosterman import moment_bruteforce
from kmoments.moments import (
    MomentSequence,
    binom,
    moment_recursive,
    moment_sequence,
    pless_check,
    stirling2,
    stirling2_explicit,
)


# -- combinatorial helpers -------------------------------------------------------


def test_binom_zero_conventions():
    assert binom(5, 7) == 0
    assert binom(5, -1) == 0
    assert binom(6, 5) == 6
    assert binom(0, 0) == 1


@settings(max_examples=200, deadline=None)
@given(b=st.integers(0, 60), a=st.integers(-10, 70))
def test_binom_matches_comb_in_range(b, a):
    expected = math.comb(b, a) if 0 <= a <= b else 0
    assert binom(b, a) == expected


def test_stirling_examples():
    assert stirling2(0, 0) == 1
    assert all(stirling2(h, 1) == 1 for h in range(1, 12))
    assert stirling2(3, 2) == 3
    assert stirling2(2, 3) == 0
    assert stirling2(4, 2) == 7
    assert stirling2(5, 3) == 25


def test_stirling_recurrence_vs_alternating_sum():
    for h in range(31):
        for t in range(h + 1):
            assert stirling2(h, t) == stirling2_explicit(h, t)


# -- the four recursions ---------------------------------------------------------


def test_recursion_hand_cases(ctx3):
    # code 1, h=1: (q-1) MK^0 = 49, correction q * 6 = 48
    assert moment_recursive(ctx3, 1, 1, [7], (1, 0)) == 1
    # code 3, h=1: -(q+1) MK^0 = -63, correction q * 8 = 64
    assert moment_recursive(ctx3, 3, 1, [7], (1, 0)) == 1


@pytest.mark.parametrize("i", [1, 2, 3, 4])
def test_recursion_second_moment(i, ctx3):
    from kmoments.codes import weight_distribution

    dist = weight_distribution(ctx3, i, j_max=2).counts
    assert moment_recursive(ctx3, i, 2, [7, 1], dist) == 55


def test_sequence_r3(ctx3):
    assert moment_sequence(ctx3, 2, 3).mk == (7, 1, 55, -47)


def test_sequence_r4_first_moment(ctx4):
    seq = moment_sequence(ctx4, 3, 1)
    assert seq.mk == (15, 1)


@pytest.mark.parametrize("r", [3, 4, 5])
def test_all_codes_agree(r):
    ctx = build_field(r)
    seqs = {moment_sequence(ctx, i, 8).mk for i in (1, 2, 3, 4)}
    assert len(seqs) == 1


@pytest.mark.parametrize("r", range(3, 9))
@pytest.mark.parametrize("i", [1, 2, 3, 4])
def test_recursion_equals_bruteforce(r, i, contexts, tables):
    ctx = contexts[r]
    seq = moment_sequence(ctx, i, 12)
    for h in range(13):
        assert seq.mk[h] == moment_bruteforce(ctx, h, tables[r])


@pytest.mark.parametrize("r", range(1, 7))
def test_moment_magnitude_bound(r, contexts):
    # |MK^h| <= (q-1) (2 sqrt(q))^h, squared to stay in integers
    ctx = contexts[r]
    seq = moment_sequence(ctx, 4, 8)
    q = ctx.q
    for h, mk in enumerate(seq.mk):
        assert mk * mk <= (q - 1) ** 2 * (4 * q) ** h


@pytest.mark.parametrize("r", [1, 2])
@pytest.mark.parametrize("i", [3, 4])
def test_recursion_small_fields_codes_34(r, i, contexts, tables):
    # no degree bound is claimed for codes 3 and 4; holds down to r = 1
    ctx = contexts[r]
    seq = moment_sequence(ctx, i, 10)
    for h in range(11):
        assert seq.mk[h] == moment_bruteforce(ctx, h, tables[r])


def test_codes_12_require_degree_3():
    ctx = build_field(2)
    for i in (1, 2):
        with pytest.raises(ValueError, match="r >= 3"):
            moment_sequence(ctx, i, 2)
        with pytest.raises(ValueError, match="r >= 3"):
            pless_check(ctx, i, 1)


def test_recursion_argument_validation(ctx3):
    with pytest.raises(ValueError, match="seed"):
        moment_recursive(ctx3, 1, 0, [], (1,))
    with pytest.raises(ValueError, match="MK"):
        moment_recursive(ctx3, 1, 2, [7], (1, 0, 3))
    with pytest.raises(ValueError, match="weight counts"):
        moment_recursive(ctx3, 1, 2, [7, 1], (1, 0))
    with pytest.raises(ValueError):
        moment_sequence(ctx3, 6, 2)


def test_longer_prefix_changes_nothing(ctx3):
    from kmoments.codes import weight_distribution

    short = weight_distribution(ctx3, 1, j_max=2).counts
    full = weight_distribution(ctx3, 1).counts
    assert moment_recursive(ctx3, 1, 2, [7, 1], short) == moment_recursive(
        ctx3, 1, 2, [7, 1], full
    )


def test_invariant_under_theta_reordering():
    ctx = build_field(4)
    reordered = copy.copy(ctx)
    reordered.theta = ctx.theta[:1] + ctx.theta[:0:-1]
    for i in (1, 2, 3, 4):
        assert moment_sequence(ctx, i, 6).mk == moment_sequence(reordered, i, 6).mk


def test_moment_sequence_type(ctx3):
    seq = moment_sequence(ctx3, 1, 4)
    assert isinstance(seq, MomentSequence)
    assert seq.h_max == 4 and len(seq.mk) == 5
    assert seq[0] == 7


# -- Pless power moment identity ----------------------------------------------------


@pytest.mark.parametrize("i", [1, 2, 3, 4])
def test_pless_h0_counts_codewords(i, ctx3):
    lhs, rhs, equal = pless_check(ctx3, i, 0)[0]
    assert (lhs, rhs, equal) == (8, 8, True)


def test_pless_hand_values(ctx3):
    assert pless_check(ctx3, 1, 1)[1] == (24, 24, True)
    assert pless_check(ctx3, 4, 1)[1] == (16, 16, True)


@pytest.mark.parametrize("r", [3, 4, 5])
@pytest.mark.parametrize("i", [1, 2, 3, 4])
def test_pless_identity(r, i, contexts):
    ctx = contexts[r]
    for h in range(9):
        lhs, rhs, equal = pless_check(ctx, i, h)[h]
        assert equal and lhs == rhs


@pytest.mark.parametrize("i", [3, 4])
def test_pless_small_fields(i, contexts):
    for r in (1, 2):
        for h in range(6):
            assert pless_check(contexts[r], i, h)[h][2]


def test_pless_one_pass(monkeypatch, contexts):
    import kmoments.codes as codes
    import kmoments.moments as mo

    calls = {"dual_words": 0, "dual_codeword": 0, "weight_distribution": 0}

    def counting(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    for module, name in (
        (mo, "dual_words"),
        (mo, "weight_distribution"),
        (codes, "dual_codeword"),
    ):
        monkeypatch.setattr(module, name, counting(module, name))
    ctx = contexts[5]
    checks = pless_check(ctx, 3, 10)
    assert calls == {"dual_words": 1, "dual_codeword": 0, "weight_distribution": 1}
    assert len(checks) == 11
    assert all(equal for _, _, equal in checks)
    assert all(isinstance(rhs, Fraction) for _, rhs, _ in checks)


def test_given_counts_and_words_are_used_as_built(monkeypatch, contexts):
    import kmoments.moments as mo
    from kmoments.codes import dual_words, weight_distribution

    ctx = contexts[5]
    counts = weight_distribution(ctx, 3).counts
    words = dual_words(ctx, 3)
    expected = (pless_check(ctx, 3, 10), moment_sequence(ctx, 3, 10))

    def forbidden(*args, **kwargs):
        raise AssertionError("built again")

    monkeypatch.setattr(mo, "dual_words", forbidden)
    monkeypatch.setattr(mo, "weight_distribution", forbidden)
    # the full distribution, or just the prefix up to min(N, h_max)
    for given in (counts, counts[:11]):
        assert pless_check(ctx, 3, 10, counts=given, words=words) == expected[0]
        assert moment_sequence(ctx, 3, 10, counts=given) == expected[1]


def test_given_counts_and_words_are_length_checked(ctx3):
    from kmoments.codes import dual_words, weight_distribution

    counts = weight_distribution(ctx3, 3).counts  # N = 8, so 9 counts
    words = dual_words(ctx3, 3)
    with pytest.raises(ValueError, match="weight counts up to j=4"):
        moment_sequence(ctx3, 3, 4, counts=counts[:4])
    with pytest.raises(ValueError, match="weight counts up to j=8"):
        pless_check(ctx3, 3, 10, counts=counts[:8], words=words)
    with pytest.raises(ValueError, match="q = 8 dual words"):
        pless_check(ctx3, 3, 2, counts=counts, words=words[:7])


@pytest.mark.parametrize("i", [1, 2, 3, 4])
def test_recursive_step_equals_sequence(i, contexts):
    # moment_recursive and moment_sequence read the same Pless sums
    from kmoments.codes import weight_distribution

    ctx = contexts[4]
    dist = weight_distribution(ctx, i).counts
    mk = moment_sequence(ctx, i, 12).mk
    assert [moment_recursive(ctx, i, h, mk[:h], dist) for h in range(1, 13)] == list(mk[1:])
