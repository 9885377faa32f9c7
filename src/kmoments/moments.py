"""Recursive power moments of Kloosterman sums.

The h-th moment MK^h = sum_a K(a)^h satisfies, for each of the four
codes, a recursion expressing MK^h through MK^0..MK^(h-1) and the
code's weight counts C_{i,j} for j <= h.  The recursions fall out of
the Pless power moment identity applied to the dual codes, whose
weights are the closed forms in :mod:`kmoments.codes`; codes 1 and 2
require r >= 3 (where the dual map is injective), codes 3 and 4 work
at every r.

Everything here is exact integer arithmetic: the leading terms are of
order (q-1)^h or (q+1)^h and cancel down to O(q^(h/2+1)) results, so
approximate arithmetic would be useless.  MK^0 = q - 1 is the seed and
is never produced by the recursion.
"""

from __future__ import annotations

from collections import Counter
from math import comb, factorial

from ._record import Record
from .codes import code_length, dual_words, weight_distribution
from .gf2r import FieldContext

__all__ = [
    "MomentSequence",
    "binom",
    "stirling2",
    "stirling2_explicit",
    "moment_recursive",
    "moment_sequence",
    "pless_check",
]


def binom(b: int, a: int) -> int:
    """Binomial coefficient with C(b, a) = 0 whenever a < 0 or a > b."""
    if a < 0 or a > b:
        return 0
    return comb(b, a)


def _next_stirling2_row(row: list[int]) -> list[int]:
    """S(n, 0..n) from S(n-1, 0..n-1), by S(n, k) = k S(n-1, k) + S(n-1, k-1)."""
    n = len(row)
    return [0] + [k * (row[k] if k < n else 0) + row[k - 1] for k in range(1, n + 1)]


def _stirling2_row(h: int) -> list[int]:
    """S(h, 0..h), by the additive recurrence."""
    row = [1]  # S(0, *)
    for _ in range(h):
        row = _next_stirling2_row(row)
    return row


def stirling2(h: int, t: int) -> int:
    """Stirling number of the second kind, by the additive recurrence."""
    if t < 0 or t > h:
        return 0
    return _stirling2_row(h)[t]


def stirling2_explicit(h: int, t: int) -> int:
    """Stirling number via the alternating binomial sum (cross-check route)."""
    if t < 0 or t > h:
        return 0
    total = sum((-1) ** (t - j) * comb(t, j) * j**h for j in range(t + 1))
    s, rem = divmod(total, factorial(t))
    if rem:
        raise ArithmeticError(f"alternating sum for S({h}, {t}) not divisible by {t}!")
    return s


class MomentSequence(Record):
    """MK^0 .. MK^h_max as exact integers."""

    __slots__ = ("h_max", "mk")
    h_max: int
    mk: tuple[int, ...]

    def __getitem__(self, h: int) -> int:
        return self.mk[h]


def _pless_sums(h_max: int, n: int, dist) -> list[int]:
    """P_h for h = 0..h_max, in one pass over the Stirling rows S(h, *).

    P_h = sum_{j <= min(N, h)} (-1)^j C_j sum_{t=j..h} t! S(h, t) 2^(h-t) binom(N-j, N-t),
    the Pless right side over the counts C_j in ``dist`` with the 2^r
    dual size left out.  Row h comes from row h - 1, and the t-only
    factors are built once per h.
    """
    sums = []
    row = [1]  # S(0, *)
    for h in range(h_max + 1):
        if h:
            row = _next_stirling2_row(row)
        weights = [factorial(t) * row[t] << (h - t) for t in range(h + 1)]
        sums.append(
            sum(
                (-1) ** j * dist[j] * sum(weights[t] * binom(n - j, n - t) for t in range(j, h + 1))
                for j in range(min(n, h) + 1)
            )
        )
    return sums


def _check_moment_args(ctx: FieldContext, i: int, h: int) -> None:
    if i not in (1, 2, 3, 4):
        raise ValueError(f"code index must be 1..4, got {i}")
    if i in (1, 2) and ctx.r < 3:
        raise ValueError(f"the code-{i} recursion needs r >= 3, got r={ctx.r}")
    if h < 0:
        raise ValueError("moment order must be nonnegative")


def _recursion_step(q: int, i: int, h: int, lower, pless: int) -> int:
    """MK^h from MK^0..MK^(h-1) in ``lower`` and P_h of ``_pless_sums``."""
    if i in (1, 2):
        first = sum(
            (-1) ** (h + l + 1) * binom(h, l) * (q - 1) ** (h - l) * lower[l]
            for l in range(h)
        )
        pless *= (-1) ** h
    else:
        first = -sum(binom(h, l) * (q + 1) ** (h - l) * lower[l] for l in range(h))
    # codes with doubled coordinates halve the power of two in each term:
    # 2^(h-t) for codes 1 and 3, 2^(2h-t) for codes 2 and 4
    if i in (2, 4):
        pless <<= h
    return first + q * pless


def _counts(ctx: FieldContext, i: int, j_top: int, counts) -> tuple[int, ...]:
    # the weight counts C_0..C_j_top at least: the given ones, or one distribution build
    if counts is None:
        return weight_distribution(ctx, i, j_max=j_top).counts
    if len(counts) < j_top + 1:
        raise ValueError(f"need weight counts up to j={j_top}, got {len(counts)}")
    return counts


def moment_recursive(ctx: FieldContext, i: int, h: int, lower, dist) -> int:
    """MK^h from lower moments and the weight counts of code i.

    ``lower`` must hold MK^0..MK^(h-1) and ``dist`` the counts
    C_{i,0}..C_{i,min(N_i,h)} at least; counts beyond weight h cannot
    contribute (their binomial factor vanishes).  Requires h >= 1.
    """
    _check_moment_args(ctx, i, h)
    if h == 0:
        raise ValueError("MK^0 = q - 1 is the seed, not a recursion output")
    n = code_length(ctx, i)
    j_top = min(n, h)
    if len(lower) < h:
        raise ValueError(f"need MK^0..MK^{h - 1}, got {len(lower)} values")
    if len(dist) < j_top + 1:
        raise ValueError(f"need weight counts up to j={j_top}, got {len(dist)}")
    return _recursion_step(ctx.q, i, h, lower, _pless_sums(h, n, dist)[h])


def moment_sequence(ctx: FieldContext, i: int, h_max: int, counts=None) -> MomentSequence:
    """Iterate the code-i recursion from the seed MK^0 = q - 1 up to h_max.

    ``counts`` may give the weight counts C_0..C_j of code i for some
    j >= min(N, h_max); without it the distribution is built up to there.
    """
    _check_moment_args(ctx, i, h_max)
    n = code_length(ctx, i)
    dist = _counts(ctx, i, min(n, h_max), counts)
    sums = _pless_sums(h_max, n, dist)
    mk = [ctx.q - 1]
    for h in range(1, h_max + 1):
        mk.append(_recursion_step(ctx.q, i, h, mk, sums[h]))
    return MomentSequence(h_max=h_max, mk=tuple(mk))


def pless_check(ctx: FieldContext, i: int, h_max: int, counts=None, words=None) -> tuple:
    """Both sides of the Pless power moment identity for the dual of code i.

    Returns one (lhs, rhs, equal) triple for each order h = 0..h_max.
    Left side: sum of weight^h over the q dual codewords c_i(a), the
    zero word counting 1 when h = 0 (0**0 == 1); the words are built
    once, by linearity from their trace bits (``dual_words``), and never
    from the Walsh-Hadamard weight histogram that the weight counts come
    from.  Right side: the Stirling-number expansion over the code's
    weight counts, with alphabet size 2 and dual dimension r, always a
    Fraction because the 2^(r-t) factor has t ranging past r (it is
    integral whenever the identity holds).  The weight distribution is
    built once, up to weight min(N, h_max).

    ``counts`` (C_0..C_j, j >= min(N, h_max)) and ``words`` (all q words
    as ``dual_words`` returns them) may be passed in by a caller that
    has already built them; they are then used as given.
    """
    # fractions pulls in decimal: imported here, by the one check that needs it
    from fractions import Fraction

    _check_moment_args(ctx, i, h_max)
    n = code_length(ctx, i)
    dist = _counts(ctx, i, min(n, h_max), counts)
    if words is None:
        words = dual_words(ctx, i)
    elif len(words) != ctx.q:
        raise ValueError(f"need the q = {ctx.q} dual words, got {len(words)}")
    dual_weights = Counter(word.bit_count() for word in words)
    checks = []
    for h, pless in enumerate(_pless_sums(h_max, n, dist)):
        lhs = sum(c * w**h for w, c in dual_weights.items())
        # 2^(r-t) = 2^(h-t) 2^r / 2^h, so the integer sum scales exactly
        rhs = Fraction(pless << ctx.r, 1 << h)
        checks.append((lhs, rhs, rhs == lhs))
    return tuple(checks)
