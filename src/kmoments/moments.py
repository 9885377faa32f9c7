"""Recursive power moments of Kloosterman sums.

The h-th moment MK^h = sum_a K(a)^h satisfies, for each of the four
codes, a recursion expressing MK^h through MK^0..MK^(h-1) and the
code's weight counts C_{i,j} for j <= h.  The recursions fall out of
the Pless power moment identity applied to the dual codes, whose
weights are the closed forms in :mod:`kmoments.codes`.  The identity
holds for every code wherever it exists (codes 1 and 2 from r = 2,
codes 3 and 4 at every r): at r = 2 the dual map of codes 1 and 2 is
2-to-1, and both the sum over a and the weight counts count each dual
word twice.

Everything here is exact integer arithmetic: the leading terms are of
order (q-1)^h or (q+1)^h and cancel down to O(q^(h/2+1)) results, so
approximate arithmetic would be useless.  MK^0 = q - 1 is the seed and
is never produced by the recursion.
"""

from __future__ import annotations

from collections import Counter
from math import comb, factorial

from .codes import _check_code, code_length, code_shape, dual_weights, weight_distribution
from .gf2r import FieldContext, _check_int

__all__ = [
    "stirling2_explicit",
    "moment_sequence",
    "pless_check",
]


def _next_stirling2_row(row: list[int]) -> list[int]:
    """S(n, 0..n) from S(n-1, 0..n-1), by S(n, k) = k S(n-1, k) + S(n-1, k-1)."""
    n = len(row)
    return [0] + [k * (row[k] if k < n else 0) + row[k - 1] for k in range(1, n + 1)]


def stirling2_explicit(h: int, t: int) -> int:
    """Stirling number via the alternating binomial sum (cross-check route)."""
    _check_int("h", h, 0)
    _check_int("t", t)
    if t < 0 or t > h:
        return 0
    total = sum((-1) ** (t - j) * comb(t, j) * j**h for j in range(t + 1))
    s, rem = divmod(total, factorial(t))
    if rem:
        raise ArithmeticError(f"alternating sum for S({h}, {t}) not divisible by {t}!")
    return s


def _pless_sums(h_max: int, n: int, dist) -> list[int]:
    """P_h for h = 0..h_max, in O(h_max^2) exact terms.

    P_h = sum_{j <= min(N, h)} (-1)^j C_j sum_{t=j..min(h, N)} t! S(h, t) 2^(h-t) C(N-j, N-t),
    the Pless right side over the counts C_j in ``dist`` with the 2^r
    dual size left out (C(N-j, N-t) would vanish past t = N).  Swapping
    the sums gives P_h = sum_{t <= min(h, N)} t! S(h, t) 2^(h-t) B_t with
    B_t = sum_{j <= t} (-1)^j C_j C(N-j, N-t), which does not depend on h:
    the B_t are built once, and the Stirling row h comes from row h - 1.
    """
    b_sums = [
        sum((-1) ** j * dist[j] * comb(n - j, n - t) for j in range(t + 1)) for t in range(min(n, h_max) + 1)
    ]
    sums = []
    row = [1]  # S(0, *)
    for h in range(h_max + 1):
        if h:
            row = _next_stirling2_row(row)
        sums.append(sum(factorial(t) * row[t] * b_sums[t] << (h - t) for t in range(min(h, n) + 1)))
    return sums


def _check_moment_args(ctx: FieldContext, i: int, h_max: int) -> None:
    _check_code(ctx, i)
    _check_int("h_max", h_max, 0)


def _recursion_step(q: int, i: int, h: int, lower, pless: int) -> int:
    """MK^h from MK^0..MK^(h-1) in ``lower`` and P_h of ``_pless_sums``.

    With s K(a) = d wt(c_i(a)) - c (s = -1, c = q - 1 for the trace-zero codes,
    s = 1, c = q + 1 for the trace-one codes, d = 4 / copies), the h-th powers
    summed over a give MK^h = s^h (q P_h 2^(h [copies = 1]) - sum_{l<h} C(h, l) c^(h-l) s^l MK^l).
    """
    trace, copies = code_shape(i)
    s = 1 if trace else -1
    c = q + s
    lower_terms = sum(comb(h, l) * c ** (h - l) * s**l * lower[l] for l in range(h))
    return s**h * ((q * pless << (h if copies == 1 else 0)) - lower_terms)


def _counts(ctx: FieldContext, i: int, j_top: int, counts) -> tuple[int, ...]:
    # the weight counts C_0..C_j_top at least: the given ones, or one distribution build
    if counts is None:
        return weight_distribution(ctx, i, j_max=j_top)
    if len(counts) < j_top + 1:
        raise ValueError(f"need weight counts up to j={j_top}, got {len(counts)}")
    return counts


def moment_sequence(ctx: FieldContext, i: int, h_max: int, counts=None) -> tuple[int, ...]:
    """MK^0..MK^h_max, iterating the code-i recursion from the seed MK^0 = q - 1.

    ``counts``, the tuple ``weight_distribution`` returns, may give the
    weight counts C_0..C_j of code i for some j >= min(N, h_max);
    without it the distribution is built up to there.
    """
    _check_moment_args(ctx, i, h_max)
    n = code_length(ctx, i)
    dist = _counts(ctx, i, min(n, h_max), counts)
    sums = _pless_sums(h_max, n, dist)
    mk = [ctx.q - 1]
    for h in range(1, h_max + 1):
        mk.append(_recursion_step(ctx.q, i, h, mk, sums[h]))
    return tuple(mk)


def pless_check(ctx: FieldContext, i: int, h_max: int, counts=None, weights=None) -> tuple:
    """Both sides of the Pless power moment identity for the dual of code i.

    Returns one (lhs, rhs, equal) triple for each order h = 0..h_max.
    Left side: sum of weight^h over the q dual codewords c_i(a), the
    zero word counting 1 when h = 0 (0**0 == 1); the q weights come from
    one walk over the trace words (``dual_weights``), never from the
    Walsh-Hadamard weight histogram that the weight counts come from.
    Right side: the Stirling-number expansion over the code's weight
    counts, with alphabet size 2 and dual dimension r, as an int: its
    terms t! S(h, t) 2^(r-t) are integers for any integer counts, since
    C(N-j, N-t) vanishes past t = N <= 2^r, so popcount(t) <= r and
    2^(t - popcount(t)) divides t!.  A remainder raises ArithmeticError.
    The weight distribution is built once, up to weight min(N, h_max).

    ``counts`` (C_0..C_j, j >= min(N, h_max), the tuple
    ``weight_distribution`` returns) and ``weights`` (all q weights as
    ``dual_weights`` returns them) may be passed in by a caller that has
    already built them; they are then used as given.
    """
    _check_moment_args(ctx, i, h_max)
    n = code_length(ctx, i)
    dist = _counts(ctx, i, min(n, h_max), counts)
    if weights is None:
        weights = dual_weights(ctx, i)
    elif len(weights) != ctx.q:
        raise ValueError(f"need the q = {ctx.q} dual weights, got {len(weights)}")
    histogram = Counter(weights)
    checks = []
    for h, pless in enumerate(_pless_sums(h_max, n, dist)):
        lhs = sum(c * w**h for w, c in histogram.items())
        # 2^(r-t) = 2^(h-t) 2^r / 2^h, so the integer sum scales exactly
        rhs, rem = divmod(pless << ctx.r, 1 << h)
        if rem:
            raise ArithmeticError(f"Pless sum P_{h} * 2^{ctx.r} not divisible by 2^{h}")
        checks.append((lhs, rhs, rhs == lhs))
    return tuple(checks)
