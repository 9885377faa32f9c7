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
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial

from .codes import code_length, dual_codeword, weight_distribution
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


def stirling2(h: int, t: int) -> int:
    """Stirling number of the second kind, by the additive recurrence."""
    if t < 0 or t > h:
        return 0
    row = [1]  # S(0, *)
    for n in range(1, h + 1):
        row = [0] + [
            k * (row[k] if k < len(row) else 0) + row[k - 1] for k in range(1, n + 1)
        ]
    return row[t]


def stirling2_explicit(h: int, t: int) -> int:
    """Stirling number via the alternating binomial sum (cross-check route)."""
    if t < 0 or t > h:
        return 0
    total = sum((-1) ** (t - j) * comb(t, j) * j**h for j in range(t + 1))
    s, rem = divmod(total, factorial(t))
    assert rem == 0
    return s


@dataclass(frozen=True)
class MomentSequence:
    """MK^0 .. MK^h_max as exact integers."""

    h_max: int
    mk: tuple[int, ...]

    def __getitem__(self, h: int) -> int:
        return self.mk[h]


def _check_moment_args(ctx: FieldContext, i: int, h: int) -> None:
    if i not in (1, 2, 3, 4):
        raise ValueError(f"code index must be 1..4, got {i}")
    if i in (1, 2) and ctx.r < 3:
        raise ValueError(f"the code-{i} recursion needs r >= 3, got r={ctx.r}")
    if h < 0:
        raise ValueError("moment order must be nonnegative")


def moment_recursive(ctx: FieldContext, i: int, h: int, lower, dist) -> int:
    """MK^h from lower moments and the weight counts of code i.

    ``lower`` must hold MK^0..MK^(h-1) and ``dist`` the counts
    C_{i,0}..C_{i,min(N_i,h)} at least; counts beyond weight h cannot
    contribute (their binomial factor vanishes).  Requires h >= 1.
    """
    _check_moment_args(ctx, i, h)
    if h == 0:
        raise ValueError("MK^0 = q - 1 is the seed, not a recursion output")
    q = ctx.q
    n = code_length(ctx, i)
    j_top = min(n, h)
    if len(lower) < h:
        raise ValueError(f"need MK^0..MK^{h - 1}, got {len(lower)} values")
    if len(dist) < j_top + 1:
        raise ValueError(f"need weight counts up to j={j_top}, got {len(dist)}")

    if i in (1, 2):
        first = sum(
            (-1) ** (h + l + 1) * binom(h, l) * (q - 1) ** (h - l) * lower[l]
            for l in range(h)
        )
    else:
        first = -sum(binom(h, l) * (q + 1) ** (h - l) * lower[l] for l in range(h))

    # codes with doubled coordinates halve the power of two in each term
    pow2 = (lambda t: h - t) if i in (1, 3) else (lambda t: 2 * h - t)
    second = 0
    for j in range(j_top + 1):
        inner = sum(
            factorial(t) * stirling2(h, t) * (1 << pow2(t)) * binom(n - j, n - t)
            for t in range(j, h + 1)
        )
        sign = (-1) ** (h + j) if i in (1, 2) else (-1) ** j
        second += sign * dist[j] * inner
    return first + q * second


def moment_sequence(ctx: FieldContext, i: int, h_max: int) -> MomentSequence:
    """Iterate the code-i recursion from the seed MK^0 = q - 1 up to h_max."""
    _check_moment_args(ctx, i, h_max)
    j_max = min(code_length(ctx, i), h_max)
    dist = weight_distribution(ctx, i, j_max=j_max).counts
    mk = [ctx.q - 1]
    for h in range(1, h_max + 1):
        mk.append(moment_recursive(ctx, i, h, mk, dist))
    return MomentSequence(h_max=h_max, mk=tuple(mk))


def pless_check(
    ctx: FieldContext, i: int, h_max: int
) -> tuple[tuple[int, Fraction, bool], ...]:
    """Both sides of the Pless power moment identity for the dual of code i.

    Returns one (lhs, rhs, equal) triple for each order h = 0..h_max.
    Left side: sum of weight^h over the dual codewords c_i(a), the zero
    word counting 1 when h = 0; the words are built once, from their
    trace bits, and never from the Walsh-Hadamard weight histogram that
    the weight counts come from.  Right side: the Stirling-number
    expansion over the code's weight counts, with alphabet size 2 and
    dual dimension r, always a Fraction because the 2^(r-t) factor has
    t ranging past r (it is integral whenever the identity holds).  The
    weight distribution is built once, up to weight min(N, h_max).
    """
    _check_moment_args(ctx, i, h_max)
    n = code_length(ctx, i)
    dist = weight_distribution(ctx, i, j_max=min(n, h_max)).counts
    dual_weights = Counter(dual_codeword(ctx, i, a).weight for a in ctx.nonzero())
    checks = []
    for h in range(h_max + 1):
        lhs = (1 if h == 0 else 0) + sum(c * w**h for w, c in dual_weights.items())
        rhs = Fraction(0)
        for j in range(min(n, h) + 1):
            inner = sum(
                factorial(t) * stirling2(h, t) * Fraction(2) ** (ctx.r - t) * binom(n - j, n - t)
                for t in range(j, h + 1)
            )
            rhs += (-1) ** j * dist[j] * inner
        checks.append((lhs, rhs, rhs == lhs))
    return tuple(checks)
