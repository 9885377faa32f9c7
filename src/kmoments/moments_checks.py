"""The Pless power moment identity, both sides, which ``verify`` checks.

This module holds what ``verify`` runs of the moments layer:
:mod:`kmoments.moments` lists ``pless_check`` in its ``__all__`` and
compiles this module on its first read.  It reads the names of
``moments`` through the module at call time, so that a function patched
there reaches it too.

``pless_check`` compares the power sums of the q dual weights, from the
Gray-code walk of :mod:`kmoments.codes_checks`, with the Pless right
side over the code's weight counts.
"""

from collections import Counter

from . import moments
from .gf2r import FieldContext

__all__ = ["pless_check"]


def pless_check(ctx: FieldContext, i: int, weights, sums) -> tuple:
    """Both sides of the Pless power moment identity for the dual of code i.

    Returns one (lhs, rhs, equal) triple for each order h = 0..h_max.
    Left side: sum of weight^h over the q dual codewords c_i(a), the
    zero word counting 1 when h = 0 (0**0 == 1); ``weights`` holds all q
    of them, as ``codes_checks.dual_weights`` returns them from one walk
    over the trace words, never from the Walsh-Hadamard weight histogram
    that the weight counts come from.  Right side: the Stirling-number
    expansion over the code's weight counts, with alphabet size 2 and
    dual dimension r, as an int; ``sums`` holds it for h = 0..h_max with
    the 2^r left out, as ``moments._pless_sums`` returns it.  Its terms
    t! S(h, t) 2^(r-t) are integers for any integer counts, since
    C(N-j, N-t) vanishes past t = N <= 2^r, so popcount(t) <= r and
    2^(t - popcount(t)) divides t!.  A remainder raises ArithmeticError.
    """
    moments._check_code(ctx, i)
    histogram = Counter(weights)
    checks = []
    for h, pless in enumerate(sums):
        lhs = sum(c * w**h for w, c in histogram.items())
        # 2^(r-t) = 2^(h-t) 2^r / 2^h, so the integer sum scales exactly
        rhs, rem = divmod(pless << ctx.r, 1 << h)
        if rem:
            raise ArithmeticError(f"Pless sum P_{h} * 2^{ctx.r} not divisible by 2^{h}")
        checks.append((lhs, rhs, rhs == lhs))
    return tuple(checks)
