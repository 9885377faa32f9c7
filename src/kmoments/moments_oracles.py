"""The Stirling numbers of the second kind by the alternating binomial sum.

This is the oracle of the moments layer, which only the tests run:
:mod:`kmoments.moments` lists its name in ``__all__`` and compiles this
module on its first read.  It checks the Stirling rows that the
recursion builds one from the last (``moments._next_stirling2_row``).
"""

from math import comb, factorial

from .gf2r import _check_int

__all__ = ["stirling2_explicit"]


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
