"""The character-sum row, which ``verify`` checks the K table against.

This module holds what ``verify`` runs of the Kloosterman layer:
:mod:`kmoments.kloosterman` lists its name in ``__all__`` and compiles
this module on the first read.  Like the K table, it reads the field's
tables alone, never a code.

The two further character sums of the paper have quadratic
denominators, split (x^2 + x over alpha outside {0, 1}) or irreducible
(x^2 + x + b over every alpha, tr(b) = 1).  Both are one family in b:
summed over the alpha with alpha^2 + alpha + b != 0, lambda(a/(alpha^2 +
alpha + b)) gives (-1)^tr(b) K(a) - 1 for every b, which is the identity
underlying the dual-codeword weights in :mod:`kmoments.codes`.  The
denominator takes each value d of D, the nonzero elements of b + theta,
at exactly two alpha, alpha and alpha + 1, so ``quadratic_char_sums``
gives every a at once as twice a sum over D: b = 0 is the split row, a
trace-one b the irreducible row.  The row uses the additive characters,
not the multiplicative convolution: lambda(a/d) = (-1)^tr(a y) with
y = 1/d, so the sum over D is the Walsh-Hadamard transform of the
inverses of D, after the linear map phi = ``gf2r._trace_map`` that
turns tr(a y) into the parity of a & phi(y): ``gf2r._walsh_hadamard``,
the packed transform behind the codes' dual weights, O(q r) per b.  A
packed product of u with the indicator of log D would be no check:
b + theta is theta or its complement, so that product is the K table's
own square u * u, or sum u minus it.  The row reads no K value and
shares only the slot reader ``gf2r._unpack_slots`` with the K table;
its oracles are the literal sums of :mod:`kmoments.kloosterman_oracles`.
"""

from .gf2r import FieldContext, _check_int, _walsh_hadamard

__all__ = ["quadratic_char_sums"]


def quadratic_char_sums(ctx: FieldContext, b: int, phi) -> list[int | None]:
    """Sum of lambda(a/(alpha^2 + alpha + b)) over the alpha where it is defined, at every a.

    A list indexed by a, entry 0 None; any field element b is taken.
    Entry a is (-1)^tr(b) K(a) - 1: b = 0 gives
    ``split_quadratic_char_sum`` and a trace-one b
    ``irreducible_quadratic_char_sum``, its oracles.  alpha and alpha + 1
    give the same denominator, and the denominators are the set D of
    nonzero d in b + theta, so entry a is twice the sum of lambda(a/d)
    over D.  With ``phi`` the table ``gf2r._trace_map``,
    phi(y) = sum_j tr(2^j y) 2^j, tr(a y) is the parity of a & phi(y); so
    the sum is F(a) = sum_z f[z] (-1)^popcount(a & z), with f the
    indicator of phi(1/d) over D: one ``gf2r._walsh_hadamard`` of f, with
    n = |D| = q/2 - 1 + tr(b).
    """
    _check_int("b", b, 0, ctx.q - 1)
    points = [phi[ctx.inv_table[t ^ b]] for t in ctx.theta if t != b]
    f = _walsh_hadamard(ctx.q, points, ctx.q // 2 - 1 + ctx.trace_table[b])
    return [None] + [2 * x for x in f[1:]]
