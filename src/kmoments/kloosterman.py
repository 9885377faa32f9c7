"""Kloosterman sums over GF(2^r) and brute-force power moments.

K(a) is the exact integer sum of the canonical additive character
lambda(x) = (-1)^tr(x) = 1 - 2 tr(x), read from ``ctx.trace_table``, over
alpha + a/alpha, alpha ranging over the nonzero field elements.  The
table of all K(a) and the moments sum_a K(a)^h computed from it are the
ground-truth oracle against which the recursive moment formulas in
:mod:`kmoments.moments` are verified.  The table is a tuple indexed by
a with entry 0 None, the shape of the character-sum rows below;
``moment_bruteforce`` gives the whole column MK^0..MK^h_max from it,
the shape ``moment_sequence`` returns.

The table is one cyclic self-convolution.  lambda is an additive
character, so lambda(alpha + a/alpha) = lambda(alpha) lambda(a/alpha).
With g the primitive element behind ``ctx.exp``, f(t) = lambda(g^t) and
alpha = g^t, a = g^s, this gives K(g^s) = sum_t f(t) f(s - t mod q-1).
Write f = 2u - 1 with u(t) = 1 - tr(g^t) in {0, 1}; u marks the q/2 - 1
nonzero trace-zero elements, so sum_t u(t) = q/2 - 1 and

    K(g^s) = 4 c_s - 4 (q/2 - 1) + (q - 1) = 4 c_s - q + 3,
    c_s = sum_t u(t) u(s - t mod q-1).

All c_s come from one exact bigint square (Kronecker substitution); the
literal :func:`kloosterman_sum` stays as the per-a oracle.

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
the per-a functions, literal sums over every alpha, are its oracles.
"""

from __future__ import annotations

from collections import Counter

from .gf2r import FieldContext, _check_int, _trace_map, _unpack_slots, _walsh_hadamard

__all__ = [
    "kloosterman_sum",
    "kloosterman_table",
    "moment_bruteforce",
    "split_quadratic_char_sum",
    "irreducible_quadratic_char_sum",
    "quadratic_char_sums",
]

# bytes per coefficient slot of the packed convolution.  Every linear
# coefficient lin[k] = sum_{i+j=k} u(i) u(j), and every folded c_s, is at
# most sum_t u(t) = q/2 - 1 < 2^15 for r <= 16 (the field's MAX_DEGREE),
# so two bytes never carry into the next slot
_SLOT_BYTES = 2


def kloosterman_sum(ctx: FieldContext, a: int) -> int:
    """K(a) = sum over nonzero alpha of (-1)^tr(alpha + a/alpha)."""
    _check_int("a", a, 1, ctx.q - 1)
    trace, exp, log = ctx.trace_table, ctx.exp, ctx.log
    qm1 = ctx.q - 1
    la = log[a]
    # a/alpha via logs: log(a) - log(alpha) mod q-1, kept nonnegative
    return sum(1 - 2 * trace[alpha ^ exp[la - log[alpha] + qm1]] for alpha in range(1, ctx.q))


def kloosterman_table(ctx: FieldContext) -> tuple[int | None, ...]:
    """Every K(a), as a tuple indexed by a with entry 0 None.

    The values come from one cyclic self-convolution of length q - 1.
    K(g^s) = sum_t f(t) f(s - t mod q-1) with f(t) = lambda(g^t), g the
    primitive element behind ``ctx.exp``.  Substituting f = 2u - 1, with
    u(t) = 1 - tr(g^t) in {0, 1} and sum_t u(t) = q/2 - 1, gives
    K(g^s) = 4 c_s - q + 3 with c_s = sum_t u(t) u(s - t mod q-1) (see
    the module docstring).  u is packed into one int, one
    ``_SLOT_BYTES``-byte slot per t, so squaring that int leaves the
    linear convolution lin[0..2q-4] in the slots of the product, and
    c_s = lin[s] + lin[s + q - 1] folds it into the cyclic one.  One
    exact bigint square (Karatsuba in CPython) replaces q - 1 calls to
    :func:`kloosterman_sum`.  Reads only ``ctx.exp`` and
    ``ctx.trace_table``, never the codes.
    """
    q, qm1, exp, trace = ctx.q, ctx.q - 1, ctx.exp, ctx.trace_table
    ones = q // 2 - 1
    if ones >= 1 << (8 * _SLOT_BYTES):
        raise ArithmeticError(f"{_SLOT_BYTES}-byte slots cannot hold counts up to {ones}")
    packed = bytearray(2 * qm1 * _SLOT_BYTES)
    packed[: qm1 * _SLOT_BYTES : _SLOT_BYTES] = bytes(1 - trace[exp[t]] for t in range(qm1))
    u = int.from_bytes(packed, "little")
    lin = _unpack_slots(u * u, 2 * qm1, _SLOT_BYTES)
    # sum_k lin[k] = (sum_t u(t))^2 holds only if no slot carried into
    # the next and the slots were read in the right byte order
    if sum(lin) != ones * ones:
        raise ArithmeticError(f"convolution slots sum to {sum(lin)}, not {ones}^2")
    k = [None] * q
    for s in range(qm1):
        k[exp[s]] = 4 * (lin[s] + lin[s + qm1]) - q + 3
    return tuple(k)


def moment_bruteforce(ctx: FieldContext, h_max: int, table: tuple[int | None, ...]) -> tuple[int, ...]:
    """MK^0..MK^h_max, MK^h the exact sum over nonzero a of K(a)^h, from ``kloosterman_table(ctx)``.

    The q - 1 values are counted once, and MK^h is the sum of n_k k^h
    over the distinct values k, n_k the number of a with K(a) = k: the
    same exact sums, grouped by value.
    """
    _check_int("h_max", h_max, 0)
    if len(table) != ctx.q:
        raise ValueError(f"need the table of the q = {ctx.q} field, got {len(table)} entries")
    counts = Counter(table[1:]).items()
    return tuple(sum(n * k**h for k, n in counts) for h in range(h_max + 1))


def split_quadratic_char_sum(ctx: FieldContext, a: int) -> int:
    """Character sum of a/(alpha^2 + alpha) over alpha outside {0, 1}.

    The denominator is the Artin-Schreier polynomial, split over GF(2);
    its q-2 nonroots contribute, and the sum equals K(a) - 1.
    """
    _check_int("a", a, 1, ctx.q - 1)
    trace, exp, log = ctx.trace_table, ctx.exp, ctx.log
    qm1 = ctx.q - 1
    la = log[a]
    # alpha^2 = exp[2 log alpha] and a/d = exp[log a - log d + q-1]
    return sum(
        1 - 2 * trace[exp[la - log[exp[2 * log[alpha]] ^ alpha] + qm1]] for alpha in range(2, ctx.q)
    )


def irreducible_quadratic_char_sum(ctx: FieldContext, a: int, b: int) -> int:
    """Character sum of a/(alpha^2 + alpha + b) over every alpha.

    Requires tr(b) = 1, which is exactly the condition making
    x^2 + x + b irreducible, so the denominator never vanishes.
    The sum equals -K(a) - 1 and does not depend on which trace-one
    b is supplied.
    """
    _check_int("a", a, 1, ctx.q - 1)
    _check_int("b", b, 0, ctx.q - 1)
    if ctx.trace_table[b] != 1:
        raise ValueError("b must have trace 1 (x^2+x+b irreducible)")
    trace, exp, log = ctx.trace_table, ctx.exp, ctx.log
    qm1 = ctx.q - 1
    la = log[a]
    squares = [0] + [exp[2 * log[alpha]] for alpha in range(1, ctx.q)]
    # a/d = exp[log a - log d + q-1], with d = alpha^2 + alpha + b != 0
    return sum(
        1 - 2 * trace[exp[la - log[sq ^ alpha ^ b] + qm1]] for alpha, sq in enumerate(squares)
    )


def quadratic_char_sums(ctx: FieldContext, b: int) -> list[int | None]:
    """Sum of lambda(a/(alpha^2 + alpha + b)) over the alpha where it is defined, at every a.

    A list indexed by a, entry 0 None; any field element b is taken.
    Entry a is (-1)^tr(b) K(a) - 1: b = 0 gives
    ``split_quadratic_char_sum`` and a trace-one b
    ``irreducible_quadratic_char_sum``, its oracles.  alpha and alpha + 1
    give the same denominator, and the denominators are the set D of
    nonzero d in b + theta, so entry a is twice the sum of lambda(a/d)
    over D.  With phi(y) = sum_j tr(2^j y) 2^j, the table
    ``gf2r._trace_map``, tr(a y) is the parity of a & phi(y); so the
    sum is F(a) = sum_z f[z] (-1)^popcount(a & z), with f the indicator
    of phi(1/d) over D: one ``gf2r._walsh_hadamard`` of f, with
    n = |D| = q/2 - 1 + tr(b).
    """
    _check_int("b", b, 0, ctx.q - 1)
    phi = _trace_map(ctx)
    points = [phi[ctx.inv_table[t ^ b]] for t in ctx.theta if t != b]
    f = _walsh_hadamard(ctx.q, points, 1, ctx.q // 2 - 1 + ctx.trace_table[b])
    return [None] + [2 * x for x in f[1:]]
