"""The oracles of the three layers, which only the tests run: each a literal sum or a
definition, one a at a time.

Each layer, :mod:`kmoments.kloosterman`, :mod:`kmoments.codes` and
:mod:`kmoments.moments`, lists the names defined here that belong to it
in its ``__all__`` and compiles this module on the first read of one
(PEP 562 ``__getattr__``); no CLI run compiles it.  It reads the names
of ``codes`` and ``checks`` through the modules at call time.

``kloosterman_sum`` is the literal sum over every alpha behind one K(a),
the oracle of ``kloosterman.kloosterman_table``; the two
quadratic-denominator sums, at b = 0 and at a trace-one b, are the
oracles of the character-sum row ``checks.quadratic_char_sums``.  Each
reads the field's tables alone.

``build_vector`` writes vector i out from its definition, the field's
theta, b and inverse table, and shares no entry builder with the
production rows.  ``dual_codeword`` builds c_i(a) from exp/log products,
the per-a oracle of ``checks.dual_weights``; ``dual_weight_closed_form``
gives its weight from K(a), which it takes as an argument, so that no
weight-side module imports the Kloosterman layer.

``stirling2_explicit`` gives the Stirling numbers of the second kind by
the alternating binomial sum; it checks the rows that the recursion
builds one from the last (``moments._next_stirling2_row``).
"""

from math import comb, factorial, isqrt

from . import checks, codes
from .gf2r import FieldContext, _check_int

__all__ = [
    "kloosterman_sum",
    "split_quadratic_char_sum",
    "irreducible_quadratic_char_sum",
    "build_vector",
    "is_codeword",
    "dual_codeword",
    "dual_weight_closed_form",
    "stirling2_explicit",
]


def kloosterman_sum(ctx: FieldContext, a: int) -> int:
    """K(a) = sum over nonzero alpha of (-1)^tr(alpha + a/alpha)."""
    _check_int("a", a, 1, ctx.q - 1)
    trace, exp, log = ctx.trace_table, ctx.exp, ctx.log
    qm1 = ctx.q - 1
    la = log[a]
    # a/alpha via logs: log(a) - log(alpha) mod q-1, kept nonnegative
    return sum(1 - 2 * trace[alpha ^ exp[la - log[alpha] + qm1]] for alpha in range(1, ctx.q))


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


def build_vector(ctx: FieldContext, i: int) -> tuple[int, ...]:
    """The defining vector of code i, entries in GF(2^r)."""
    codes._check_code(ctx, i)
    return _vector(ctx, i)


def _vector(ctx: FieldContext, i: int) -> tuple[int, ...]:
    # the block 1/gamma over the nonzero gamma in theta (trace-zero codes) or 1/(b + gamma)
    # over every gamma in theta (trace-one codes), in theta order, written copies times
    trace, copies = codes.code_shape(i)
    inv = ctx.inv_table
    block = tuple(inv[ctx.b ^ g] for g in ctx.theta) if trace else tuple(inv[g] for g in ctx.theta if g)
    return block * copies


def is_codeword(ctx: FieldContext, i: int, u) -> bool:
    """Whether the binary word u is orthogonal to vector i over GF(2^r)."""
    codes._check_code(ctx, i)
    v = _vector(ctx, i)
    if len(u) != len(v):
        raise ValueError(f"word length {len(u)} != code length {len(v)}")
    acc = 0
    for bit, entry in zip(u, v):
        _check_int("word entry", bit, 0, 1)
        if bit:
            acc ^= entry
    return acc == 0


def dual_codeword(ctx: FieldContext, i: int, a: int) -> tuple[int, ...]:
    """The bits of c_i(a): bit l is the trace of a times entry l of vector i.

    Its weight is pinned down by K(a) (``dual_weight_closed_form``).
    """
    codes._check_code(ctx, i)
    _check_int("a", a, 0, ctx.q - 1)
    v = _vector(ctx, i)
    if a == 0:
        return (0,) * len(v)
    tt, exp, log = ctx.trace_table, ctx.exp, ctx.log
    la = log[a]
    return tuple(tt[exp[la + log[g]]] for g in v)


def dual_weight_closed_form(q: int, i: int, k: int) -> int:
    """Hamming weight of c_i(a) for code i over GF(q), given k = K(a), a != 0.

    k is held to the Weil bound k^2 <= 4q, which every K(a) meets.
    """
    _check_int("q", q, 2)
    _check_int("k", k, -isqrt(4 * q), isqrt(4 * q))
    num, den = checks.dual_weight_fraction(q, i, k)
    w, rem = divmod(num, den)
    if rem:
        raise ArithmeticError(f"weight {num}/{den} not integral; K(a)={k}")
    return w


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
