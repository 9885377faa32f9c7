"""The literal Kloosterman and quadratic character sums, one a at a time.

These are the oracles of the Kloosterman layer, which only the tests
run: :mod:`kmoments.kloosterman` lists their names in ``__all__`` and
compiles this module on the first read of one.  Each is a literal sum
over every alpha, read from the field's tables alone:
``kloosterman_sum`` is the oracle of ``kloosterman.kloosterman_table``,
and the two quadratic-denominator sums, at b = 0 and at a trace-one b,
are the oracles of the character-sum row
``kloosterman_checks.quadratic_char_sums``.
"""

from .gf2r import FieldContext, _check_int

__all__ = [
    "kloosterman_sum",
    "split_quadratic_char_sum",
    "irreducible_quadratic_char_sum",
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
