"""The defining vectors, codeword membership, and the dual words one a at a time.

These are the oracles of the codes layer, which only the tests run:
:mod:`kmoments.codes` lists their names in ``__all__`` and compiles this
module on the first read of one.  ``build_vector`` writes vector i out
from its definition, the field's theta, b and inverse table, and shares
no entry builder with the production rows.  ``dual_codeword`` builds
c_i(a) from exp/log products, the per-a oracle of
``codes_checks.dual_weights``; ``dual_weight_closed_form`` gives its
weight from K(a), which it takes as an argument, so this module, like
``codes``, never imports the Kloosterman layer.  It reads the names of
``codes`` and ``codes_checks`` through the modules at call time.
"""

from math import isqrt

from . import codes, codes_checks
from .gf2r import FieldContext, _check_int

__all__ = [
    "build_vector",
    "is_codeword",
    "dual_codeword",
    "dual_weight_closed_form",
]


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
    num, den = codes_checks.dual_weight_fraction(q, i, k)
    w, rem = divmod(num, den)
    if rem:
        raise ArithmeticError(f"weight {num}/{den} not integral; K(a)={k}")
    return w
