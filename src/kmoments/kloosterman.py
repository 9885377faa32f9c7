"""Kloosterman sums over GF(2^r) and brute-force power moments.

K(a) is the exact integer sum of the canonical additive character
lambda(x) = (-1)^tr(x) = 1 - 2 tr(x), read from ``ctx.trace_table``, over
alpha + a/alpha, alpha ranging over the nonzero field elements.  The
table of all K(a) and the moments sum_a K(a)^h computed from it are the
ground-truth oracle against which the recursive moment formulas in
:mod:`kmoments.moments` are verified.  The table is a tuple indexed by
a with entry 0 None, the shape of the character-sum rows;
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

All c_s come from one exact bigint square (Kronecker substitution).

The character-sum row that ``verify`` checks the table against lives in
:mod:`kmoments.checks`, and the literal per-a sums, K(a) and the two
character sums with quadratic denominators, in :mod:`kmoments.oracles`,
which only the tests run.  ``__all__`` still lists them, and each is
read here by name and compiled on first use (PEP 562 ``__getattr__``).
"""

from collections import Counter

from .gf2r import FieldContext, _check_int, _unpack_slots

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
    the literal ``kloosterman_sum``.  Reads only ``ctx.exp`` and
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


def __getattr__(name: str):
    # PEP 562: an __all__ name defined in checks (what verify runs) or in oracles (what only
    # the tests run), imported on first use and then bound here
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import checks as home

    if not hasattr(home, name):
        from . import oracles as home
    value = globals()[name] = getattr(home, name)
    return value
