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

``pless_check``, both sides of the Pless identity, which ``verify``
runs, lives in :mod:`kmoments.checks`, and the explicit Stirling
numbers ``stirling2_explicit``, an oracle only the tests run, in
:mod:`kmoments.oracles`.  ``__all__`` still lists both, and each is
read here by name and compiled on first use (PEP 562 ``__getattr__``).
"""

from math import comb, factorial

from .codes import _check_code, code_length, code_shape, weight_distribution
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


def _recursion(q: int, i: int, sums) -> tuple[int, ...]:
    """MK^0..MK^h_max from the seed MK^0 = q - 1 and ``sums``, P_0..P_h_max of ``_pless_sums``.

    With s K(a) = d wt(c_i(a)) - c (s = -1, c = q - 1 for the trace-zero codes,
    s = 1, c = q + 1 for the trace-one codes, d = 4 / copies), the h-th powers
    summed over a give MK^h = s^h (q P_h 2^(h [copies = 1]) - sum_{l<h} C(h, l) c^(h-l) s^l MK^l).
    """
    trace, copies = code_shape(i)
    s = 1 if trace else -1
    c = q + s
    mk = [q - 1]
    for h in range(1, len(sums)):
        lower_terms = sum(comb(h, l) * c ** (h - l) * s**l * mk[l] for l in range(h))
        mk.append(s**h * ((q * sums[h] << (h if copies == 1 else 0)) - lower_terms))
    return tuple(mk)


def moment_sequence(ctx: FieldContext, i: int, h_max: int) -> tuple[int, ...]:
    """MK^0..MK^h_max, iterating the code-i recursion from the seed MK^0 = q - 1.

    The weight distribution is built up to weight min(N, h_max), and
    ``_recursion`` runs on its Pless sums.
    """
    _check_code(ctx, i)
    _check_int("h_max", h_max, 0)
    n = code_length(ctx, i)
    return _recursion(ctx.q, i, _pless_sums(h_max, n, weight_distribution(ctx, i, j_max=min(n, h_max))))


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
