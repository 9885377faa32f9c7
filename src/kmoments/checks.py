"""What ``verify`` runs of the three layers: the character-sum row, the dual words' checks
and the Pless identity.

Each layer, :mod:`kmoments.kloosterman`, :mod:`kmoments.codes` and
:mod:`kmoments.moments`, lists the names defined here that belong to it
in its ``__all__`` and compiles this module on the first read of one
(PEP 562 ``__getattr__``); ``verify`` imports it.  No layer imports it at
load, so a ``moments`` or ``weights`` run never compiles it.  It reads
the names of ``codes`` and ``moments`` through the modules at call time,
so that a function patched there reaches it too.  Every function but the
enumeration takes the stage values it reads as arguments, so ``verify``
builds each once.  Their oracles are in :mod:`kmoments.oracles`.

The character-sum row (``quadratic_char_sums``) is checked against the
K table, and like it reads the field's tables alone, never a code.  The
two further character sums of the paper have quadratic denominators,
split (x^2 + x over alpha outside {0, 1}) or irreducible (x^2 + x + b
over every alpha, tr(b) = 1).  Both are one family in b: summed over the
alpha with alpha^2 + alpha + b != 0, lambda(a/(alpha^2 + alpha + b))
gives (-1)^tr(b) K(a) - 1 for every b, which is the identity underlying
the dual-codeword weights in :mod:`kmoments.codes`.  The denominator
takes each value d of D, the nonzero elements of b + theta, at exactly
two alpha, alpha and alpha + 1, so the row gives every a at once as
twice a sum over D: b = 0 is the split row, a trace-one b the
irreducible row.  The row uses the additive characters, not the
multiplicative convolution: lambda(a/d) = (-1)^tr(a y) with y = 1/d, so
the sum over D is the Walsh-Hadamard transform of the inverses of D,
after the linear map phi = ``gf2r._trace_map`` that turns tr(a y) into
the parity of a & phi(y): ``gf2r._walsh_hadamard``, the packed transform
behind the codes' dual weights, O(q r) per b.  A packed product of u
with the indicator of log D would be no check: b + theta is theta or its
complement, so that product is the K table's own square u * u, or sum u
minus it.  The row reads no K value and shares only the slot reader
``gf2r._unpack_slots`` with the K table.

The dual of code i is the set of trace words c_i(a) (see
:mod:`kmoments.codes`).  The map a -> c_i(a) is GF(2)-linear, so one
Gray-code walk over the r words of a = 2^k, one running word and one
XOR per step, gives the weights of all q dual words (``_block_walk``,
which ``dual_weights`` scales by ``copies``); it reads one block, which
codes 1 and 2 (3 and 4) share.  The r generators c_i(2^k) come from
``codes._bit_rows``, the builder of the parity rows: generator k holds
bit k of each phi(entry), phi the trace map ``gf2r._trace_map``
(tr(2^k x) is bit k of phi(x)).  The dual structure is GF(2) ranks of
these rows (``verify_dual_structure``), and the enumeration of the
codewords walks a nullspace basis of parity rows that it builds alone,
one bit read per entry, not by ``_bit_rows``
(``weight_distribution_exhaustive``).

``pless_check`` compares the power sums of the q dual weights, from the
Gray-code walk, with the Pless right side over the code's weight counts.
"""

from collections import Counter

from . import codes, moments
from .gf2r import FieldContext, _check_int, _walsh_hadamard

__all__ = [
    "quadratic_char_sums",
    "dual_weights",
    "dual_weight_fraction",
    "weight_distribution_exhaustive",
    "code_cardinality",
    "kernel_basis",
    "verify_dual_structure",
    "pless_check",
]


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


def _generator_rows(ctx: FieldContext, i: int, phi, block) -> list[int]:
    # the r words c_i(2^k) over the block's entries (as codes._base_entries returns them):
    # tr(2^k x) is bit k of phi(x), phi the trace map gf2r._trace_map
    return codes._bit_rows([phi[e] for e in block], ctx.r, codes.code_shape(i)[1])


def _block_walk(gens: list[int], m: int, q: int) -> tuple[int, ...]:
    """The weight of the low m bits, a code's block, of the XOR of gens[k] over the bits k of a,
    for every a: a Gray-code walk, whose step s XORs in the word of the lowest set bit of s
    and lands on a = s ^ (s >> 1)."""
    gens = [g & ((1 << m) - 1) for g in gens]
    weights, word = [0] * q, 0
    for s in range(1, q):
        word ^= gens[(s & -s).bit_length() - 1]
        weights[s ^ (s >> 1)] = word.bit_count()
    return tuple(weights)


def dual_weights(ctx: FieldContext, i: int, walk) -> tuple[int, ...]:
    """wt(c_i(a)) for every a, indexed by a, from ``walk``, the block's weights.

    c_i(a) is GF(2)-linear in a, so one walk over the generator rows G
    (``_block_walk``, in O(rN) memory) gives every weight of the block's
    word, which the two codes on the block share; code i's weight is
    ``copies`` times it.  The walk reads only the trace and exp/log
    tables, never a Kloosterman value or the Walsh-Hadamard weight
    histogram; ``dual_codeword`` is the per-a oracle.
    """
    codes._check_code(ctx, i)
    _, copies = codes.code_shape(i)
    return walk if copies == 1 else tuple(copies * w for w in walk)


def dual_weight_fraction(q: int, i: int, k: int) -> tuple[int, int]:
    """wt(c_i(a)) over GF(q) as num / den, given k = K(a); den divides num if k is true."""
    _check_int("q", q, 2)
    _check_int("k", k)
    trace, copies = codes.code_shape(i)
    return (q + 1 + k if trace else q - 1 - k), 4 // copies


def code_cardinality(ctx: FieldContext, i: int, histogram) -> int:
    """Total number of codewords, n_0 * 2^N / q by MacWilliams at z=1.

    n_0 is the number of a with c_i(a) = 0, the kernel of the dual map,
    read from ``histogram``, the dual-weight histogram that the weight
    distribution is read from (``codes._dual_weight_histogram``).
    """
    codes._check_code(ctx, i)
    n0 = histogram[0]
    size, rem = divmod(n0 << codes.code_length(ctx, i), ctx.q)
    if rem:
        raise ArithmeticError(f"cardinality {n0}*2^N/q not integral")
    return size


def kernel_basis(rows: list[int], n: int) -> list[int]:
    """Basis of the GF(2) nullspace of the given bitmask rows in dimension n."""
    pivots = codes._pivots(rows)
    basis = []
    pivot_cols = sorted(pivots)
    for f in range(n):
        if f in pivots:
            continue
        v = 1 << f
        for c in pivot_cols:
            # pivot rows lead at c with remaining support below c, so
            # ascending order sees only settled bits of v
            if ((pivots[c] & ~(1 << c)) & v).bit_count() & 1:
                v |= 1 << c
        basis.append(v)
    return basis


def weight_distribution_exhaustive(ctx: FieldContext, i: int) -> tuple[int, ...]:
    """Histogram of codeword weights by explicit enumeration (the slow oracle)."""
    codes._check_code(ctx, i)
    n = codes.code_length(ctx, i)
    if n - ctx.r > codes.ENUMERATION_BUDGET:
        raise ValueError(
            f"enumeration would visit ~2^{n - ctx.r} codewords; budget is 2^{codes.ENUMERATION_BUDGET}"
        )
    # H by one bit read per entry and row, as the block is written copies times: bit l of
    # row k is bit k of entry l, so no row builder is shared with dual_orthogonality's H
    entries = codes._base_entries(ctx, i) * codes.code_shape(i)[1]
    h_rows = [sum((e >> k & 1) << l for l, e in enumerate(entries)) for k in range(ctx.r)]
    basis = kernel_basis(h_rows, n)
    counts = [0] * (n + 1)
    counts[0] = 1
    word = 0
    for idx in range(1, 1 << len(basis)):
        word ^= basis[(idx & -idx).bit_length() - 1]
        counts[word.bit_count()] += 1
    return tuple(counts)


def verify_dual_structure(ctx: FieldContext, i: int, h_rows, g_rows) -> dict:
    """Check that {c_i(a)} really is the dual of code i.

    Returns five facts: ``orthogonal`` (every c_i(a) is orthogonal to
    the whole code), ``kernel_size`` and ``injective`` of the dual map
    a -> c_i(a), ``code_cardinality``, and ``product_check``, the
    cardinality product |dual image| * |code| = 2^N, where the dual image
    has q / kernel_size words.  The dual map is injective for i in {3, 4}
    at every r and for i in {1, 2} from r = 3 on; at r = 2 its kernel
    has size 2.

    Every value is a GF(2) rank of at most 2r rows of N bits: of the r
    parity rows H, of the r generators G = c_i(2^k) and of [H; G].  By
    linearity the dual words are the row space of G, so the map has
    2^(r - rank G) zeros and 2^rank G images.  The code is ker H, of size
    2^(N - rank H), and its orthogonal complement is the row space of H;
    so every c_i(a) is orthogonal to every codeword iff
    rank [H; G] = rank H.  H is ``h_rows``, as ``codes.parity_check_rows``
    returns it, and G is ``g_rows``, as ``_generator_rows`` returns it.
    """
    codes._check_code(ctx, i)
    n = codes.code_length(ctx, i)
    rank_h, rank_g = codes.gf2_rank(h_rows), codes.gf2_rank(g_rows)
    cardinality = 1 << (n - rank_h)
    return {
        "orthogonal": codes.gf2_rank(h_rows + g_rows) == rank_h,
        "kernel_size": 1 << (ctx.r - rank_g),
        "injective": rank_g == ctx.r,
        "code_cardinality": cardinality,
        "product_check": (1 << rank_g) * cardinality == 1 << n,
    }


def pless_check(ctx: FieldContext, i: int, weights, sums) -> tuple:
    """Both sides of the Pless power moment identity for the dual of code i.

    Returns one (lhs, rhs, equal) triple for each order h = 0..h_max.
    Left side: sum of weight^h over the q dual codewords c_i(a), the
    zero word counting 1 when h = 0 (0**0 == 1); ``weights`` holds all q
    of them, as ``dual_weights`` returns them from one walk
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
