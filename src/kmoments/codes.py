"""Four binary linear codes whose dual weights are Kloosterman values.

With gamma running over theta (the trace-zero set, q/2 elements, fixed
ascending order) and b the context's trace-one element, the defining
vectors over GF(2^r) are

    code 1: (1/gamma_1, ..., 1/gamma_{q/2-1}) written twice   length q-2
    code 2: the same block once                               length q/2-1
    code 3: (1/(b+gamma_0), ..., 1/(b+gamma_{q/2-1})) twice   length q
    code 4: the same block once                               length q/2

and code i is the set of binary words orthogonal to vector i under the
GF(2^r)-valued inner product (an XOR of selected entries); ``code_shape``
gives its pair (trace of the inverted entries, copies of the block).  By
Delsarte's theorem the dual of code i is the set of trace words
c_i(a) = (tr(a * entry_l))_l over a in the field; c_i(a) has Hamming
weight (q-1-K(a))/2, (q-1-K(a))/4, (q+1+K(a))/2, (q+1+K(a))/4 for
i = 1, 2, 3, 4.  ``dual_weight_closed_form`` takes K(a) as an argument,
so this module never imports the Kloosterman layer.

The map a -> c_i(a) is GF(2)-linear, so one Gray-code walk over the r
words of a = 2^k, one running word and one XOR per step, gives the
weights of all q dual words (``dual_weights``).  One row builder makes
these r generators and the r parity rows of code i: row k holds bit k
of each entry for parity row k, and of each phi(entry) for generator k,
phi the trace map ``gf2r._trace_map`` (tr(2^k x) is bit k of phi(x));
a row is one ``translate`` of a byte plane rather than N bit reads.
``dual_codeword``, from exp/log products, is the per-a oracle.  The
dual structure is GF(2) ranks of these rows
(``verify_dual_structure``).

Weight distributions come from the dual side: one Walsh-Hadamard
transform of vector i gives the weight of every c_i(a), and the
MacWilliams identity turns that weight histogram into the codeword
counts through Krawtchouk polynomials (``_dual_weight_histogram``).
The transform is ``gf2r._walsh_hadamard``, the packed one the
character-sum row of :mod:`kmoments.kloosterman` runs on too; no check
has it on both sides, since the row is checked against the K table and
the counts against the K moments, the Gray-code walk and GF(2) ranks.
No K(a) value is used, so the counts stay independent of the
Kloosterman table they are checked against.  An exhaustive enumeration
oracle walks the codeword space from a nullspace basis.
"""

from __future__ import annotations

from collections import Counter
from math import isqrt

from .gf2r import FieldContext, _check_int, _trace_map, _walsh_hadamard

__all__ = [
    "CODE_INDICES",
    "code_shape",
    "code_length",
    "build_vector",
    "is_codeword",
    "dual_codeword",
    "dual_weights",
    "dual_weight_fraction",
    "dual_weight_closed_form",
    "weight_distribution",
    "weight_distribution_exhaustive",
    "code_cardinality",
    "parity_check_rows",
    "gf2_rank",
    "kernel_basis",
    "verify_dual_structure",
]

# code -> (trace of the inverted entries, copies of the block)
_SHAPES = {1: (0, 2), 2: (0, 1), 3: (1, 2), 4: (1, 1)}
CODE_INDICES = tuple(_SHAPES)

# exhaustive enumeration walks 2^(N-r) codewords
ENUMERATION_BUDGET = 24

# table k maps a byte to the binary digit, b"0" or b"1", of its bit k
_BIT_DIGITS = tuple((b"0" * (1 << k) + b"1" * (1 << k)) * (128 >> k) for k in range(8))


def code_shape(i: int) -> tuple[int, int]:
    """(trace of the inverted entries, copies of the block) of code i."""
    # an int only: True and 1.0 hash as the key 1
    if type(i) is not int or i not in _SHAPES:
        raise ValueError(f"code index must be one of {CODE_INDICES}, got {i}")
    return _SHAPES[i]


def _check_code(ctx: FieldContext, i: int) -> None:
    # a code exists iff its length is positive: codes 1 and 2 from r = 2, where
    # verify_dual_structure reports their kernel of size 2
    n = code_length(ctx, i)
    if not n:
        raise ValueError(f"code {i} needs q >= 4 (length would be {n})")


def code_length(ctx: FieldContext, i: int) -> int:
    """Block length: q-2, q/2-1, q, q/2 for codes 1..4."""
    trace, copies = code_shape(i)
    return copies * (ctx.q // 2 - 1 + trace)


def _base_entries(ctx: FieldContext, i: int) -> tuple[int, ...]:
    # one copy of the block, in theta order: 1/gamma (gamma != 0) or 1/(b + gamma)
    trace, _ = code_shape(i)
    shift = ctx.b if trace else 0
    return tuple(ctx.inv_table[shift ^ g] for g in ctx.theta[1 - trace :])


def _vector(ctx: FieldContext, i: int) -> tuple[int, ...]:
    return _base_entries(ctx, i) * code_shape(i)[1]


def build_vector(ctx: FieldContext, i: int) -> tuple[int, ...]:
    """The defining vector of code i, entries in GF(2^r)."""
    _check_code(ctx, i)
    return _vector(ctx, i)


def is_codeword(ctx: FieldContext, i: int, u) -> bool:
    """Whether the binary word u is orthogonal to vector i over GF(2^r)."""
    _check_code(ctx, i)
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
    _check_code(ctx, i)
    _check_int("a", a, 0, ctx.q - 1)
    v = _vector(ctx, i)
    if a == 0:
        return (0,) * len(v)
    tt, exp, log = ctx.trace_table, ctx.exp, ctx.log
    la = log[a]
    return tuple(tt[exp[la + log[g]]] for g in v)


def _bit_rows(values, r: int) -> list[int]:
    """r bitmasks of len(values) bits: bit l of row k is bit k of values[l].

    The values are cut into byte planes, each reversed so that value l
    lands on bit l, and row 8p + k is plane p translated through the
    digit table of bit k, read in base 2: one ``translate`` per row.
    """
    rows = []
    for shift in range(0, r, 8):
        plane = bytes(v >> shift & 255 for v in reversed(values))
        rows += [int(plane.translate(_BIT_DIGITS[k]), 2) for k in range(min(8, r - shift))]
    return rows


def _generator_rows(ctx: FieldContext, i: int) -> list[int]:
    # the r words c_i(2^k): tr(2^k x) is bit k of phi(x), phi the trace map
    phi = _trace_map(ctx)
    return _bit_rows([phi[e] for e in _vector(ctx, i)], ctx.r)


def dual_weights(ctx: FieldContext, i: int) -> tuple[int, ...]:
    """wt(c_i(a)) for every a, indexed by a, in O(rN) memory.

    c_i(a) is GF(2)-linear in a, so a Gray-code walk over the r words of
    a = 2^k visits every word with one running word: step s XORs in the
    word of the lowest set bit of s and lands on a = s ^ (s >> 1).  Reads
    only the trace and exp/log tables, never a Kloosterman value or the
    Walsh-Hadamard weight histogram; ``dual_codeword`` is the per-a oracle.
    """
    _check_code(ctx, i)
    gens = _generator_rows(ctx, i)
    weights, word = [0] * ctx.q, 0
    for s in range(1, ctx.q):
        word ^= gens[(s & -s).bit_length() - 1]
        weights[s ^ (s >> 1)] = word.bit_count()
    return tuple(weights)


def dual_weight_fraction(q: int, i: int, k: int) -> tuple[int, int]:
    """wt(c_i(a)) over GF(q) as num / den, given k = K(a); den divides num if k is true."""
    _check_int("q", q, 2)
    _check_int("k", k)
    trace, copies = code_shape(i)
    return (q + 1 + k if trace else q - 1 - k), 4 // copies


def dual_weight_closed_form(q: int, i: int, k: int) -> int:
    """Hamming weight of c_i(a) for code i over GF(q), given k = K(a), a != 0.

    k is held to the Weil bound k^2 <= 4q, which every K(a) meets.
    """
    _check_int("q", q, 2)
    _check_int("k", k, -isqrt(4 * q), isqrt(4 * q))
    num, den = dual_weight_fraction(q, i, k)
    w, rem = divmod(num, den)
    if rem:
        raise ArithmeticError(f"weight {num}/{den} not integral; K(a)={k}")
    return w


def _dual_weight_histogram(ctx: FieldContext, i: int) -> Counter:
    """How many of the q dual words c_i(a) have each Hamming weight.

    With f[beta] the multiplicity of beta in vector i, the integer
    Walsh-Hadamard transform F(u) = sum_beta f[beta] (-1)^popcount(u & beta)
    is N - 2 wt(c), where c is the word with bit l = popcount(u & entry_l)
    mod 2.  The maps x -> popcount(u & x) mod 2 over all u are exactly the
    maps x -> tr(a x), so the q values of u give the dual words with
    multiplicity (twice each for codes 1 and 2 at r = 2).

    The block's entries are distinct and nonzero, each listed ``copies``
    times, so F is ``gf2r._walsh_hadamard`` with n = N (a list butterfly
    in the tests is its oracle); each distinct F(u) maps to a weight once.
    """
    n = code_length(ctx, i)
    values = _walsh_hadamard(ctx.q, _base_entries(ctx, i), code_shape(i)[1], n)
    return Counter({(n - v) >> 1: c for v, c in Counter(values).items()})


def weight_distribution(ctx: FieldContext, i: int, j_max: int | None = None) -> tuple[int, ...]:
    """The exact counts C_0..C_j_max of codewords of weight j in code i.

    The dual of code i is the set of trace words c_i(a), whose weights
    one Walsh-Hadamard transform of vector i gives (see
    ``_dual_weight_histogram``).  The MacWilliams identity then yields
    C_j = q^-1 sum_w n_w K_j(w), where n_w counts the a with
    wt(c_i(a)) = w and K_j is the binary Krawtchouk polynomial of
    length N, evaluated exactly by its three-term recurrence.  No K(a)
    value is read.  The cost is O(q r) for the transform plus O(j_max)
    Krawtchouk terms per distinct weight, of which there are O(sqrt(q)).
    """
    _check_code(ctx, i)
    n = code_length(ctx, i)
    if j_max is None:
        j_max = n
    _check_int("j_max", j_max, 0, n)
    totals = [0] * (j_max + 1)
    for w, count in _dual_weight_histogram(ctx, i).items():
        # (j+1) K_{j+1} = (N-2w) K_j - (N-j+1) K_{j-1}, K_0 = 1, K_1 = N-2w
        prev, cur = 0, 1
        totals[0] += count
        for j in range(j_max):
            nxt, rem = divmod((n - 2 * w) * cur - (n - j + 1) * prev, j + 1)
            if rem:
                raise ArithmeticError(f"Krawtchouk K_{j + 1}({w}) not integral")
            prev, cur = cur, nxt
            totals[j + 1] += count * cur
    counts = []
    for j, total in enumerate(totals):
        c, rem = divmod(total, ctx.q)
        if rem:
            raise ArithmeticError(f"MacWilliams sum for j={j} not divisible by q")
        counts.append(c)
    return tuple(counts)


def code_cardinality(ctx: FieldContext, i: int) -> int:
    """Total number of codewords, n_0 * 2^N / q by MacWilliams at z=1.

    n_0 is the number of a with c_i(a) = 0, the kernel of the dual map,
    read from the same O(q r) transform as ``weight_distribution``.
    """
    _check_code(ctx, i)
    n0 = _dual_weight_histogram(ctx, i)[0]
    size, rem = divmod(n0 << code_length(ctx, i), ctx.q)
    if rem:
        raise ArithmeticError(f"cardinality {n0}*2^N/q not integral")
    return size


def parity_check_rows(ctx: FieldContext, i: int) -> list[int]:
    """r binary parity rows (as length-N bitmasks) cutting out code i."""
    _check_code(ctx, i)
    return _bit_rows(_vector(ctx, i), ctx.r)


def _pivots(rows) -> dict[int, int]:
    """GF(2) echelon form of bitmask rows: leading column -> reduced row."""
    pivots: dict[int, int] = {}
    for row in rows:
        cur = row
        while cur:
            c = cur.bit_length() - 1
            if c in pivots:
                cur ^= pivots[c]
            else:
                pivots[c] = cur
                break
    return pivots


def gf2_rank(rows) -> int:
    """Rank over GF(2) of the given bitmask rows."""
    return len(_pivots(rows))


def kernel_basis(rows: list[int], n: int) -> list[int]:
    """Basis of the GF(2) nullspace of the given bitmask rows in dimension n."""
    pivots = _pivots(rows)
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
    _check_code(ctx, i)
    n = code_length(ctx, i)
    if n - ctx.r > ENUMERATION_BUDGET:
        raise ValueError(
            f"enumeration would visit ~2^{n - ctx.r} codewords; budget is 2^{ENUMERATION_BUDGET}"
        )
    basis = kernel_basis(parity_check_rows(ctx, i), n)
    counts = [0] * (n + 1)
    counts[0] = 1
    word = 0
    for idx in range(1, 1 << len(basis)):
        word ^= basis[(idx & -idx).bit_length() - 1]
        counts[word.bit_count()] += 1
    return tuple(counts)


def verify_dual_structure(ctx: FieldContext, i: int) -> dict:
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
    rank [H; G] = rank H.
    """
    _check_code(ctx, i)
    n = code_length(ctx, i)
    h_rows, g_rows = parity_check_rows(ctx, i), _generator_rows(ctx, i)
    rank_h, rank_g = gf2_rank(h_rows), gf2_rank(g_rows)
    cardinality = 1 << (n - rank_h)
    return {
        "orthogonal": gf2_rank(h_rows + g_rows) == rank_h,
        "kernel_size": 1 << (ctx.r - rank_g),
        "injective": rank_g == ctx.r,
        "code_cardinality": cardinality,
        "product_check": (1 << rank_g) * cardinality == 1 << n,
    }
