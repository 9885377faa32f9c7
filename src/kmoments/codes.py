"""Four binary linear codes whose dual weights are Kloosterman values.

With gamma running over theta (the trace-zero set, q/2 elements, fixed
ascending order) and b the context's trace-one element, the defining
vectors over GF(2^r) are

    code 1: (1/gamma_1, ..., 1/gamma_{q/2-1}) written twice   length q-2
    code 2: the same block once                               length q/2-1
    code 3: (1/(b+gamma_0), ..., 1/(b+gamma_{q/2-1})) twice   length q
    code 4: the same block once                               length q/2

and code i is the set of binary words orthogonal to vector i under the
GF(2^r)-valued inner product (an XOR of selected entries).  By
Delsarte's theorem the dual of code i is the set of trace words
c_i(a) = (tr(a * entry_l))_l over a in the field; c_i(a) has Hamming
weight (q-1-K(a))/2, (q-1-K(a))/4, (q+1+K(a))/2, (q+1+K(a))/4 for
i = 1, 2, 3, 4.

The map a -> c_i(a) is GF(2)-linear, so all q dual words come from the
r words of a = 2^k: every other word is the XOR of one earlier word and
one generator (``dual_words``).  ``dual_codeword`` builds a single word
from its trace bits and stays as the per-a oracle.  So the dual
structure comes down to GF(2) ranks of these r generators and of the r
parity rows of code i (``verify_dual_structure``).

Weight distributions come from the dual side: one Walsh-Hadamard
transform of vector i gives the weight of every c_i(a), and the
MacWilliams identity turns that weight histogram into the codeword
counts through Krawtchouk polynomials.  The transform runs on one
packed int, q biased fixed-width slots, so each of its r butterfly
stages is a few whole-integer masks, shifts and sums rather than q
list operations (``_dual_weight_histogram``); a list butterfly is its
oracle in the tests.  No K(a) value is used, so the counts stay
independent of the Kloosterman table they are checked against.  An
exhaustive enumeration oracle walks the codeword space from a
nullspace basis.
"""

from __future__ import annotations

import sys
import warnings
from array import array
from collections import Counter

from ._record import Record
from .gf2r import FieldContext
from .kloosterman import kloosterman_sum

__all__ = [
    "CODE_INDICES",
    "DualCodeword",
    "WeightDistribution",
    "code_length",
    "build_vector",
    "multiplicity",
    "is_codeword",
    "dual_codeword",
    "dual_words",
    "dual_weight_fraction",
    "dual_weight_from_k",
    "dual_weight_closed_form",
    "weight_distribution",
    "weight_distribution_exhaustive",
    "code_cardinality",
    "parity_check_rows",
    "gf2_rank",
    "kernel_basis",
    "verify_dual_structure",
]

CODE_INDICES = (1, 2, 3, 4)

# exhaustive enumeration walks 2^(N-r) codewords
ENUMERATION_BUDGET = 24

# byte widths a Walsh-Hadamard slot may take, narrowest first; a slot
# holds F(u) + 2^(8w-1) with |F(u)| <= N, so it needs N < 2^(8w-1), and
# four bytes hold every N up to the field's MAX_DEGREE
_WHT_SLOT_BYTES = (1, 2, 4)

_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


def _check_code(ctx: FieldContext, i: int, warn: bool = True) -> None:
    # the r=2 degeneracy warning fires when *constructing* codes 1 and 2;
    # dual-side diagnostics stay quiet since examining the degenerate dual
    # map is exactly their job
    if i not in CODE_INDICES:
        raise ValueError(f"code index must be one of {CODE_INDICES}, got {i}")
    if i in (1, 2):
        if ctx.q < 4:
            raise ValueError(f"code {i} needs q >= 4 (length would be {code_length(ctx, i)})")
        if warn and ctx.r == 2:
            warnings.warn(
                f"code {i} at r=2 is degenerate: the dual map a -> c_i(a) is 2-to-1",
                stacklevel=3,
            )


def code_length(ctx: FieldContext, i: int) -> int:
    """Block length: q-2, q/2-1, q, q/2 for codes 1..4."""
    q = ctx.q
    return (q - 2, q // 2 - 1, q, q // 2)[i - 1]


def _bitmask(bits) -> int:
    """The integer whose bit l is bits[l], read from one string of binary digits."""
    return int(bytes(bits)[::-1].translate(_DIGITS), 2)


def _base_entries(ctx: FieldContext, i: int) -> tuple[int, ...]:
    # single copy of the defining block, in theta order
    if i in (1, 2):
        return tuple(ctx.inv_table[g] for g in ctx.theta[1:])
    return tuple(ctx.inv_table[ctx.b ^ g] for g in ctx.theta)


def _vector(ctx: FieldContext, i: int) -> tuple[int, ...]:
    base = _base_entries(ctx, i)
    return base + base if i in (1, 3) else base


def build_vector(ctx: FieldContext, i: int) -> tuple[int, ...]:
    """The defining vector of code i, entries in GF(2^r)."""
    _check_code(ctx, i)
    return _vector(ctx, i)


def multiplicity(ctx: FieldContext, i: int, beta: int) -> int:
    """How many coordinates of vector i equal beta (0, 1 or 2)."""
    if i not in CODE_INDICES:
        raise ValueError(f"code index must be one of {CODE_INDICES}, got {i}")
    if beta == 0:
        return 0
    want = 0 if i in (1, 2) else 1
    if ctx.trace_table[ctx.inv_table[beta]] != want:
        return 0
    return 2 if i in (1, 3) else 1


def is_codeword(ctx: FieldContext, i: int, u) -> bool:
    """Whether the binary word u is orthogonal to vector i over GF(2^r)."""
    _check_code(ctx, i, warn=False)
    v = _vector(ctx, i)
    if len(u) != len(v):
        raise ValueError(f"word length {len(u)} != code length {len(v)}")
    acc = 0
    for bit, entry in zip(u, v):
        if bit:
            acc ^= entry
    return acc == 0


class DualCodeword(Record):
    """The trace word c_i(a); its weight is pinned down by K(a)."""

    __slots__ = ("code", "a", "bits")
    code: int
    a: int
    bits: tuple[int, ...]

    @property
    def weight(self) -> int:
        return sum(self.bits)

    @property
    def mask(self) -> int:
        m = 0
        for l, bit in enumerate(self.bits):
            m |= bit << l
        return m


def dual_codeword(ctx: FieldContext, i: int, a: int) -> DualCodeword:
    """c_i(a): bit l is the trace of a times entry l of vector i."""
    _check_code(ctx, i, warn=False)
    v = _vector(ctx, i)
    if a == 0:
        return DualCodeword(code=i, a=0, bits=(0,) * len(v))
    tt, exp, log = ctx.trace_table, ctx.exp, ctx.log
    la = log[a]
    return DualCodeword(code=i, a=a, bits=tuple(tt[exp[la + log[g]]] for g in v))


def _generator_rows(ctx: FieldContext, i: int) -> list[int]:
    # the r words c_i(2^k) as length-N bitmasks, from the trace table
    tt, exp, log = ctx.trace_table, ctx.exp, ctx.log
    logs = [log[g] for g in _vector(ctx, i)]
    return [_bitmask([tt[exp[log[1 << k] + lg]] for lg in logs]) for k in range(ctx.r)]


def dual_words(ctx: FieldContext, i: int) -> tuple[int, ...]:
    """Every trace word c_i(a) as a length-N bitmask, indexed by a.

    c_i(a) is GF(2)-linear in a, so the r words of a = 2^k are built bit
    by bit from the trace table and every other word is one XOR:
    c_i(a) = c_i(a & (a-1)) ^ c_i(lowest bit of a).  Reads only the trace
    and exp/log tables, never a Kloosterman value or the Walsh-Hadamard
    weight histogram; ``dual_codeword`` is the per-a oracle.
    """
    _check_code(ctx, i, warn=False)
    gens = _generator_rows(ctx, i)
    words = [0] * ctx.q
    for a in range(1, ctx.q):
        words[a] = words[a & (a - 1)] ^ gens[(a & -a).bit_length() - 1]
    return tuple(words)


def dual_weight_fraction(q: int, i: int, k: int) -> tuple[int, int]:
    """wt(c_i(a)) over GF(q) as num / den, given k = K(a); den divides num if k is true."""
    num = q - 1 - k if i in (1, 2) else q + 1 + k
    return num, 2 if i in (1, 3) else 4


def dual_weight_from_k(q: int, i: int, k: int) -> int:
    """Hamming weight of c_i(a) for code i over GF(q), given k = K(a), a != 0."""
    num, den = dual_weight_fraction(q, i, k)
    w, rem = divmod(num, den)
    if rem:
        raise ArithmeticError(f"weight {num}/{den} not integral; K(a)={k}")
    return w


def dual_weight_closed_form(ctx: FieldContext, i: int, a: int) -> int:
    """Hamming weight of c_i(a) as a function of K(a), for nonzero a."""
    if i not in CODE_INDICES:
        raise ValueError(f"code index must be one of {CODE_INDICES}, got {i}")
    if a == 0:
        raise ValueError("closed form holds for nonzero a")
    return dual_weight_from_k(ctx.q, i, kloosterman_sum(ctx, a))


class WeightDistribution(Record):
    """Exact codeword counts by weight, possibly truncated to a prefix."""

    __slots__ = ("code", "length", "counts")
    code: int
    length: int
    counts: tuple[int, ...]

    @property
    def is_full(self) -> bool:
        return len(self.counts) == self.length + 1

    def __getitem__(self, j: int) -> int:
        return self.counts[j]


def _slots(q: int, width: int, h: int, fill: bytes) -> int:
    """The packed int whose slots k with k & h == 0 hold ``fill``; the rest are 0."""
    return int.from_bytes((fill * h + bytes(width * h)) * (q // (2 * h)), "little")


def _wht_stages(q: int, width: int) -> list[tuple[int, int, int]]:
    """(shift, mask, bias) for the stages h = 1, 2, 4, .., q/2 of the packed transform.

    mask selects the slots k with k & h == 0, bias holds the slot bias
    2^(8 width - 1) in exactly those slots, and shift is the bit distance
    from slot k to slot k + h.
    """
    ones = b"\xff" * width
    half = (1 << (8 * width - 1)).to_bytes(width, "little")
    stages = []
    h = 1
    while h < q:
        stages.append((8 * width * h, _slots(q, width, h, ones), _slots(q, width, h, half)))
        h *= 2
    return stages


def _dual_weight_histogram(ctx: FieldContext, i: int) -> Counter:
    """How many of the q dual words c_i(a) have each Hamming weight.

    With f[beta] the multiplicity of beta in vector i, the integer
    Walsh-Hadamard transform F(u) = sum_beta f[beta] (-1)^popcount(u & beta)
    is N - 2 wt(c), where c is the word with bit l = popcount(u & entry_l)
    mod 2.  The maps x -> popcount(u & x) mod 2 over all u are exactly the
    maps x -> tr(a x), so the q values of u give the dual words with
    multiplicity (twice each for codes 1 and 2 at r = 2).

    The q values live in one int, slot k holding F_k + B in ``width``
    little-endian bytes, B = 2^(8 width - 1).  Every partial sum of the
    butterflies is bounded by sum_beta f[beta] = N, so the narrowest
    width with N < B keeps every slot in 0..2^(8 width) - 1.  Stage h
    pairs slot k with slot k + h for each k with k & h = 0:

        lo = x & M_h,  hi = (x >> shift_h) & M_h,
        x = (lo + hi - B_h) | ((lo - hi + B_h) << shift_h),

    with M_h and B_h from ``_wht_stages``.  Each slot of the two terms
    ends in range, so the exact integer sums leave every value in its
    own slot, whatever carries or borrows happen on the way.  The slots
    are read back with one ``array``, and two invariants are checked:
    F(0) = N, and sum_u F(u) = q f[0] = 0, since no entry of vector i is
    zero.  The list butterfly is the oracle in the tests.
    """
    q, n = ctx.q, code_length(ctx, i)
    width = next((w for w in _WHT_SLOT_BYTES if n < 1 << (8 * w - 1)), None)
    typecode = next((t for t in "BHILQ" if array(t).itemsize == width), None)
    if typecode is None:
        raise ArithmeticError(f"no slot of {_WHT_SLOT_BYTES} bytes holds transform values up to {n}")
    bias = 1 << (8 * width - 1)
    mult = 2 if i in (1, 3) else 1
    # f[beta] + B in every slot; B's low byte is 0 (or 0x80 in one-byte slots)
    f = bytearray(bias.to_bytes(width, "little") * q)
    for beta in _base_entries(ctx, i):
        f[beta * width] += mult
    x = int.from_bytes(f, "little")
    for shift, mask, stage_bias in _wht_stages(q, width):
        lo = x & mask
        hi = (x >> shift) & mask
        x = (lo + hi - stage_bias) | ((lo - hi + stage_bias) << shift)
    values = array(typecode, x.to_bytes(q * width, "little"))
    if sys.byteorder == "big":
        values.byteswap()
    if values[0] - bias != n or sum(values) != q * bias:
        raise ArithmeticError(
            f"transform gives F(0) = {values[0] - bias} and sum F = {sum(values) - q * bias}, "
            f"not {n} and 0"
        )
    return Counter({(n + bias - v) >> 1: c for v, c in Counter(values).items()})


def weight_distribution(ctx: FieldContext, i: int, j_max: int | None = None) -> WeightDistribution:
    """Counts of codewords of weight j = 0..j_max in code i.

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
    if not 0 <= j_max <= n:
        raise ValueError(f"j_max must be in 0..{n}, got {j_max}")
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
    return WeightDistribution(code=i, length=n, counts=tuple(counts))


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
    _check_code(ctx, i, warn=False)
    v = _vector(ctx, i)
    return [_bitmask([entry >> k & 1 for entry in v]) for k in range(ctx.r)]


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


def weight_distribution_exhaustive(ctx: FieldContext, i: int) -> WeightDistribution:
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
    return WeightDistribution(code=i, length=n, counts=tuple(counts))


def verify_dual_structure(ctx: FieldContext, i: int) -> dict:
    """Check that {c_i(a)} really is the dual of code i.

    Returns a JSON-ready report: orthogonality of every c_i(a) to the
    whole code, injectivity (with kernel size) of a -> c_i(a), and the
    cardinality product |dual image| * |code| = 2^length.  The dual map
    is injective for i in {3, 4} at every r and for i in {1, 2} once
    r >= 3; at r = 2 its kernel has size 2.

    Every value is a GF(2) rank of at most 2r rows of N bits: of the r
    parity rows H, of the r generators G = c_i(2^k) and of [H; G].  By
    linearity the dual words are the row space of G, so the map has
    2^(r - rank G) zeros and 2^rank G images.  The code is ker H, of size
    2^(N - rank H), and its orthogonal complement is the row space of H;
    so every c_i(a) is orthogonal to every codeword iff
    rank [H; G] = rank H.
    """
    _check_code(ctx, i, warn=False)
    n = code_length(ctx, i)
    h_rows, g_rows = parity_check_rows(ctx, i), _generator_rows(ctx, i)
    rank_h, rank_g = gf2_rank(h_rows), gf2_rank(g_rows)
    image_size = 1 << rank_g
    cardinality = 1 << (n - rank_h)
    return {
        "code": i,
        "r": ctx.r,
        "length": n,
        "orthogonal": gf2_rank(h_rows + g_rows) == rank_h,
        "dual_image_size": image_size,
        "kernel_size": 1 << (ctx.r - rank_g),
        "injective": rank_g == ctx.r,
        "code_cardinality": cardinality,
        "product_check": image_size * cardinality == 1 << n,
    }
