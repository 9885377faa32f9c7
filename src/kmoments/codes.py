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

Weight distributions come from the dual side: one Walsh-Hadamard
transform of vector i gives the weight of every c_i(a), and the
MacWilliams identity turns that weight histogram into the codeword
counts through Krawtchouk polynomials.  No K(a) value is used, so the
counts stay independent of the Kloosterman table they are checked
against.  An exhaustive enumeration oracle walks the codeword space
from a nullspace basis.
"""

from __future__ import annotations

import warnings
from collections import Counter
from dataclasses import dataclass

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
    "dual_weight_closed_form",
    "weight_distribution",
    "weight_distribution_exhaustive",
    "code_cardinality",
    "parity_check_rows",
    "kernel_basis",
    "verify_dual_structure",
]

CODE_INDICES = (1, 2, 3, 4)

# exhaustive enumeration walks 2^(N-r) codewords
ENUMERATION_BUDGET = 24

# whole-dual scans cost O(q^2); past this degree only the O(q)-per-call
# operations stay desk-scale.  Weight distributions and cardinalities
# (O(q r) plus O(sqrt(q) j_max) Krawtchouk terms) still keep the same
# limit, which the CLI enforces for every subcommand
MAX_QUADRATIC_DEGREE = 12


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


def _check_quadratic_budget(ctx: FieldContext, what: str) -> None:
    if ctx.r > MAX_QUADRATIC_DEGREE:
        raise ValueError(f"{what}; refusing r={ctx.r} > {MAX_QUADRATIC_DEGREE}")


def code_length(ctx: FieldContext, i: int) -> int:
    """Block length: q-2, q/2-1, q, q/2 for codes 1..4."""
    q = ctx.q
    return (q - 2, q // 2 - 1, q, q // 2)[i - 1]


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


@dataclass(frozen=True)
class DualCodeword:
    """The trace word c_i(a); its weight is pinned down by K(a)."""

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


def dual_weight_closed_form(ctx: FieldContext, i: int, a: int) -> int:
    """Hamming weight of c_i(a) as a function of K(a), for nonzero a."""
    if i not in CODE_INDICES:
        raise ValueError(f"code index must be one of {CODE_INDICES}, got {i}")
    if a == 0:
        raise ValueError("closed form holds for nonzero a")
    k = kloosterman_sum(ctx, a)
    num = ctx.q - 1 - k if i in (1, 2) else ctx.q + 1 + k
    den = 2 if i in (1, 3) else 4
    w, rem = divmod(num, den)
    assert rem == 0, f"weight {num}/{den} not integral; K(a)={k}"
    return w


@dataclass(frozen=True)
class WeightDistribution:
    """Exact codeword counts by weight, possibly truncated to a prefix."""

    code: int
    length: int
    counts: tuple[int, ...]

    @property
    def is_full(self) -> bool:
        return len(self.counts) == self.length + 1

    def __getitem__(self, j: int) -> int:
        return self.counts[j]


def _dual_weight_histogram(ctx: FieldContext, i: int) -> Counter:
    """How many of the q dual words c_i(a) have each Hamming weight.

    With f[beta] the multiplicity of beta in vector i, the integer
    Walsh-Hadamard transform F(u) = sum_beta f[beta] (-1)^popcount(u & beta)
    is N - 2 wt(c), where c is the word with bit l = popcount(u & entry_l)
    mod 2.  The maps x -> popcount(u & x) mod 2 over all u are exactly the
    maps x -> tr(a x), so the q values of u give the dual words with
    multiplicity (twice each for codes 1 and 2 at r = 2).
    """
    q = ctx.q
    mult = 2 if i in (1, 3) else 1
    f = [0] * q
    for beta in _base_entries(ctx, i):
        f[beta] += mult
    h = 1
    while h < q:
        for lo in range(0, q, 2 * h):
            mid, hi = lo + h, lo + 2 * h
            xs, ys = f[lo:mid], f[mid:hi]
            f[lo:mid] = [x + y for x, y in zip(xs, ys)]
            f[mid:hi] = [x - y for x, y in zip(xs, ys)]
        h *= 2
    n = code_length(ctx, i)
    return Counter((n - F) >> 1 for F in f)


def weight_distribution(ctx: FieldContext, i: int, j_max: int | None = None) -> WeightDistribution:
    """Counts of codewords of weight j = 0..j_max in code i.

    The dual of code i is the set of trace words c_i(a), whose weights
    one Walsh-Hadamard transform of vector i gives (see
    ``_dual_weight_histogram``).  The MacWilliams identity then yields
    C_j = q^-1 sum_w n_w K_j(w), where n_w counts the a with
    wt(c_i(a)) = w and K_j is the binary Krawtchouk polynomial of
    length N, evaluated exactly by its three-term recurrence.  No K(a)
    value is read.
    """
    _check_code(ctx, i)
    _check_quadratic_budget(ctx, "the weight distribution shares the quadratic-in-q limit")
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
            assert rem == 0, f"Krawtchouk K_{j + 1}({w}) not integral"
            prev, cur = cur, nxt
            totals[j + 1] += count * cur
    counts = []
    for j, total in enumerate(totals):
        c, rem = divmod(total, ctx.q)
        assert rem == 0, f"MacWilliams sum for j={j} not divisible by q"
        counts.append(c)
    return WeightDistribution(code=i, length=n, counts=tuple(counts))


def code_cardinality(ctx: FieldContext, i: int) -> int:
    """Total number of codewords, n_0 * 2^N / q by MacWilliams at z=1.

    n_0 is the number of a with c_i(a) = 0, the kernel of the dual map.
    """
    _check_code(ctx, i)
    _check_quadratic_budget(ctx, "the code cardinality shares the quadratic-in-q limit")
    n0 = _dual_weight_histogram(ctx, i)[0]
    size, rem = divmod(n0 << code_length(ctx, i), ctx.q)
    assert rem == 0, f"cardinality {n0}*2^N/q not integral"
    return size


def parity_check_rows(ctx: FieldContext, i: int) -> list[int]:
    """r binary parity rows (as length-N bitmasks) cutting out code i."""
    _check_code(ctx, i, warn=False)
    v = _vector(ctx, i)
    rows = []
    for k in range(ctx.r):
        row = 0
        for l, entry in enumerate(v):
            row |= (entry >> k & 1) << l
        rows.append(row)
    return rows


def kernel_basis(rows: list[int], n: int) -> list[int]:
    """Basis of the GF(2) nullspace of the given bitmask rows in dimension n."""
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

    Returns a JSON-ready report: orthogonality of every c_i(a) against
    a nullspace basis of the code, injectivity (with kernel size) of
    a -> c_i(a), and the cardinality product |dual image| * |code| =
    2^length.  The dual map is injective for i in {3, 4} at every r and
    for i in {1, 2} once r >= 3; at r = 2 its kernel has size 2.
    """
    if i not in CODE_INDICES:
        raise ValueError(f"code index must be one of {CODE_INDICES}, got {i}")
    _check_quadratic_budget(ctx, "the whole-dual scan is quadratic in q")
    n = code_length(ctx, i)
    basis = kernel_basis(parity_check_rows(ctx, i), n)
    duals = [dual_codeword(ctx, i, a) for a in ctx.elements()]
    masks = [d.mask for d in duals]
    orthogonal = all(
        (m & bv).bit_count() & 1 == 0 for m in masks for bv in basis
    )
    kernel_size = sum(1 for m in masks if m == 0)
    image_size = len(set(masks))
    cardinality = 1 << len(basis)
    return {
        "code": i,
        "r": ctx.r,
        "length": n,
        "orthogonal": orthogonal,
        "dual_image_size": image_size,
        "kernel_size": kernel_size,
        "injective": image_size == ctx.q,
        "code_cardinality": cardinality,
        "product_check": image_size * cardinality == 1 << n,
    }
