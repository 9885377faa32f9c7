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
i = 1, 2, 3, 4.

The r parity rows of code i come from one row builder, ``_bit_rows``:
row k holds bit k of each entry, and a row is one ``translate`` of a
byte plane rather than N bit reads.  The generator rows of the dual
are built by it too.

Weight distributions come from the dual side: one Walsh-Hadamard
transform of the block (``_block_transform``), which the two codes on it
share, gives the weight of every c_i(a); the MacWilliams identity turns
that weight histogram (``_dual_weight_histogram``, which alone applies
``copies``) into the codeword counts through Krawtchouk polynomials
(``_macwilliams``).  ``weight_distribution`` composes them from the
context; ``verify``'s stage record calls each on the values it holds.
The transform is ``gf2r._walsh_hadamard``, the packed one the
character-sum row runs on too; no check has it on both sides, since the
row is checked against the K table and the counts against the K moments,
the Gray-code walk and GF(2) ranks.  No K(a) value is used, so the counts
stay independent of the Kloosterman table they are checked against.

Only ``verify`` and the tests run the rest of the layer.  What ``verify``
runs, the generator rows, the dual weights, the dual-structure report,
the cardinality count and the enumeration, lives in
:mod:`kmoments.checks`, beside the character-sum row; the oracles that
only the tests run, the defining vector, membership, the dual words one
a at a time and their closed-form weight, which takes K(a) as an
argument so that no weight-side module imports the Kloosterman layer, in
:mod:`kmoments.oracles`.  ``__all__`` still lists them, and each is read
here by name and compiled on first use (PEP 562 ``__getattr__``).
"""

from collections import Counter

from .gf2r import FieldContext, _check_int, _walsh_hadamard

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


def _bit_rows(values, r: int, copies: int) -> list[int]:
    """r bitmasks of N = copies * len(values) bits: bit l of row k is bit k of entry l
    of ``values`` written ``copies`` times.

    The values are cut into byte planes, each reversed so that value l
    lands on bit l and then repeated, and row 8p + k is plane p translated
    through the digit table of bit k, read in base 2: one ``translate`` per row.
    """
    rows = []
    for shift in range(0, r, 8):
        plane = bytes(v >> shift & 255 for v in reversed(values)) * copies
        rows += [int(plane.translate(_BIT_DIGITS[k]), 2) for k in range(min(8, r - shift))]
    return rows


def _block_transform(ctx: FieldContext, i: int, block) -> Counter:
    """The values F(u), u < q, of the Walsh-Hadamard transform of code i's block, counted.

    f is the indicator of the block's entries, ``block`` as ``_base_entries``
    returns it, which are distinct and nonzero, and n = N / copies, so the
    two codes on the block share F.
    """
    return Counter(_walsh_hadamard(ctx.q, block, code_length(ctx, i) // code_shape(i)[1]))


def _dual_weight_histogram(ctx: FieldContext, i: int, transform) -> Counter:
    """How many of the q dual words c_i(a) have each Hamming weight.

    With f[beta] the multiplicity of beta in vector i, the integer
    Walsh-Hadamard transform sum_beta f[beta] (-1)^popcount(u & beta)
    is N - 2 wt(c), where c is the word with bit l = popcount(u & entry_l)
    mod 2.  The maps x -> popcount(u & x) mod 2 over all u are exactly the
    maps x -> tr(a x), so the q values of u give the dual words with
    multiplicity (twice each for codes 1 and 2 at r = 2).

    Vector i is its block written ``copies`` times, so that transform is
    copies F, F the block's counted ``transform`` (``_block_transform``, with
    a list butterfly in the tests as oracle): each distinct F maps once to
    (N - copies F) / 2.
    """
    n, copies = code_length(ctx, i), code_shape(i)[1]
    return Counter({(n - copies * v) >> 1: c for v, c in transform.items()})


def weight_distribution(ctx: FieldContext, i: int, j_max: int | None = None) -> tuple[int, ...]:
    """The exact counts C_0..C_j_max of codewords of weight j in code i.

    The dual of code i is the set of trace words c_i(a), whose weights
    one Walsh-Hadamard transform of the block gives (see
    ``_dual_weight_histogram``), in O(q r); ``_macwilliams`` turns their
    histogram into the counts.  No K(a) value is read.
    """
    _check_code(ctx, i)
    n = code_length(ctx, i)
    if j_max is None:
        j_max = n
    _check_int("j_max", j_max, 0, n)
    transform = _block_transform(ctx, i, _base_entries(ctx, i))
    return _macwilliams(ctx, i, _dual_weight_histogram(ctx, i, transform), j_max)


def _macwilliams(ctx: FieldContext, i: int, histogram, j_max: int) -> tuple[int, ...]:
    """C_0..C_j_max of code i from ``histogram``, the dual-weight histogram.

    The MacWilliams identity gives C_j = q^-1 sum_w n_w K_j(w), where n_w
    counts the a with wt(c_i(a)) = w and K_j is the binary Krawtchouk
    polynomial of length N, evaluated exactly by its three-term
    recurrence: O(j_max) terms per distinct weight, of which there are
    O(sqrt(q)).
    """
    n = code_length(ctx, i)
    totals = [0] * (j_max + 1)
    for w, count in histogram.items():
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


def parity_check_rows(ctx: FieldContext, i: int) -> list[int]:
    """r binary parity rows (as length-N bitmasks) cutting out code i."""
    _check_code(ctx, i)
    return _bit_rows(_base_entries(ctx, i), ctx.r, code_shape(i)[1])


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
