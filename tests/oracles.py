"""Hand-rolled reference implementations for the test suite.

Everything here is deliberately independent of the package: schoolbook
carry-less arithmetic with explicit long-division reduction, traces by
repeated squaring, inverses by exhaustive search, Kloosterman sums by
literal summation, codeword counting by scanning the full binary cube,
weight counts by a dynamic program over the group algebra of
(F_q, XOR), dual weights and any Walsh-Hadamard transform by a list
butterfly, every dual word stored by linearity from its r generators,
the dual structure of a code by a pairwise parity scan, parity rows
one entry at a time or one mask at a time through parity tables, a
primitive element by factoring q - 1, the Pless sums order by order
with t! S(h, t) as an alternating sum, and the command line by
argparse.  Slow on purpose; only used at desk scale.

The quadratic character sums are the exception: they take a field
context.  The per-a sums evaluate each term through its ``mul`` and
inverse table, where the package indexes exp/log directly, and the row
looks up every term lambda(a/d) in the exp table.
"""

import argparse
import math
from operator import itemgetter


def xmul(a: int, b: int) -> int:
    """Carry-less (GF(2)[x]) product, no reduction."""
    p = 0
    k = 0
    while b >> k:
        if b >> k & 1:
            p ^= a << k
        k += 1
    return p


def pmod(a: int, m: int) -> int:
    """Polynomial remainder of a modulo m."""
    while a.bit_length() >= m.bit_length():
        a ^= m << (a.bit_length() - m.bit_length())
    return a


def field_mul(a: int, b: int, m: int) -> int:
    return pmod(xmul(a, b), m)


def naive_trace(x: int, m: int, r: int) -> int:
    acc = y = x
    for _ in range(r - 1):
        y = field_mul(y, y, m)
        acc ^= y
    return acc


def naive_inv(x: int, m: int, r: int) -> int:
    for y in range(1, 1 << r):
        if field_mul(x, y, m) == 1:
            return y
    raise ValueError(f"no inverse for {x}")


def naive_lambda(x: int, m: int, r: int) -> int:
    return -1 if naive_trace(x, m, r) else 1


def naive_kloosterman(a: int, m: int, r: int) -> int:
    q = 1 << r
    total = 0
    for alpha in range(1, q):
        total += naive_lambda(alpha ^ field_mul(a, naive_inv(alpha, m, r), m), m, r)
    return total


def naive_theta_image(m: int, r: int) -> list[int]:
    return sorted({field_mul(a, a, m) ^ a for a in range(1 << r)})


def irreducible_by_scan(r: int) -> int:
    """Smallest degree-r polynomial with no divisor of degree 1..r-1."""
    for f in range(1 << r, 1 << (r + 1)):
        if all(
            pmod(f, g) != 0
            for d in range(1, r)
            for g in range(1 << d, 1 << (d + 1))
        ):
            return f
    raise AssertionError


def primitive_by_factoring(m: int, r: int) -> int:
    """Smallest g with g^((q-1)/p) != 1 modulo m for every prime p dividing q - 1.

    The primes come by trial division and the powers by square and
    multiply; g = 1 passes only at r = 1, where q - 1 = 1 has no prime.
    """
    q = 1 << r
    n, d, primes = q - 1, 2, []
    while d * d <= n:
        if n % d == 0:
            primes.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        primes.append(n)

    def power(x: int, e: int) -> int:
        p = 1
        while e:
            if e & 1:
                p = field_mul(p, x, m)
            x = field_mul(x, x, m)
            e >>= 1
        return p

    return next(g for g in range(1, q) if all(power(g, (q - 1) // p) != 1 for p in primes))


def scan_weight_counts(entries, n: int) -> list[int]:
    """Codeword weights of {u : XOR of selected entries = 0} by full 2^n scan."""
    counts = [0] * (n + 1)
    for u in range(1 << n):
        acc = 0
        for l in range(n):
            if u >> l & 1:
                acc ^= entries[l]
        if acc == 0:
            counts[bin(u).count("1")] += 1
    return counts


def group_algebra_weight_counts(base, mult: int, q: int, j_max: int) -> list[int]:
    """Codeword counts of weight 0..j_max by a DP over the group algebra of (F_q, XOR).

    ``base`` is the defining block (one copy), each entry listed ``mult``
    times in the code's vector.  A codeword is a choice of nu_beta
    coordinates among the mult holding each value beta, subject to the
    XOR of the chosen values (with multiplicity) being 0.  The counts are
    the X^0 coefficients of prod_beta sum_nu C(mult, nu) z^nu X^(nu*beta);
    the z-degree is capped at j_max.  In characteristic 2 a doubled pick
    contributes X^0, which the recurrence uses directly.  O(q * N * j_max).
    """
    rows = [[0] * q for _ in range(j_max + 1)]
    rows[0][0] = 1
    top = 0
    for beta in base:
        perm = [g ^ beta for g in range(q)]
        top = min(top + mult, j_max)
        for j in range(top, 0, -1):
            shifted = list(map(rows[j - 1].__getitem__, perm))
            if mult == 2:
                if j >= 2:
                    rows[j] = [
                        c + 2 * s + d for c, s, d in zip(rows[j], shifted, rows[j - 2])
                    ]
                else:
                    rows[j] = [c + 2 * s for c, s in zip(rows[j], shifted)]
            else:
                rows[j] = [c + s for c, s in zip(rows[j], shifted)]
    return [row[0] for row in rows]


def wht_values(points, copies: int, q: int) -> list[int]:
    """F(u) = sum_x f[x] (-1)^popcount(u & x) for every u < q, by a list butterfly.

    f[x] is ``copies`` times the number of listings of x in ``points``.
    Two list slices per block and stage.
    """
    f = [0] * q
    for x in points:
        f[x] += copies
    h = 1
    while h < q:
        for lo in range(0, q, 2 * h):
            mid, hi = lo + h, lo + 2 * h
            xs, ys = f[lo:mid], f[mid:hi]
            f[lo:mid] = [x + y for x, y in zip(xs, ys)]
            f[mid:hi] = [x - y for x, y in zip(xs, ys)]
        h *= 2
    return f


def wht_weight_histogram(base, mult: int, q: int, n: int) -> dict[int, int]:
    """Weights of the q dual words by a list butterfly over the multiplicities.

    f[beta] counts beta in the code's vector (each entry of ``base``
    listed ``mult`` times); its integer Walsh-Hadamard transform F(u) is
    n - 2 wt, one value per u (``wht_values``).
    """
    hist: dict[int, int] = {}
    for F in wht_values(base, mult, q):
        hist[(n - F) // 2] = hist.get((n - F) // 2, 0) + 1
    return hist


def bitmask(bits) -> int:
    """The integer whose bit l is bits[l], read from one string of binary digits."""
    return int("".join(map(str, bits))[::-1], 2)


def rows_by_entry(entries, masks) -> list[int]:
    """Bit l of row k is the parity of entries[l] & masks[k], one entry at a time."""
    return [bitmask([(entry & mask).bit_count() & 1 for entry in entries]) for mask in masks]


def rows_by_parity_tables(entries, masks, r: int) -> list[int]:
    """``rows_by_entry`` one mask at a time, by byte planes and 256-byte parity tables.

    The entries (below 2^r) are cut into byte planes, each reversed so
    that entry l lands on bit l.  The parity of entry & mask is the XOR
    over the planes of the parity of the plane's byte & the mask's byte,
    so a row is one ``translate`` of each plane through the parity table
    of that mask byte, read in base 2, XORed over the planes.
    """
    flip = bytes.maketrans(b"01", b"10")

    def parity_table(mask: int) -> bytes:
        table = b"0"
        for k in range(8):
            # the upper half is x with bit k set: the same parities, flipped where the mask has bit k
            table += table.translate(flip) if mask >> k & 1 else table
        return table

    planes = [bytes(entry >> shift & 255 for entry in reversed(entries)) for shift in range(0, r, 8)]
    rows = []
    for mask in masks:
        row = 0
        for p, plane in enumerate(planes):
            row ^= int(plane.translate(parity_table(mask >> 8 * p & 255)), 2)
        rows.append(row)
    return rows


def pless_sums_by_order(h_max: int, n: int, dist) -> list[int]:
    """P_h = sum_{j <= min(N, h)} (-1)^j C_j sum_{t=j..min(h, N)} t! S(h, t) 2^(h-t) C(N-j, N-t).

    Each order on its own, in O(h^2) terms, with t! S(h, t) the number
    of surjections sum_m (-1)^(t-m) C(t, m) m^h.
    """
    sums = []
    for h in range(h_max + 1):
        top = min(n, h)
        weights = [
            sum((-1) ** (t - m) * math.comb(t, m) * m**h for m in range(t + 1)) << (h - t)
            for t in range(top + 1)
        ]
        sums.append(
            sum(
                (-1) ** j * dist[j] * sum(weights[t] * math.comb(n - j, n - t) for t in range(j, top + 1))
                for j in range(top + 1)
            )
        )
    return sums


def dual_words(generators, q: int) -> list[int]:
    """The q words of a GF(2)-linear map a -> c(a), indexed by a, all stored.

    ``generators`` lists c(2^k) for k = 0..r-1 as bitmasks; every other
    word is one XOR: c(a) = c(a & (a-1)) ^ c(lowest bit of a).
    """
    words = [0] * q
    for a in range(1, q):
        words[a] = words[a & (a - 1)] ^ generators[(a & -a).bit_length() - 1]
    return words


def dual_structure_by_scan(words, basis, n: int) -> dict:
    """The dual-structure report, from every dual word against every code basis vector.

    ``words`` lists the q dual words c_i(a) (one per a, zero included)
    and ``basis`` a basis of the code, both as length-n bitmasks.
    """
    image = len(set(words))
    cardinality = 1 << len(basis)
    return {
        "orthogonal": all((m & bv).bit_count() % 2 == 0 for m in words for bv in basis),
        "kernel_size": words.count(0),
        "injective": image == len(words),
        "code_cardinality": cardinality,
        "product_check": image * cardinality == 1 << n,
    }


def split_char_sum_by_mul(ctx, a: int) -> int:
    """sum over alpha outside {0, 1} of lambda(a/(alpha^2 + alpha)), by field mul and inverse."""
    trace, inv, mul = ctx.trace_table, ctx.inv_table, ctx.mul
    total = 0
    for alpha in range(2, ctx.q):
        theta = mul(alpha, alpha) ^ alpha
        total += 1 - 2 * trace[mul(a, inv[theta])]
    return total


def irreducible_char_sum_by_mul(ctx, a: int, b: int) -> int:
    """sum over alpha of lambda(a/(alpha^2 + alpha + b)), tr(b) = 1, by field mul and inverse."""
    trace, inv, mul = ctx.trace_table, ctx.inv_table, ctx.mul
    total = 0
    for alpha in range(ctx.q):
        d = mul(alpha, alpha) ^ alpha ^ b
        total += 1 - 2 * trace[mul(a, inv[d])]
    return total


def char_sum_row_by_lookup(ctx, b: int) -> list:
    """quadratic_char_sums(ctx, b) as twice a sum of literal lookups: O(q^2).

    With row[t] = lambda(g^t) over the two periods of ``ctx.exp`` and
    n_d = q-1 - log d, the term lambda(a/d) for a denominator d in
    b + theta is row[log a + n_d], so the sum for a is one ``itemgetter``
    of every n_d over row[log a:].
    """
    trace, log = ctx.trace_table, ctx.log
    row = [1 - 2 * trace[x] for x in ctx.exp]
    neg = [ctx.q - 1 - log[t ^ b] for t in ctx.theta if t != b]
    # itemgetter of one index returns the item, not a 1-tuple, and of none raises
    terms = itemgetter(*neg) if len(neg) > 1 else lambda s: [s[n] for n in neg]
    return [None] + [2 * sum(terms(row[la:])) for la in log[1:]]


class ArgparseUsageError(Exception):
    """A command line that the argparse oracle refuses."""


class _ArgparseParser(argparse.ArgumentParser):
    def error(self, message):
        raise ArgparseUsageError(message)


def argparse_parser() -> argparse.ArgumentParser:
    """The CLI's command and eight options declared to argparse: the oracle of its parser.

    ``parse_args`` gives a namespace with the command and every option,
    or raises ArgparseUsageError where argparse would print usage and exit.
    It reads --hmax and --jmax with ``int()``, which also takes non-ASCII
    digits, a "+", a "_" and surrounding spaces that the CLI refuses; the
    argvs compared with it use ASCII digits only.
    """
    parser = _ArgparseParser(
        prog="kmoments",
        usage="%(prog)s {moments,weights,verify} --r R [options]",
        description="Batch front-end. Every command accepts every option; --jmax shapes only "
        "weights, and --hmax only moments and verify.",
    )
    parser.add_argument(
        "command",
        choices=("moments", "weights", "verify"),
        help="moments: recursive vs brute-force power moments; "
        "weights: code weight distributions; verify: run the full identity suite",
    )
    parser.add_argument("--r", required=True, help="degree, or inclusive range a..b")
    parser.add_argument("--modulus", help="irreducible modulus override (hex or x^k+... form)")
    parser.add_argument("--b", help="trace-one element override (hex)")
    parser.add_argument("--hmax", type=int, default=10, help="largest moment order (default 10)")
    parser.add_argument("--code", default="1,2,3,4", help="comma list from 1..4")
    parser.add_argument("--jmax", type=int, default=None, help="truncate distributions at this weight")
    parser.add_argument("--format", choices=("json", "csv", "pretty"), default="pretty")
    parser.add_argument("--out", default=None, help="write output to this path instead of stdout")
    return parser
