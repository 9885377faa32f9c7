"""Hand-rolled reference implementations for the test suite.

Everything here is deliberately independent of the package: schoolbook
carry-less arithmetic with explicit long-division reduction, traces by
repeated squaring, inverses by exhaustive search, Kloosterman sums by
literal summation, codeword counting by scanning the full binary cube,
weight counts by a dynamic program over the group algebra of
(F_q, XOR), dual weights by a list Walsh-Hadamard butterfly, and the
dual structure of a code by a pairwise parity scan.  Slow on purpose; only used at desk scale.

The two quadratic character sums are the exception: they take a field
context and evaluate each term through its ``mul`` and inverse table,
where the package indexes exp/log directly.
"""


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


def wht_weight_histogram(base, mult: int, q: int, n: int) -> dict[int, int]:
    """Weights of the q dual words by a list butterfly over the multiplicities.

    f[beta] counts beta in the code's vector (each entry of ``base``
    listed ``mult`` times); its integer Walsh-Hadamard transform F(u) is
    n - 2 wt, one value per u.  Two list slices per block and stage.
    """
    f = [0] * q
    for beta in base:
        f[beta] += mult
    h = 1
    while h < q:
        for lo in range(0, q, 2 * h):
            mid, hi = lo + h, lo + 2 * h
            xs, ys = f[lo:mid], f[mid:hi]
            f[lo:mid] = [x + y for x, y in zip(xs, ys)]
            f[mid:hi] = [x - y for x, y in zip(xs, ys)]
        h *= 2
    hist: dict[int, int] = {}
    for F in f:
        hist[(n - F) // 2] = hist.get((n - F) // 2, 0) + 1
    return hist


def dual_structure_by_scan(words, basis, n: int) -> dict:
    """The dual-structure report, from every dual word against every code basis vector.

    ``words`` lists the q dual words c_i(a) (one per a, zero included)
    and ``basis`` a basis of the code, both as length-n bitmasks.
    """
    image = len(set(words))
    cardinality = 1 << len(basis)
    return {
        "length": n,
        "orthogonal": all((m & bv).bit_count() % 2 == 0 for m in words for bv in basis),
        "dual_image_size": image,
        "kernel_size": words.count(0),
        "injective": image == len(words),
        "code_cardinality": cardinality,
        "product_check": image * cardinality == 1 << n,
    }


def split_char_sum_by_mul(ctx, a: int) -> int:
    """sum over alpha outside {0, 1} of lambda(a/(alpha^2 + alpha)), by field mul and inverse."""
    lam, inv, mul = ctx.lam_table, ctx.inv_table, ctx.mul
    total = 0
    for alpha in range(2, ctx.q):
        theta = mul(alpha, alpha) ^ alpha
        total += lam[mul(a, inv[theta])]
    return total


def irreducible_char_sum_by_mul(ctx, a: int, b: int) -> int:
    """sum over alpha of lambda(a/(alpha^2 + alpha + b)), tr(b) = 1, by field mul and inverse."""
    lam, inv, mul = ctx.lam_table, ctx.inv_table, ctx.mul
    total = 0
    for alpha in range(ctx.q):
        d = mul(alpha, alpha) ^ alpha ^ b
        total += lam[mul(a, inv[d])]
    return total
