"""Hand-rolled reference implementations for the test suite.

Everything here is deliberately independent of the package: schoolbook
carry-less arithmetic with explicit long-division reduction, traces by
repeated squaring, inverses by exhaustive search, Kloosterman sums by
literal summation, codeword counting by scanning the full binary cube,
and weight counts by a dynamic program over the group algebra of
(F_q, XOR).  Slow on purpose; only used at desk scale.
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
