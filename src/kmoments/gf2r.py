"""Arithmetic in GF(2^r) with a precomputed trace table.

Field elements are plain ints in [0, q) with q = 2^r; bit k of an
element is the coefficient of x^k in its polynomial-basis
representative, so addition is XOR.  A :class:`FieldContext` fixes the
extension degree, an irreducible modulus polynomial, exp/log and
inverse tables, the trace table, the image of the Artin-Schreier map
x -> x^2 + x (sorted ascending, 0 first), and a distinguished element
b of trace 1.  The tables are tuples and bytes, and no function of the
package modifies a context, so one context may be shared; every
operation is a pure function of (context, arguments).

By default the modulus is the degree-r irreducible polynomial with the
smallest integer encoding and b is the smallest trace-one element.
These canonical choices make outputs reproducible; any irreducible
modulus of the right degree (and any trace-one b) may be supplied
instead, since fields of equal order are isomorphic and everything
built downstream is invariant under the choice.

Each table is built in whole-table passes.  exp comes from one walk:
the first g = 1, 2, .. whose powers return to 1 at step q - 1, not
before, is primitive, and its walk is the table.  Each step multiplies
by g through two tables of at most 256 entries, one per byte of the
element, and a g that an earlier, shorter walk visited is never
walked, since it lies in a proper subgroup.  log is one pass over exp,
and the inverses one pass over exp beside exp reversed.  tr(x^k) is
the k-th power sum of the modulus's roots, the conjugates of x, which
Newton's identities give from its coefficients; the trace table then
doubles r times, by a copy or a flipped copy.  theta, the trace's
kernel, is read off it and checked against the x^2 + x image,
exp[2 log a] ^ a for each a, which shares no code with it.

Three private helpers serve the layers above: ``_trace_map`` is the
table phi with tr(x y) = parity(x & phi(y)), the one form in which the
codes' generator rows and the character-sum row read the trace;
``_unpack_slots`` reads the fixed-width slots of an int back, and
``_walsh_hadamard`` transforms a point set's indicator on q slots of one
int, for the character-sum row and for each code's block.
"""

import sys
from itertools import compress

__all__ = [
    "FieldContext",
    "build_field",
    "irreducible_polys",
    "poly_str",
    "parse_poly",
]

MAX_DEGREE = 16

# byte widths a Walsh-Hadamard slot may take, narrowest first; a slot
# holds F(u) + 2^(8w-1) with |F(u)| <= n, so it needs n < 2^(8w-1), and
# four bytes hold every n up to q at the field's MAX_DEGREE
_WHT_SLOT_BYTES = (1, 2, 4)

# bytes.translate table that swaps trace values 0 and 1
_FLIP = bytes((1, 0)) + bytes(254)


def _check_int(name: str, value, lo=None, hi=None, optional: bool = False) -> None:
    """Refuse an argument of any type but int, or an int outside lo..hi.

    Both bounds are inclusive; hi is given only with lo.  None is
    refused too, unless ``optional``.  A wrong type and a value out of
    range get the same message: ``<name> must be an int``, then
    `` in <lo>..<hi>`` or `` >= <lo>`` if bounded, then ``, got <repr>``.
    """
    if optional and value is None:
        return
    # True passes a range test as 1, and 3.0 equals 3 but indexes no table
    if type(value) is not int or lo is not None and value < lo or hi is not None and value > hi:
        bounds = "" if lo is None else f" >= {lo}" if hi is None else f" in {lo}..{hi}"
        raise ValueError(f"{name} must be an int{bounds}, got {value!r}")


def _unpack_slots(value: int, count: int, width: int) -> memoryview:
    """The ``count`` little-endian ``width``-byte slots of ``value`` >= 0, as an unsigned view."""
    # cast reads the host's byte order: big-endian bytes put the last slot first, so reverse them
    typecode = next((t for t in "BHILQ" if memoryview(bytes(8)).cast(t).itemsize == width), None)
    if typecode is None:
        raise ArithmeticError(f"no array typecode has {width}-byte items")
    slots = memoryview(value.to_bytes(count * width, sys.byteorder)).cast(typecode)
    return slots if sys.byteorder == "little" else slots[::-1]


def _wht_stages(q: int, width: int) -> list[tuple[int, int, int]]:
    """(shift, mask, bias) for each stage h = 1, 2, 4, .., q/2 of the packed transform: mask
    and bias hold 2^(8 width) - 1 and the slot bias 2^(8 width - 1) in exactly the slots k
    with k & h == 0, and shift is the bit distance from slot k to slot k + h."""
    one, stages = (1).to_bytes(width, "little"), []
    h = 1
    while h < q:
        ones = int.from_bytes((one * h + bytes(width * h)) * (q // (2 * h)), "little")
        stages.append((8 * width * h, ones * ((1 << 8 * width) - 1), ones << (8 * width - 1)))
        h *= 2
    return stages


def _walsh_hadamard(q: int, points, n: int) -> memoryview:
    """F(u) = sum_x f[x] (-1)^popcount(u & x) for every u < q, as a signed view.

    f is the indicator of the distinct nonzero ``points``, and n, their
    number, comes from a length the caller knows.  The q values live
    in one int, slot k holding F_k + B in ``width`` little-endian bytes,
    B = 2^(8 width - 1).  Every partial sum of the butterflies is bounded
    by n, so the narrowest width with n < B keeps every slot in
    0..2^(8 width) - 1.  Stage h pairs slot k with slot k + h for each k
    with k & h = 0:

        lo = x & M_h,  hi = (x >> shift_h) & M_h,
        x = (lo + hi - B_h) | ((lo - hi + B_h) << shift_h),

    with M_h and B_h from ``_wht_stages``.  Each slot of the two terms
    ends in range, so the exact integer sums leave every value in its
    own slot, whatever carries or borrows happen on the way.  XORing B
    into every slot leaves F_k in two's complement.  Two invariants are
    checked: F(0) = n, which a lost point breaks, and sum_u F(u) =
    q f[0] = 0, which a zero point breaks.
    """
    width = next((w for w in _WHT_SLOT_BYTES if n < 1 << (8 * w - 1)), None)
    if width is None:
        raise ArithmeticError(f"no slot of {_WHT_SLOT_BYTES} bytes holds transform values up to {n}")
    half = (1 << (8 * width - 1)).to_bytes(width, "little")
    # f[x] + B in every slot; B's low byte is 0 (or 0x80 in one-byte slots)
    f = bytearray(half * q)
    for p in points:
        f[p * width] += 1
    x = int.from_bytes(f, "little")
    for shift, mask, stage_bias in _wht_stages(q, width):
        lo = x & mask
        hi = (x >> shift) & mask
        x = (lo + hi - stage_bias) | ((lo - hi + stage_bias) << shift)
    unsigned = _unpack_slots(x ^ int.from_bytes(half * q, "little"), q, width)
    values = memoryview(unsigned.tobytes()).cast(unsigned.format.lower())
    if values[0] != n or sum(values):
        raise ArithmeticError(f"transform gives F(0) = {values[0]} and sum F = {sum(values)}, not {n} and 0")
    return values


def _span(basis: list[int]) -> list[int]:
    """The XOR of each subset of ``basis``, indexed by the subset: entry y ^ 2^k is entry y
    XOR basis[k] for y < 2^k, so the table doubles once per basis element."""
    table = [0]
    for m in basis:
        table += [t ^ m for t in table]
    return table


def _polymod(a: int, b: int) -> int:
    """Remainder of carry-less division of GF(2)[x] polynomial a >= 0 by b > 0."""
    bl = b.bit_length()
    while a.bit_length() >= bl:
        a ^= b << (a.bit_length() - bl)
    return a


def _find_factor(f: int) -> int | None:
    """Smallest nontrivial divisor of f over GF(2), or None if irreducible."""
    deg = f.bit_length() - 1
    for d in range(1, deg // 2 + 1):
        for g in range(1 << d, 1 << (d + 1)):
            if _polymod(f, g) == 0:
                return g
    return None


def irreducible_polys(r: int):
    """Yield the irreducible degree-r polynomials in increasing encoding order."""
    _check_int("r", r, 1, MAX_DEGREE)
    for f in range(1 << r, 1 << (r + 1)):
        if _find_factor(f) is None:
            yield f


def poly_str(f: int) -> str:
    """Render a polynomial bitmask as e.g. 'x^3+x+1'."""
    _check_int("f", f, 0)
    if f == 0:
        return "0"
    # one pass over the binary digits, highest first: linear in the bit length
    top = f.bit_length() - 1
    terms = [
        "1" if k == 0 else "x" if k == 1 else f"x^{k}"
        for k, digit in zip(range(top, -1, -1), format(f, "b"))
        if digit == "1"
    ]
    return "+".join(terms)


def parse_poly(s: str) -> int:
    """Parse a polynomial given as hex (0x..), binary (0b..), decimal, or 'x^3+x+1'.

    Exponents must lie in 0..MAX_DEGREE; x^k is checked before it shifts.
    Text in none of these forms, with a repeated term or with any character
    but ASCII ``0-9 a-f x ^ + -``, raises ``invalid value: '<text>'``.
    """
    text = s.strip().replace(" ", "").lower()
    out_of_range = f"polynomial exponents must be within 0..{MAX_DEGREE} (gf2r.MAX_DEGREE)"
    base = {"0x": 16, "0b": 2}.get(text[:2], 10)
    f, exponents = 0, []
    try:
        if base != 10 or text.isdigit():
            f = int(text, base)
        else:  # x^k is k, 1 is 0 and x is 1
            exponents = [int(t[2:]) if t[:2] == "x^" else ("1", "x").index(t) for t in text.split("+")]
        # int() reads "_", whitespace around digits and non-ASCII digits; XOR would cancel a repeated term
        if not set(text) <= set("0123456789abcdefx^+-") or len(set(exponents)) != len(exponents):
            raise ValueError
    except ValueError:
        raise ValueError(f"invalid value: {s!r}") from None
    for k in exponents:
        if not 0 <= k <= MAX_DEGREE:
            raise ValueError(out_of_range)
        f ^= 1 << k
    if not 0 <= f < 1 << (MAX_DEGREE + 1):
        raise ValueError(out_of_range)
    return f


class FieldContext:
    """GF(2^r) with precomputed tables.

    Attributes
    ----------
    r, q : extension degree and field size 2^r.
    modulus : irreducible degree-r polynomial as an (r+1)-bit int.
    exp, log : discrete exp/log tables for a primitive element; ``exp``
        holds two periods so ``exp[log[x] + log[y]]`` needs no reduction.
    inv_table : multiplicative inverses, index 0 unused.
    trace_table : bytes, entry a = tr(a) in {0, 1}.
    theta : the trace-zero set, ascending (equals the image {a^2 + a};
        exactly q/2 elements, starting with 0).
    b : a fixed element outside theta, i.e. of trace 1.
    """

    def __init__(self, r: int, modulus: int | None = None, b: int | None = None):
        _check_int("r", r, 1, MAX_DEGREE)
        # a negative int is no polynomial, and the factor search never ends on one
        _check_int("modulus", modulus, 0, optional=True)
        _check_int("b", b, optional=True)
        if modulus is None:
            modulus = next(irreducible_polys(r))
        else:
            if modulus.bit_length() - 1 != r:
                raise ValueError(
                    f"modulus {poly_str(modulus)} has degree {modulus.bit_length() - 1}, need {r}"
                )
            factor = _find_factor(modulus)
            if factor is not None:
                raise ValueError(
                    f"modulus {poly_str(modulus)} is reducible (divisible by {poly_str(factor)})"
                )
        self.r = r
        self.q = 1 << r
        self.modulus = modulus

        self.exp, self.log = self._build_exp_log()
        # 1/g^k = g^(q-1-k): the walk's powers paired with the walk reversed, both read in
        # sequence (at r = 16 a tenth of the time of a look-up at log x for each x)
        walk = self.exp[: self.q - 1]
        inverses = [0] * self.q
        for x, y in zip(walk, self.exp[self.q - 1 : 0 : -1]):
            inverses[x] = y
        self.inv_table = tuple(inverses)
        self.trace_table = tt = self._build_trace_table()
        self.theta = tuple(compress(range(self.q), tt.translate(_FLIP)))
        # x^2 + x maps onto the kernel of the trace: a wrong exp/log or trace table breaks that;
        # a^2 + a is exp[2 log a] ^ a, over 0 and the walk, which reads the tables nearly in sequence
        image = {0, *(self.exp[2 * self.log[a]] ^ a for a in walk)}
        if len(image) != len(self.theta) or any(map(tt.__getitem__, image)):
            x = min(image.symmetric_difference(self.theta))
            raise ArithmeticError(
                f"the image of x^2 + x ({len(image)} values) is not the trace-zero set "
                f"({len(self.theta)} values): {x:#x} is {'in the image' if x in image else 'of trace 0'} only"
            )

        if b is None:
            b = self.trace_table.index(1)
        elif not 0 <= b < self.q or self.trace_table[b] != 1:
            raise ValueError(f"b must be a field element of trace 1, got {b:#x}")
        self.b = b

    # -- construction helpers -------------------------------------------------

    def _times_tables(self, g: int) -> tuple[list[int], list[int]]:
        # v g = lo[v & 255] ^ hi[v >> 8] for every v < q (r <= 16): x -> x g is GF(2)-linear,
        # so each table is the span of the products x^k g of its byte's bits
        products, m = [], g
        for _ in range(self.r):
            products.append(m)
            m <<= 1
            if m >> self.r:
                m ^= self.modulus
        return _span(products[:8]), _span(products[8:])

    def _build_exp_log(self):
        # g^(q-1) = 1 makes g a unit, so a walk first back at 1 at step q - 1 has q - 1
        # distinct powers; a walk back at 1 sooner visits a proper subgroup, none of
        # whose elements is primitive, so no later g that it visited is walked
        q = self.q
        qm1 = q - 1
        exp = [0] * qm1
        visited = bytearray(q)
        for g in range(1, q):
            if visited[g]:
                continue
            lo, hi = self._times_tables(g)
            v = 1
            for i in range(qm1):
                exp[i] = v
                v = lo[v & 255] ^ hi[v >> 8]
                if v == 1:
                    break
            if v == 1 and i == qm1 - 1:
                # in a field no walk writes log[0]
                log: list[int | None] = [None] * q
                for k, x in enumerate(exp):
                    log[x] = k
                return tuple(exp * 2), tuple(log)
            for v in exp[: i + 1]:
                visited[v] = 1
        raise ArithmeticError(f"no g has order q - 1 = {qm1} modulo {poly_str(self.modulus)}")

    def _build_trace_table(self) -> bytes:
        # tr(x^k) = p_k, the k-th power sum of the roots x^(2^j): with e_j the coefficient of
        # x^(r-j), Newton's identities over GF(2) give p_0 = r and, for 0 < k < r,
        # p_k = e_1 p_(k-1) + .. + e_(k-1) p_1 + k e_k
        r, f = self.r, self.modulus
        e = [f >> (r - j) & 1 for j in range(r)]
        p = [r & 1]
        for k in range(1, r):
            p.append((sum(e[j] & p[k - j] for j in range(1, k)) + k * e[k]) & 1)
        # tr(y ^ x^k) = tr(y) ^ tr(x^k) for y < 2^k: a copy, or a flipped copy, per p_k
        table = b"\0"
        for bit in p:
            table += table.translate(_FLIP) if bit else table
        return table

    # -- field operations -----------------------------------------------------

    def mul(self, x: int, y: int) -> int:
        """Product in GF(2^r)."""
        if x == 0 or y == 0:
            return 0
        return self.exp[self.log[x] + self.log[y]]

    def elements(self) -> range:
        return range(self.q)

    def nonzero(self) -> range:
        return range(1, self.q)

    # -- presentation ----------------------------------------------------------

    def __repr__(self):
        return f"FieldContext(r={self.r}, modulus={poly_str(self.modulus)}, b={self.b:#x})"


def build_field(r: int, modulus: int | None = None, b: int | None = None) -> FieldContext:
    """Construct GF(2^r), with optional modulus and trace-one b overrides."""
    return FieldContext(r, modulus=modulus, b=b)


def _trace_map(ctx: FieldContext) -> list[int]:
    """phi(y) = sum_j tr(2^j y) 2^j for every y < q, indexed by y: tr(x y) = parity(x & phi(y)).

    phi is GF(2)-linear, so the table doubles from phi(2^k), the mask with
    bit j = tr(2^k 2^j): phi(y ^ 2^k) = phi(y) ^ phi(2^k) for y < 2^k.
    """
    tt, mul, r = ctx.trace_table, ctx.mul, ctx.r
    return _span([sum(tt[mul(1 << k, 1 << j)] << j for j in range(r)) for k in range(r)])
