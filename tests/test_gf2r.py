import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kmoments.gf2r as gf2r
from kmoments.gf2r import (
    _trace_map,
    _walsh_hadamard,
    build_field,
    irreducible_polys,
    parse_poly,
    poly_str,
)

import oracles


# -- modulus selection ------------------------------------------------------


@pytest.mark.parametrize("r", range(1, 9))
def test_canonical_modulus_matches_scan(r):
    assert next(irreducible_polys(r)) == oracles.irreducible_by_scan(r)


def test_canonical_modulus_r3(ctx3):
    assert ctx3.modulus == 0b1011  # x^3 + x + 1


def test_reducible_modulus_rejected():
    with pytest.raises(ValueError, match="reducible"):
        build_field(3, modulus=0b1100)  # x^3 + x^2 = x^2 (x + 1)


def test_wrong_degree_modulus_rejected():
    with pytest.raises(ValueError, match="degree"):
        build_field(3, modulus=0b111)


def test_degree_out_of_range_rejected():
    with pytest.raises(ValueError):
        build_field(0)
    with pytest.raises(ValueError):
        build_field(17)


def test_any_irreducible_modulus_accepted():
    for m in irreducible_polys(4):
        ctx = build_field(4, modulus=m)
        assert ctx.modulus == m


# -- multiplication and inversion --------------------------------------------


def test_mul_examples(ctx3):
    assert ctx3.mul(2, 2) == 4  # x * x, no reduction
    assert ctx3.mul(4, 2) == 3  # x^3 reduces to x + 1
    for x in ctx3.elements():
        assert ctx3.mul(x, 1) == x


@pytest.mark.parametrize("r", [2, 3, 4])
def test_mul_agrees_with_schoolbook(r):
    ctx = build_field(r)
    for x in ctx.elements():
        for y in ctx.elements():
            assert ctx.mul(x, y) == oracles.field_mul(x, y, ctx.modulus)


def test_inv_examples(ctx3):
    assert ctx3.inv_table[1] == 1
    assert ctx3.inv_table[2] == oracles.naive_inv(2, ctx3.modulus, 3) == 5
    assert ctx3.inv_table[4] == oracles.naive_inv(4, ctx3.modulus, 3) == 7


@pytest.mark.parametrize("r", range(1, 7))
def test_inv_roundtrip(r):
    ctx = build_field(r)
    for x in ctx.nonzero():
        assert ctx.mul(x, ctx.inv_table[x]) == 1
        assert ctx.inv_table[ctx.inv_table[x]] == x


@pytest.mark.parametrize("r", range(1, 17))
def test_exp_walk_picks_the_factoring_primitive(r):
    # every irreducible modulus up to r = 8, the canonical one above
    moduli = list(irreducible_polys(r)) if r <= 8 else [next(irreducible_polys(r))]
    for modulus in moduli:
        ctx = build_field(r, modulus=modulus)
        assert ctx.exp[1] == oracles.primitive_by_factoring(modulus, r), poly_str(modulus)


@pytest.mark.parametrize("modulus", [0b10, 0b11])
def test_gf2_tables(modulus):
    # the exp walk takes g = 1, the only generator of GF(2)*
    ctx = build_field(1, modulus=modulus)
    assert (ctx.exp, ctx.log, ctx.inv_table) == ((1, 1), (None, 0), (0, 1))


_CTXS = {r: build_field(r) for r in (5, 6, 8)}


@settings(max_examples=200, deadline=None)
@given(r=st.sampled_from(sorted(_CTXS)), x=st.integers(0), y=st.integers(0), z=st.integers(0))
def test_field_axioms_sampled(r, x, y, z):
    ctx = _CTXS[r]
    x, y, z = x % ctx.q, y % ctx.q, z % ctx.q
    assert ctx.mul(x, y) == ctx.mul(y, x)
    assert ctx.mul(ctx.mul(x, y), z) == ctx.mul(x, ctx.mul(y, z))
    assert ctx.mul(x, y ^ z) == ctx.mul(x, y) ^ ctx.mul(x, z)


# -- trace and the additive character ----------------------------------------


@pytest.mark.parametrize("r", range(1, 7))
def test_trace_against_frobenius_sum(r):
    ctx = build_field(r)
    for x in ctx.elements():
        assert ctx.trace_table[x] == oracles.naive_trace(x, ctx.modulus, r)


@pytest.mark.parametrize("r", range(1, 17))
def test_trace_map_holds_the_trace_of_each_basis_product(r, contexts):
    # bit j of phi(y) is tr(2^j y), so tr(x y) = parity(x & phi(y))
    ctx = contexts[r] if r <= 8 else build_field(r)
    tt, mul = ctx.trace_table, ctx.mul
    expected = [sum(tt[mul(1 << j, y)] << j for j in range(r)) for y in ctx.elements()]
    assert _trace_map(ctx) == expected


def test_trace_examples(ctx3):
    assert ctx3.trace_table[0] == 0
    assert ctx3.trace_table[2] == 0
    assert ctx3.trace_table[7] == 1
    for r in range(1, 9):
        assert build_field(r).trace_table[1] == r % 2


@pytest.mark.parametrize("r", range(1, 8))
def test_trace_linear_and_frobenius_invariant(r):
    ctx = build_field(r)
    for x in ctx.elements():
        assert ctx.trace_table[ctx.mul(x, x)] == ctx.trace_table[x]
    for x in range(0, ctx.q, 3):
        for y in ctx.elements():
            assert ctx.trace_table[x ^ y] == ctx.trace_table[x] ^ ctx.trace_table[y]


@pytest.mark.parametrize("r", range(1, 8))
def test_trace_balanced(r):
    ctx = build_field(r)
    assert sum(ctx.trace_table) == ctx.q // 2


def test_lambda_examples(ctx3):
    assert 1 - 2 * ctx3.trace_table[0] == 1
    assert 1 - 2 * ctx3.trace_table[7] == -1
    assert 1 - 2 * ctx3.trace_table[6] == 1


@pytest.mark.parametrize("r", range(1, 6))
def test_lambda_multiplicative_over_addition(r):
    ctx = build_field(r)
    lam = [1 - 2 * t for t in ctx.trace_table]
    for x in ctx.elements():
        for y in ctx.elements():
            assert lam[x ^ y] == lam[x] * lam[y]


@pytest.mark.parametrize("r", range(1, 9))
def test_lambda_orthogonality(r):
    ctx = build_field(r)
    assert sum(1 - 2 * ctx.trace_table[x] for x in ctx.elements()) == 0


# -- theta (image of x -> x^2 + x) and the coset element b --------------------


def test_theta_r3(ctx3):
    assert ctx3.theta == (0, 2, 4, 6)
    assert oracles.naive_theta_image(ctx3.modulus, 3) == [0, 2, 4, 6]


@pytest.mark.parametrize("r", range(1, 9))
def test_theta_is_trace_zero_set(r):
    ctx = build_field(r)
    assert len(ctx.theta) == ctx.q // 2
    assert ctx.theta[0] == 0
    assert list(ctx.theta) == sorted(ctx.theta)
    assert set(ctx.theta) == {x for x in ctx.elements() if ctx.trace_table[x] == 0}


@pytest.mark.parametrize("r", range(1, 9))
def test_cosets_partition_field(r):
    ctx = build_field(r)
    shifted = {ctx.b ^ g for g in ctx.theta}
    assert set(ctx.theta) | shifted == set(ctx.elements())
    assert not set(ctx.theta) & shifted


def test_pick_b(ctx3, ctx4):
    assert ctx3.b == 1  # tr(1) = 1 for odd r
    for ctx in (ctx3, ctx4):
        assert ctx.trace_table[ctx.b] == 1
        assert all(ctx.trace_table[x] == 0 for x in range(ctx.b))


def test_b_override():
    ctx = build_field(4)
    other = [x for x in ctx.elements() if ctx.trace_table[x] == 1][-1]
    assert build_field(4, b=other).b == other
    with pytest.raises(ValueError, match="trace 1"):
        build_field(4, b=ctx.theta[1])


# -- presentation -------------------------------------------------------------


def test_poly_str():
    assert poly_str(0b1011) == "x^3+x+1"
    assert poly_str(0b10) == "x"
    assert poly_str(1) == "1"
    assert poly_str(0) == "0"


def _poly_str_by_bits(f: int) -> str:
    # the per-bit definition: bit k of f, for each k from the top down
    if f == 0:
        return "0"
    return "+".join(
        "1" if k == 0 else "x" if k == 1 else f"x^{k}"
        for k in range(f.bit_length() - 1, -1, -1)
        if f >> k & 1
    )


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=(1 << 300) - 1))
def test_poly_str_matches_per_bit_definition(f):
    assert poly_str(f) == _poly_str_by_bits(f)


@pytest.mark.parametrize("f", [1 << 100_000 | 1, random.Random(0).getrandbits(100_000)], ids=["sparse", "dense"])
def test_poly_str_at_100k_bits(f):
    assert poly_str(f) == _poly_str_by_bits(f)


def test_negative_modulus_rejected():
    # -9 has bit length 4, so only the sign check stops it before the factor search
    with pytest.raises(ValueError, match="^modulus must be an int >= 0, got -9$"):
        build_field(3, modulus=-9)


def test_long_modulus_message_names_its_degree():
    with pytest.raises(ValueError, match=r"^modulus x\^100000 has degree 100000, need 3$"):
        build_field(3, modulus=1 << 100_000)


# a repeated term would cancel under XOR, and int() reads some digit separators but not others
_REPEATED = ("x^3+x^2+x^2+x+1", "x^3+x+1+1", "x+x^1", "x^03+x^3")
_SEPARATED = ("0x1_3", "0b1_1", "x^1_0", "1_1")
# int() also reads inner whitespace and non-ASCII digits (here Arabic-Indic three)
_NON_ASCII = ("x^\t3+x+1", "x^\u0663+x+1", "0x\u0661\u0663", "1\u0663")


def test_parse_poly():
    assert parse_poly("x^3+x+1") == 0b1011
    assert parse_poly("0x0B") == 0b1011
    assert parse_poly("0b1011") == 0b1011
    assert parse_poly("11") == 11
    assert parse_poly("X^3 + 1") == 0b1001
    for text in ("x^3+y", "0xZZ", "0b102", "1e3", "", "x^", "x^3+", "²", *_REPEATED, *_SEPARATED, *_NON_ASCII):
        with pytest.raises(ValueError) as raised:
            parse_poly(text)
        assert str(raised.value) == f"invalid value: {text!r}"


def test_parse_poly_degree_limit():
    assert parse_poly("x^16+x^5+x^3+x^2+1") == 0x1002D
    assert parse_poly(hex((1 << 17) - 1)) == (1 << 17) - 1
    for text in ("x^17", "x^-1", "0x" + "f" * 5, "0b1" + "0" * 17, str(1 << 17), "x^10000000000"):
        with pytest.raises(ValueError, match=r"0\.\.16"):
            parse_poly(text)


def test_modulus_presentation(ctx3):
    assert f"{ctx3.modulus:#x}" == "0xb"
    assert poly_str(ctx3.modulus) == "x^3+x+1"
    assert repr(ctx3) == "FieldContext(r=3, modulus=x^3+x+1, b=0x1)"


def test_polynomial_remainder_is_private():
    # polymod(5, 0) and polymod(-5, 3) never returned; its one caller is the factor search
    assert "polymod" not in gf2r.__all__ and not hasattr(gf2r, "polymod")
    assert gf2r._polymod(0b1111, 0b11) == 0 and gf2r._polymod(0b1011, 0b11) == 1


def test_irreducible_polys_basics():
    assert list(irreducible_polys(2)) == [0b111]  # not 0b101 = (x + 1)^2
    assert list(irreducible_polys(1)) == [0b10, 0b11]


def test_build_deterministic():
    a, b = build_field(5), build_field(5)
    assert a.modulus == b.modulus
    assert a.theta == b.theta
    assert a.exp == b.exp
    assert a.trace_table == b.trace_table
    assert a.b == b.b


# -- the packed Walsh-Hadamard transform ------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(data=st.data(), r=st.integers(1, 10), copies=st.sampled_from([1, 2]))
def test_walsh_hadamard_equals_list_butterfly(data, r, copies):
    q = 1 << r
    points = data.draw(st.lists(st.integers(1, q - 1), unique=True), label="points")
    packed = _walsh_hadamard(q, points, copies, copies * len(points))
    assert list(packed) == oracles.wht_values(points, copies, q)


# n odd points give F(0) = n and F(1) = -n, the extremes a slot must hold: one-byte
# slots up to n = 127, two-byte slots up to n = 2^15 - 1, four-byte slots past it
@pytest.mark.parametrize(
    "r, count, copies",
    [(8, 127, 1), (8, 128, 1), (8, 64, 2), (16, (1 << 15) - 1, 1), (16, 1 << 15, 1)],
)
def test_walsh_hadamard_at_each_slot_width_edge(r, count, copies):
    q = 1 << r
    points = random.Random(count).sample(range(1, q, 2), count)
    packed = _walsh_hadamard(q, points, copies, copies * count)
    assert (packed[0], packed[1]) == (copies * count, -copies * count)
    assert list(packed) == oracles.wht_values(points, copies, q)
