import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kmoments.codes as codes_mod
from kmoments import (
    build_field,
    kloosterman_sum,
    kloosterman_table,
    moment_bruteforce,
    moment_sequence,
    pless_check,
)
from kmoments.codes import (
    CODE_INDICES,
    build_vector,
    code_cardinality,
    code_length,
    code_shape,
    dual_codeword,
    dual_weight_closed_form,
    dual_weight_fraction,
    dual_weights,
    is_codeword,
    kernel_basis,
    parity_check_rows,
    verify_dual_structure,
    weight_distribution,
    weight_distribution_exhaustive,
)
from kmoments.gf2r import irreducible_polys

import oracles
import stages


# -- defining vectors -----------------------------------------------------------


def test_vectors_r3(ctx3):
    assert build_vector(ctx3, 2) == (5, 7, 3)  # inverses of theta \ {0} = (2, 4, 6)
    assert build_vector(ctx3, 1) == (5, 7, 3, 5, 7, 3)
    assert build_vector(ctx3, 4) == (1, 6, 2, 4)  # inverses of the trace-one coset
    assert build_vector(ctx3, 3) == (1, 6, 2, 4, 1, 6, 2, 4)


@pytest.mark.parametrize("r", range(2, 8))
@pytest.mark.parametrize("i", CODE_INDICES)
def test_vector_lengths(r, i, contexts):
    ctx = contexts[r]
    q = ctx.q
    expected = {1: q - 2, 2: q // 2 - 1, 3: q, 4: q // 2}[i]
    assert code_length(ctx, i) == expected
    assert len(build_vector(ctx, i)) == expected


def test_small_field_rejected_for_codes_12():
    ctx = build_field(1)
    for i in (1, 2):
        with pytest.raises(ValueError, match="q >= 4"):
            build_vector(ctx, i)


def test_bad_code_index(ctx3):
    with pytest.raises(ValueError):
        build_vector(ctx3, 5)


def _inverse(ctx, x):
    # x^(q-2) by square and multiply, without the exp/log or inverse tables
    out, power, e = 1, x, ctx.q - 2
    while e:
        if e & 1:
            out = ctx.mul(out, power)
        power, e = ctx.mul(power, power), e >> 1
    return out


@pytest.mark.parametrize(
    "r, non_canonical", [(r, False) for r in range(2, 11)] + [(5, True), (8, True)]
)
def test_code_table_matches_the_definition(r, non_canonical):
    # theta = {x^2 + x}, the trace-zero elements; code 1 is the inverses of
    # its nonzero elements written twice, code 2 once; codes 3 and 4 the
    # same for the inverses of b + theta
    ctx = build_field(r)
    if non_canonical:
        ctx = build_field(r, modulus=max(irreducible_polys(r)))
        assert ctx.modulus != build_field(r).modulus
    q = ctx.q
    theta = sorted({ctx.mul(x, x) ^ x for x in ctx.elements()})
    zero_block = tuple(_inverse(ctx, g) for g in theta if g)
    one_block = tuple(_inverse(ctx, ctx.b ^ g) for g in theta)
    vectors = (zero_block + zero_block, zero_block, one_block + one_block, one_block)
    for i in CODE_INDICES:
        assert code_length(ctx, i) == (q - 2, q // 2 - 1, q, q // 2)[i - 1], i
        assert build_vector(ctx, i) == vectors[i - 1], i


def test_oracle_vectors_share_no_entry_builder(monkeypatch, contexts):
    # the block of every code read backwards: the rows the checks read move, the oracles do not
    ctx = contexts[4]

    def oracle_words(i):
        return build_vector(ctx, i), [dual_codeword(ctx, i, a) for a in ctx.elements()]

    expected = {i: (oracle_words(i), parity_check_rows(ctx, i)) for i in CODE_INDICES}
    real = codes_mod._base_entries
    monkeypatch.setattr(codes_mod, "_base_entries", lambda ctx, i: real(ctx, i)[::-1])
    for i in CODE_INDICES:
        words, h_rows = expected[i]
        assert parity_check_rows(ctx, i) != h_rows, i
        assert oracle_words(i) == words, i


# every public function taking a code index, with valid other arguments
_BY_CODE = {
    "code_shape": lambda ctx, i: code_shape(i),
    "code_length": lambda ctx, i: code_length(ctx, i),
    "build_vector": lambda ctx, i: build_vector(ctx, i),
    "is_codeword": lambda ctx, i: is_codeword(ctx, i, []),
    "dual_codeword": lambda ctx, i: dual_codeword(ctx, i, 1),
    "dual_weights": lambda ctx, i: dual_weights(ctx, i, (0,) * ctx.q),
    "dual_weight_fraction": lambda ctx, i: dual_weight_fraction(ctx.q, i, -5),
    "dual_weight_closed_form": lambda ctx, i: dual_weight_closed_form(ctx.q, i, -5),
    "weight_distribution": lambda ctx, i: weight_distribution(ctx, i),
    "weight_distribution_exhaustive": lambda ctx, i: weight_distribution_exhaustive(ctx, i),
    "code_cardinality": lambda ctx, i: code_cardinality(ctx, i, {0: 1}),
    "parity_check_rows": lambda ctx, i: parity_check_rows(ctx, i),
    "verify_dual_structure": lambda ctx, i: verify_dual_structure(ctx, i, [], []),
    "moment_sequence": lambda ctx, i: moment_sequence(ctx, i, 2),
    "pless_check": lambda ctx, i: pless_check(ctx, i, (0,) * ctx.q, [1]),
}


def test_every_code_taking_function_is_checked():
    import inspect

    import kmoments.moments as moments_mod

    taking_i = {
        name
        for module in (codes_mod, moments_mod)
        for name in module.__all__
        if inspect.isfunction(obj := getattr(module, name))
        and "i" in inspect.signature(obj).parameters
    }
    assert taking_i == set(_BY_CODE)


@pytest.mark.parametrize("i", [0, -1, 5])
@pytest.mark.parametrize("name", _BY_CODE)
def test_bad_code_index_has_one_message(name, i, ctx3):
    with pytest.raises(ValueError) as raised:
        _BY_CODE[name](ctx3, i)
    assert str(raised.value) == f"code index must be one of (1, 2, 3, 4), got {i}"


@pytest.mark.parametrize("bad", [None, "1", [1], True, 1.0])
def test_code_shape_refuses_a_value_of_another_type(bad):
    with pytest.raises(ValueError, match="code index must be one of"):
        code_shape(bad)


# -- multiplicities ---------------------------------------------------------------


def test_multiplicity_examples(ctx3):
    # 5 = inv(2) and tr(2) = 0, so 5 appears twice in vector 1
    assert build_vector(ctx3, 1).count(5) == 2
    assert build_vector(ctx3, 4).count(1) == 1  # tr(1/1) = 1
    for i in CODE_INDICES:
        assert 0 not in build_vector(ctx3, i)


@pytest.mark.parametrize("r", range(2, 7))
@pytest.mark.parametrize("i", CODE_INDICES)
def test_multiplicity_counts_vector_entries(r, i, contexts):
    ctx = contexts[r]
    if i in (1, 2) and ctx.q < 4:
        return
    # beta is an entry iff it is nonzero with tr(1/beta) the code's trace, once per block copy
    trace, copies = code_shape(i)
    v = build_vector(ctx, i)
    for beta in ctx.elements():
        assert v.count(beta) == (copies if beta and ctx.trace_table[ctx.inv_table[beta]] == trace else 0)


# -- membership -------------------------------------------------------------------


def test_is_codeword_examples(ctx3):
    assert is_codeword(ctx3, 1, [0] * 6)
    assert is_codeword(ctx3, 1, [1, 1, 0, 1, 1, 0])  # 5^7^5^7 = 0
    assert not is_codeword(ctx3, 2, [1, 1, 0])  # 5^7 = 2
    with pytest.raises(ValueError, match="length"):
        is_codeword(ctx3, 2, [1, 1])


@pytest.mark.parametrize("word", [[2, 2, 2], [-1, 0, 0], [1.0, 0, 0], [True, 0, 0]])
def test_is_codeword_refuses_an_entry_other_than_0_or_1(word, ctx3):
    # read as truthy, [2, 2, 2] would pass as [1, 1, 1] and -1 as a 1 bit; 1.0 and True
    # equal 1, so a membership test in (0, 1) let them through
    expected = rf"^word entry must be an int in 0\.\.1, got {re.escape(repr(word[0]))}$"
    with pytest.raises(ValueError, match=expected):
        is_codeword(ctx3, 2, word)


@settings(max_examples=100, deadline=None)
@given(bits=st.lists(st.integers(0, 1), min_size=14, max_size=14))
def test_is_codeword_matches_direct_inner_product(bits):
    ctx = build_field(4)
    v = build_vector(ctx, 1)
    acc = 0
    for bit, entry in zip(bits, v):
        acc ^= entry if bit else 0
    assert is_codeword(ctx, 1, bits) == (acc == 0)


# -- dual codewords and their weights ----------------------------------------------


def test_dual_codeword_examples(ctx3):
    for i in CODE_INDICES:
        assert dual_codeword(ctx3, i, 0) == (0,) * code_length(ctx3, i)
    assert dual_codeword(ctx3, 4, 1) == (1, 0, 0, 0)
    assert dual_codeword(ctx3, 1, 1) == (1,) * 6


@pytest.mark.parametrize("a", [-1, 8])
def test_dual_codeword_refuses_an_out_of_range_a(a, ctx3):
    # unchecked, -1 reads the tables at a = 7 and returns the bits of c_1(7)
    with pytest.raises(ValueError, match=rf"^a must be an int in 0\.\.7, got {a}$"):
        dual_codeword(ctx3, 1, a)


def test_dual_weight_closed_form_examples():
    # K(1) = -5 over GF(8)
    assert dual_weight_closed_form(8, 3, -5) == 2  # (8 + 1 - 5) / 2
    assert dual_weight_closed_form(8, 2, -5) == 3  # (8 - 1 + 5) / 4


@pytest.mark.parametrize("r", range(1, 7))
def test_closed_form_matches_actual_weight(r, contexts):
    ctx = contexts[r]
    for i in CODE_INDICES:
        if i in (1, 2) and ctx.q < 4:
            continue
        for a in ctx.nonzero():
            k = kloosterman_sum(ctx, a)
            assert sum(dual_codeword(ctx, i, a)) == dual_weight_closed_form(ctx.q, i, k)


@pytest.mark.parametrize("r", range(1, 7))
def test_weight_halving(r, contexts):
    ctx = contexts[r]
    for a in ctx.nonzero():
        k = kloosterman_sum(ctx, a)
        assert 2 * dual_weight_closed_form(ctx.q, 4, k) == dual_weight_closed_form(ctx.q, 3, k)
        if ctx.q >= 4:
            assert 2 * dual_weight_closed_form(ctx.q, 2, k) == dual_weight_closed_form(ctx.q, 1, k)


def test_closed_form_of_table_values_is_the_dual_codeword_weight(contexts, tables):
    for r in (3, 8):
        ctx, table = contexts[r], tables[r]
        for i in CODE_INDICES:
            for a in ctx.nonzero():
                assert dual_weight_closed_form(ctx.q, i, table[a]) == sum(dual_codeword(ctx, i, a))
    # K(a) = 0 is not 3 mod 4: the remainder raises, nothing is floored
    with pytest.raises(ArithmeticError, match="not integral"):
        dual_weight_closed_form(8, 3, 0)


def test_dual_weight_fraction_is_exact(ctx3):
    for i in CODE_INDICES:
        for a in ctx3.nonzero():
            num, den = dual_weight_fraction(ctx3.q, i, kloosterman_sum(ctx3, a))
            assert den * sum(dual_codeword(ctx3, i, a)) == num
    # a K value off by 2 leaves a fraction, with nothing floored or raised
    assert dual_weight_fraction(8, 3, 0) == (9, 2)
    assert dual_weight_fraction(8, 2, -3) == (10, 4)


# -- the generator and parity rows ----------------------------------------------------


@pytest.mark.parametrize("r", range(1, 11))
def test_rows_equal_independent_builds(r):
    # every irreducible modulus up to r = 7, the canonical one above
    fields = [build_field(r, modulus=m) for m in irreducible_polys(r)] if r <= 7 else [build_field(r)]
    for ctx in fields:
        for i in CODE_INDICES:
            if i in (1, 2) and ctx.q < 4:
                continue
            # generator k is c_i(2^k), which dual_codeword builds from exp/log products
            gens = [oracles.bitmask(dual_codeword(ctx, i, 1 << k)) for k in range(r)]
            assert stages.g_rows(ctx, i) == gens, (ctx, i)
            # parity row k holds bit k of every entry of vector i
            v = build_vector(ctx, i)
            rows = [sum((entry >> k & 1) << l for l, entry in enumerate(v)) for k in range(r)]
            assert parity_check_rows(ctx, i) == rows, (ctx, i)


@pytest.mark.parametrize("r", range(1, 17))
def test_rows_equal_the_per_entry_oracle(r, contexts):
    # H against the unit masks, G against the trace-form masks, bit j of m_k = tr(2^k 2^j)
    ctx = contexts[r] if r <= 8 else build_field(r)
    tt, mul = ctx.trace_table, ctx.mul
    units = [1 << k for k in range(r)]
    trace_forms = [sum(tt[mul(1 << k, 1 << j)] << j for j in range(r)) for k in range(r)]
    for i in CODE_INDICES:
        if code_length(ctx, i):
            v = build_vector(ctx, i)
            generators = stages.g_rows(ctx, i)
            for rows, masks in ((parity_check_rows(ctx, i), units), (generators, trace_forms)):
                expected = oracles.rows_by_entry(v, masks)
                assert rows == expected, (r, i, masks)
                assert oracles.rows_by_parity_tables(v, masks, r) == expected, (r, i, masks)


# -- every dual weight by one Gray-code walk ------------------------------------------


def _assert_dual_weights_match_oracles(ctx, i):
    # the stored words come from generators built bit by bit by dual_codeword
    words = oracles.dual_words([oracles.bitmask(dual_codeword(ctx, i, 1 << k)) for k in range(ctx.r)], ctx.q)
    weights = stages.weights(ctx, i)
    assert len(weights) == ctx.q
    for a in ctx.elements():
        bits = dual_codeword(ctx, i, a)
        assert words[a] == oracles.bitmask(bits), (i, a)
        assert weights[a] == words[a].bit_count() == sum(bits), (i, a)


@pytest.mark.parametrize("r", range(1, 11))
def test_dual_words_equal_dual_codeword_everywhere(r, contexts):
    # r = 2 includes the 2-to-1 maps of codes 1 and 2
    ctx = contexts[r] if r <= 8 else build_field(r)
    for i in CODE_INDICES:
        if i in (1, 2) and ctx.q < 4:
            continue
        _assert_dual_weights_match_oracles(ctx, i)


@settings(max_examples=20, deadline=None)
@given(data=st.data(), r=st.integers(3, 8), i=st.sampled_from(CODE_INDICES))
def test_dual_words_equal_dual_codeword_any_representation(data, r, i):
    modulus = data.draw(st.sampled_from(list(irreducible_polys(r))), label="modulus")
    field = build_field(r, modulus=modulus)
    b = data.draw(
        st.sampled_from([x for x in field.elements() if field.trace_table[x] == 1]), label="b"
    )
    _assert_dual_weights_match_oracles(build_field(r, modulus=modulus, b=b), i)


@pytest.mark.parametrize("r", range(2, 13))
def test_two_copy_dual_weights_equal_a_walk_of_the_whole_vector(r, contexts):
    # codes 1 and 3 walk their block and double its weights; the reference walks every bit
    ctx = contexts[r] if r <= 8 else build_field(r)
    for i in (1, 3):
        whole = oracles.whole_word_walk(stages.g_rows(ctx, i), ctx.q)
        assert stages.weights(ctx, i) == whole, (r, i)
        assert whole == tuple(2 * w for w in stages.weights(ctx, i + 1)), (r, i)


def test_dual_weights_read_no_kloosterman_value(monkeypatch):
    # the Pless left side must stay independent of the WHT counts (and of K,
    # which codes cannot import: tests/test_import_graph.py)
    import kmoments.codes as codes

    def forbidden(*args, **kwargs):
        raise AssertionError("dual_weights read the WHT histogram")

    field = build_field(5)
    expected = {i: stages.weights(field, i) for i in CODE_INDICES}
    monkeypatch.setattr(codes, "_dual_weight_histogram", forbidden)
    for i in CODE_INDICES:
        assert stages.weights(field, i) == expected[i]


def test_dual_weights_keep_one_word_at_a_time():
    # the q = 16384 stored words of 16384 bits each would peak near 35 MiB
    import tracemalloc

    ctx = build_field(14)
    tracemalloc.start()
    try:
        stages.weights(ctx, 3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20, peak


# -- weight distributions -----------------------------------------------------------


def test_distributions_r3_frozen(ctx3):
    assert weight_distribution(ctx3, 1) == (1, 0, 3, 0, 3, 0, 1)
    assert weight_distribution(ctx3, 2) == (1, 0, 0, 0)
    assert weight_distribution(ctx3, 4) == (1, 0, 0, 1, 0)


@pytest.mark.parametrize("i", CODE_INDICES)
def test_distribution_r3_vs_cube_scan(i, ctx3):
    v = build_vector(ctx3, i)
    scan = oracles.scan_weight_counts(v, len(v))
    assert list(weight_distribution(ctx3, i)) == scan
    assert list(weight_distribution_exhaustive(ctx3, i)) == scan


@pytest.mark.parametrize("r", [3, 4])
@pytest.mark.parametrize("i", CODE_INDICES)
def test_dp_equals_exhaustive(r, i, contexts):
    ctx = contexts[r]
    assert weight_distribution(ctx, i) == weight_distribution_exhaustive(ctx, i)


def _group_algebra_counts(ctx, i, j_max):
    v = build_vector(ctx, i)
    mult = 2 if i in (1, 3) else 1
    return tuple(oracles.group_algebra_weight_counts(v[: len(v) // mult], mult, ctx.q, j_max))


@pytest.mark.parametrize("r", range(2, 9))
@pytest.mark.parametrize("i", CODE_INDICES)
def test_full_distribution_equals_group_algebra_dp(r, i, contexts):
    ctx = contexts[r]
    n = code_length(ctx, i)
    dp = _group_algebra_counts(ctx, i, n)
    assert weight_distribution(ctx, i) == dp
    assert code_cardinality(ctx, i, stages.histogram(ctx, i)) == sum(dp)


@pytest.mark.parametrize("r", [9, 10])
@pytest.mark.parametrize("i", CODE_INDICES)
def test_truncated_distribution_equals_group_algebra_dp(r, i):
    ctx = build_field(r)
    assert weight_distribution(ctx, i, j_max=10) == _group_algebra_counts(ctx, i, 10)


@settings(max_examples=20, deadline=None)
@given(data=st.data(), r=st.integers(3, 8), i=st.sampled_from(CODE_INDICES))
def test_distribution_equals_group_algebra_dp_any_representation(data, r, i):
    modulus = data.draw(st.sampled_from(list(irreducible_polys(r))), label="modulus")
    field = build_field(r, modulus=modulus)
    b = data.draw(
        st.sampled_from([x for x in field.elements() if field.trace_table[x] == 1]), label="b"
    )
    ctx = build_field(r, modulus=modulus, b=b)
    n = code_length(ctx, i)
    assert weight_distribution(ctx, i) == _group_algebra_counts(ctx, i, n)


@pytest.mark.parametrize("r", range(2, 7))
@pytest.mark.parametrize("i", CODE_INDICES)
def test_no_single_weight_words(r, i, contexts):
    ctx = contexts[r]
    if i in (1, 2) and ctx.q < 4:
        return
    assert weight_distribution(ctx, i, j_max=1) == (1, 0)


@pytest.mark.parametrize("r", [4, 5, 6])
@pytest.mark.parametrize("i", CODE_INDICES)
def test_prefix_consistent_with_full(r, i, contexts):
    ctx = contexts[r]
    full = weight_distribution(ctx, i)
    assert len(full) == code_length(ctx, i) + 1
    j_max = min(7, code_length(ctx, i) - 1)
    pre = weight_distribution(ctx, i, j_max=j_max)
    assert len(pre) == j_max + 1
    assert full[: j_max + 1] == pre


@pytest.mark.parametrize("r", [3, 4, 5])
@pytest.mark.parametrize("i", [1, 3])
def test_palindrome_doubled_codes(r, i, contexts):
    ctx = contexts[r]
    counts = weight_distribution(ctx, i)
    n = code_length(ctx, i)
    assert all(counts[j] == counts[n - j] for j in range(n + 1))


@pytest.mark.parametrize("r", range(3, 7))
@pytest.mark.parametrize("i", CODE_INDICES)
def test_distribution_total(r, i, contexts):
    ctx = contexts[r]
    n = code_length(ctx, i)
    counts = weight_distribution(ctx, i)
    assert counts[0] == 1
    assert sum(counts) == 1 << (n - r)
    assert code_cardinality(ctx, i, stages.histogram(ctx, i)) == 1 << (n - r)


@pytest.mark.parametrize("i", [3, 4])
def test_distribution_independent_of_b(i):
    ctx = build_field(5)
    trace_one = [x for x in ctx.elements() if ctx.trace_table[x] == 1]
    dists = {
        weight_distribution(build_field(5, b=b), i) for b in trace_one[:3]
    }
    assert len(dists) == 1


def test_distribution_jmax_validation(ctx3):
    with pytest.raises(ValueError):
        weight_distribution(ctx3, 1, j_max=7)
    with pytest.raises(ValueError):
        weight_distribution(ctx3, 1, j_max=-1)


def test_enumeration_budget():
    ctx = build_field(7)
    with pytest.raises(ValueError, match="budget"):
        weight_distribution_exhaustive(ctx, 3)


@pytest.mark.parametrize("r", [13, 14])
def test_dual_structure_past_degree_12(r):
    # the library has no limit below the field's MAX_DEGREE: the rank report
    # is O(r N), the distribution and cardinality O(q r), the K table one square
    ctx = build_field(r)
    table = kloosterman_table(ctx)
    assert dual_weight_closed_form(ctx.q, 3, table[1]) == sum(dual_codeword(ctx, 3, 1))
    for i in CODE_INDICES:
        report = stages.report(ctx, i)
        assert report["orthogonal"] and report["injective"] and report["product_check"], i
        assert report["code_cardinality"] == 1 << (code_length(ctx, i) - r), i
        assert code_cardinality(ctx, i, stages.histogram(ctx, i)) == 1 << (code_length(ctx, i) - r), i
        assert moment_sequence(ctx, i, 4) == moment_bruteforce(ctx, 4, table), i


# -- the packed Walsh-Hadamard transform ------------------------------------------------


def _packed_and_oracle(ctx, i):
    import kmoments.codes as codes

    mult = 2 if i in (1, 3) else 1
    oracle = oracles.wht_weight_histogram(
        codes._base_entries(ctx, i), mult, ctx.q, code_length(ctx, i)
    )
    return dict(stages.histogram(ctx, i)), oracle


@pytest.mark.parametrize("r", range(1, 13))
def test_packed_histogram_equals_list_butterfly(r, contexts):
    # r = 8 has N = 256 for code 3, the first two-byte slots; r = 2 the 2-to-1 maps
    ctx = contexts[r] if r <= 8 else build_field(r)
    for i in CODE_INDICES:
        if i in (1, 2) and ctx.q < 4:
            continue
        packed, oracle = _packed_and_oracle(ctx, i)
        assert packed == oracle, i


@pytest.mark.parametrize("r", range(2, 13))
def test_the_two_codes_on_a_block_share_its_transform(r, contexts):
    # a word of code 1 (3) is the block of code 2 (4) twice: one transform serves both
    ctx = contexts[r] if r <= 8 else build_field(r)
    for i in (1, 3):
        shared = codes_mod._block_transform(ctx, i + 1, codes_mod._base_entries(ctx, i + 1))
        assert codes_mod._block_transform(ctx, i, codes_mod._base_entries(ctx, i)) == shared, (r, i)


@pytest.mark.parametrize("r, i", [(15, 3), (16, 1), (16, 3), (16, 4)])
def test_packed_histogram_at_r15_and_r16(r, i):
    # the transform runs on the block, n = N / copies points: two-byte slots up to
    # n = 2^15 - 1 (code 3 at r = 15, code 1 at r = 16), four-byte slots for the
    # 2^15 points of codes 3 and 4 at r = 16
    ctx = build_field(r)
    packed, oracle = _packed_and_oracle(ctx, i)
    assert packed == oracle


@settings(max_examples=30, deadline=None)
@given(data=st.data(), r=st.integers(2, 9), i=st.sampled_from(CODE_INDICES))
def test_packed_histogram_equals_list_butterfly_any_representation(data, r, i):
    modulus = data.draw(st.sampled_from(list(irreducible_polys(r))), label="modulus")
    field = build_field(r, modulus=modulus)
    b = data.draw(
        st.sampled_from([x for x in field.elements() if field.trace_table[x] == 1]), label="b"
    )
    packed, oracle = _packed_and_oracle(build_field(r, modulus=modulus, b=b), i)
    assert packed == oracle


def _extra_slot(stage, k):
    # the mask and bias of one stage also select slot k, which has k & h != 0
    def mutate(stages, width):
        shift, mask, bias = stages[stage]
        at = 8 * width * k
        stages[stage] = (shift, mask | ((1 << 8 * width) - 1) << at, bias | (1 << 8 * width - 1) << at)

    return mutate


def _swap_first_two(stages, width):
    (s0, m0, b0), (s1, m1, b1) = stages[:2]
    stages[:2] = [(s0, m1, b1), (s1, m0, b0)]


# name -> (mutation of the stage list, codes whose verify rows fail; None: the kernel raises)
MASK_MUTANTS = {
    # the first transform to run, of code 1's block of n = 7 points, gives F(0) = 6
    "h1_slot3": (_extra_slot(0, 3), None),
    # slips past the kernel's invariants and the exact guards downstream
    "h4_slot15": (_extra_slot(2, 15), {1, 2}),
    # the h = 1 and h = 2 masks exchanged: F(0) != N
    "swapped_h1_h2": (_swap_first_two, None),
}


@pytest.mark.parametrize("name", MASK_MUTANTS)
def test_verify_catches_a_wrong_stage_mask(name, capsys, monkeypatch):
    import kmoments.cli as cli
    import kmoments.gf2r as gf2r

    mutate, failing = MASK_MUTANTS[name]
    real = gf2r._wht_stages

    def stages(q, width):
        out = real(q, width)
        mutate(out, width)
        return out

    monkeypatch.setattr(gf2r, "_wht_stages", stages)
    assert cli.main(["verify", "--r", "4"]) == 2
    out, err = capsys.readouterr()
    if failing is None:
        assert out == "" and len(err.splitlines()) == 1
        assert err.startswith("error: ArithmeticError: transform gives F(0) = ")
    else:
        failed = {int(m[1]) for m in re.finditer(r"^r=4 code=(\d) \S+: FAIL", out, flags=re.M)}
        assert failed == failing and out.endswith("all: FAIL\n") and err == ""


# -- linear algebra helper -----------------------------------------------------------


def test_kernel_basis_hand_case():
    # rows x0+x1, x1+x2 over 3 coordinates: kernel is spanned by (1,1,1)
    basis = kernel_basis([0b011, 0b110], 3)
    assert basis == [0b111]


@pytest.mark.parametrize("r", [3, 4])
@pytest.mark.parametrize("i", CODE_INDICES)
def test_kernel_vectors_are_codewords(r, i, contexts):
    ctx = contexts[r]
    n = code_length(ctx, i)
    for vec in kernel_basis(parity_check_rows(ctx, i), n):
        bits = [(vec >> l) & 1 for l in range(n)]
        assert is_codeword(ctx, i, bits)


# -- dual structure -------------------------------------------------------------------


def test_verify_dual_structure_r3(ctx3):
    report = stages.report(ctx3, 1)
    assert report["injective"] and report["orthogonal"]
    assert report["kernel_size"] == 1
    assert 8 // report["kernel_size"] * report["code_cardinality"] == 1 << 6
    assert report["product_check"]


def _scan_report(ctx, i):
    # the per-word statement: every dual word against every kernel basis vector
    n = code_length(ctx, i)
    words = [oracles.bitmask(dual_codeword(ctx, i, a)) for a in ctx.elements()]
    basis = kernel_basis(parity_check_rows(ctx, i), n)
    return oracles.dual_structure_by_scan(words, basis, n)


@pytest.mark.parametrize("r", range(1, 9))
def test_rank_report_equals_scan_oracle(r, contexts):
    # r = 2 includes the size-2 kernel of codes 1 and 2
    ctx = contexts[r]
    for i in CODE_INDICES:
        if i in (1, 2) and ctx.q < 4:
            continue
        assert stages.report(ctx, i) == _scan_report(ctx, i), i


@settings(max_examples=20, deadline=None)
@given(data=st.data(), r=st.integers(3, 8), i=st.sampled_from(CODE_INDICES))
def test_rank_report_equals_scan_oracle_any_representation(data, r, i):
    modulus = data.draw(st.sampled_from(list(irreducible_polys(r))), label="modulus")
    field = build_field(r, modulus=modulus)
    b = data.draw(
        st.sampled_from([x for x in field.elements() if field.trace_table[x] == 1]), label="b"
    )
    ctx = build_field(r, modulus=modulus, b=b)
    assert stages.report(ctx, i) == _scan_report(ctx, i)


def _one_bit_mutants(rows, n):
    # flip one bit of one row, at a few (row, bit) positions
    for k, l in [(0, 0), (1, n - 1), (2, 3), (len(rows) - 1, n // 2)]:
        bad = list(rows)
        bad[k] ^= 1 << l
        yield bad


@pytest.mark.parametrize("i", CODE_INDICES)
def test_orthogonality_catches_one_flipped_generator_bit(i, contexts):
    ctx = contexts[5]
    h_rows, sums = parity_check_rows(ctx, i), stages.sums(ctx, i, 10)
    n, good = code_length(ctx, i), stages.g_rows(ctx, i)
    assert verify_dual_structure(ctx, i, h_rows, good)["orthogonal"] is True
    assert all(equal for _, _, equal in pless_check(ctx, i, stages.walk_weights(ctx, i, good), sums))
    for bad in _one_bit_mutants(good, n):
        assert verify_dual_structure(ctx, i, h_rows, bad)["orthogonal"] is False
        # the walk reads the same rows, so the Pless left side moves off the right; it reads
        # only the block, the low N / copies bits, so a flip in the second copy of codes 1
        # and 3 moves the rank alone
        in_block = all(row ^ kept < 1 << n // code_shape(i)[1] for row, kept in zip(bad, good))
        weights = stages.walk_weights(ctx, i, bad)
        assert all(equal for _, _, equal in pless_check(ctx, i, weights, sums)) is not in_block


@pytest.mark.parametrize("i", CODE_INDICES)
def test_orthogonality_catches_one_flipped_parity_bit(i, contexts):
    ctx = contexts[5]
    good, g_rows = parity_check_rows(ctx, i), stages.g_rows(ctx, i)
    assert verify_dual_structure(ctx, i, good, g_rows)["orthogonal"] is True
    for bad in _one_bit_mutants(good, code_length(ctx, i)):
        assert verify_dual_structure(ctx, i, bad, g_rows)["orthogonal"] is False


def test_kernel_at_q4():
    ctx = build_field(2)
    for i in (1, 2):
        report = stages.report(ctx, i)
        assert report["kernel_size"] == 2
        assert not report["injective"]
        assert report["product_check"]


@pytest.mark.parametrize("r", range(1, 7))
@pytest.mark.parametrize("i", [3, 4])
def test_dual_map_injective_codes_34(r, i, contexts):
    report = stages.report(contexts[r], i)
    assert report["injective"] and report["orthogonal"] and report["product_check"]


@pytest.mark.parametrize("r", range(3, 7))
@pytest.mark.parametrize("i", [1, 2])
def test_dual_map_injective_codes_12(r, i, contexts):
    report = stages.report(contexts[r], i)
    assert report["injective"] and report["orthogonal"] and report["product_check"]
