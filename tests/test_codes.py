import copy
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kmoments import (
    build_field,
    kloosterman_sum,
    kloosterman_table,
    moment_bruteforce,
    moment_sequence,
)
from kmoments.codes import (
    CODE_INDICES,
    build_vector,
    code_cardinality,
    code_length,
    dual_codeword,
    dual_weight_closed_form,
    dual_weight_fraction,
    dual_weight_from_k,
    dual_words,
    is_codeword,
    kernel_basis,
    multiplicity,
    parity_check_rows,
    verify_dual_structure,
    weight_distribution,
    weight_distribution_exhaustive,
)
from kmoments.gf2r import irreducible_polys

import oracles


# -- defining vectors -----------------------------------------------------------


def test_vectors_r3(ctx3):
    assert build_vector(ctx3, 2) == (5, 7, 3)  # inverses of theta \ {0} = (2, 4, 6)
    assert build_vector(ctx3, 1) == (5, 7, 3, 5, 7, 3)
    assert build_vector(ctx3, 4) == (1, 6, 2, 4)  # inverses of the trace-one coset
    assert build_vector(ctx3, 3) == (1, 6, 2, 4, 1, 6, 2, 4)


@pytest.mark.parametrize("r", range(2, 8))
@pytest.mark.parametrize("i", CODE_INDICES)
def test_vector_lengths(r, i, contexts, recwarn):
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


def test_r2_warns_for_codes_12():
    ctx = build_field(2)
    for i in (1, 2):
        with pytest.warns(UserWarning, match="2-to-1"):
            build_vector(ctx, i)


def test_bad_code_index(ctx3):
    with pytest.raises(ValueError):
        build_vector(ctx3, 5)
    with pytest.raises(ValueError):
        multiplicity(ctx3, 0, 1)


# -- multiplicities ---------------------------------------------------------------


def test_multiplicity_examples(ctx3):
    # 5 = inv(2) and tr(2) = 0, so 5 appears twice in vector 1
    assert multiplicity(ctx3, 1, 5) == 2
    assert multiplicity(ctx3, 4, 1) == 1  # tr(1/1) = 1
    for i in CODE_INDICES:
        assert multiplicity(ctx3, i, 0) == 0


@pytest.mark.parametrize("r", range(2, 7))
@pytest.mark.parametrize("i", CODE_INDICES)
def test_multiplicity_counts_vector_entries(r, i, contexts, recwarn):
    ctx = contexts[r]
    if i in (1, 2) and ctx.q < 4:
        return
    v = build_vector(ctx, i)
    for beta in ctx.elements():
        assert multiplicity(ctx, i, beta) == v.count(beta)
    assert sum(multiplicity(ctx, i, beta) for beta in ctx.elements()) == code_length(ctx, i)


# -- membership -------------------------------------------------------------------


def test_is_codeword_examples(ctx3):
    assert is_codeword(ctx3, 1, [0] * 6)
    assert is_codeword(ctx3, 1, [1, 1, 0, 1, 1, 0])  # 5^7^5^7 = 0
    assert not is_codeword(ctx3, 2, [1, 1, 0])  # 5^7 = 2
    with pytest.raises(ValueError, match="length"):
        is_codeword(ctx3, 2, [1, 1])


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
        z = dual_codeword(ctx3, i, 0)
        assert z.bits == (0,) * code_length(ctx3, i) and z.weight == 0
    assert dual_codeword(ctx3, 4, 1).bits == (1, 0, 0, 0)
    assert dual_codeword(ctx3, 1, 1).bits == (1,) * 6


def test_dual_weight_closed_form_examples(ctx3):
    assert dual_weight_closed_form(ctx3, 3, 1) == 2  # (8 + 1 - 5) / 2
    assert dual_weight_closed_form(ctx3, 2, 1) == 3  # (8 - 1 + 5) / 4
    with pytest.raises(ValueError):
        dual_weight_closed_form(ctx3, 1, 0)


@pytest.mark.parametrize("r", range(1, 7))
def test_closed_form_matches_actual_weight(r, contexts, recwarn):
    ctx = contexts[r]
    for i in CODE_INDICES:
        if i in (1, 2) and ctx.q < 4:
            continue
        for a in ctx.nonzero():
            assert dual_codeword(ctx, i, a).weight == dual_weight_closed_form(ctx, i, a)


@pytest.mark.parametrize("r", range(1, 7))
def test_weight_halving(r, contexts, recwarn):
    ctx = contexts[r]
    for a in ctx.nonzero():
        assert 2 * dual_weight_closed_form(ctx, 4, a) == dual_weight_closed_form(ctx, 3, a)
        if ctx.q >= 4:
            assert 2 * dual_weight_closed_form(ctx, 2, a) == dual_weight_closed_form(ctx, 1, a)


def test_dual_weight_from_k_is_the_closed_form(ctx3):
    for i in CODE_INDICES:
        for a in ctx3.nonzero():
            k = kloosterman_sum(ctx3, a)
            assert dual_weight_from_k(ctx3.q, i, k) == dual_weight_closed_form(ctx3, i, a)
    with pytest.raises(ArithmeticError, match="not integral"):
        dual_weight_from_k(8, 3, 0)


def test_dual_weight_fraction_is_exact(ctx3):
    for i in CODE_INDICES:
        for a in ctx3.nonzero():
            num, den = dual_weight_fraction(ctx3.q, i, kloosterman_sum(ctx3, a))
            assert den * dual_codeword(ctx3, i, a).weight == num
    # a K value off by 2 leaves a fraction, with nothing floored or raised
    assert dual_weight_fraction(8, 3, 0) == (9, 2)
    assert dual_weight_fraction(8, 2, -3) == (10, 4)


# -- all dual words at once, by linearity ---------------------------------------------


def _assert_dual_words_match_oracle(ctx, i):
    words = dual_words(ctx, i)
    assert len(words) == ctx.q
    for a in ctx.elements():
        assert words[a] == dual_codeword(ctx, i, a).mask, (i, a)


@pytest.mark.parametrize("r", range(1, 11))
def test_dual_words_equal_dual_codeword_everywhere(r, contexts):
    # r = 2 includes the 2-to-1 maps of codes 1 and 2
    ctx = contexts[r] if r <= 8 else build_field(r)
    for i in CODE_INDICES:
        if i in (1, 2) and ctx.q < 4:
            continue
        _assert_dual_words_match_oracle(ctx, i)


@settings(max_examples=20, deadline=None)
@given(data=st.data(), r=st.integers(3, 8), i=st.sampled_from(CODE_INDICES))
def test_dual_words_equal_dual_codeword_any_representation(data, r, i):
    modulus = data.draw(st.sampled_from(list(irreducible_polys(r))), label="modulus")
    field = build_field(r, modulus=modulus)
    b = data.draw(
        st.sampled_from([x for x in field.elements() if field.trace(x) == 1]), label="b"
    )
    _assert_dual_words_match_oracle(build_field(r, modulus=modulus, b=b), i)


def test_dual_words_read_no_kloosterman_value(monkeypatch):
    # the Pless left side must stay independent of K and of the WHT counts
    import kmoments.codes as codes

    def forbidden(*args, **kwargs):
        raise AssertionError("dual_words read a K value or the WHT histogram")

    field = build_field(5)
    expected = {i: dual_words(field, i) for i in CODE_INDICES}
    for name in ("kloosterman_sum", "_dual_weight_histogram"):
        monkeypatch.setattr(codes, name, forbidden)
    ctx = copy.copy(field)
    ctx.lam_table = None
    for i in CODE_INDICES:
        assert dual_words(ctx, i) == expected[i]


# -- weight distributions -----------------------------------------------------------


def test_distributions_r3_frozen(ctx3):
    assert weight_distribution(ctx3, 1).counts == (1, 0, 3, 0, 3, 0, 1)
    assert weight_distribution(ctx3, 2).counts == (1, 0, 0, 0)
    assert weight_distribution(ctx3, 4).counts == (1, 0, 0, 1, 0)


@pytest.mark.parametrize("i", CODE_INDICES)
def test_distribution_r3_vs_cube_scan(i, ctx3):
    v = build_vector(ctx3, i)
    scan = oracles.scan_weight_counts(v, len(v))
    assert list(weight_distribution(ctx3, i).counts) == scan
    assert list(weight_distribution_exhaustive(ctx3, i).counts) == scan


@pytest.mark.parametrize("r", [3, 4])
@pytest.mark.parametrize("i", CODE_INDICES)
def test_dp_equals_exhaustive(r, i, contexts):
    ctx = contexts[r]
    assert weight_distribution(ctx, i).counts == weight_distribution_exhaustive(ctx, i).counts


def _group_algebra_counts(ctx, i, j_max):
    v = build_vector(ctx, i)
    mult = 2 if i in (1, 3) else 1
    return tuple(oracles.group_algebra_weight_counts(v[: len(v) // mult], mult, ctx.q, j_max))


@pytest.mark.parametrize("r", range(2, 9))
@pytest.mark.parametrize("i", CODE_INDICES)
def test_full_distribution_equals_group_algebra_dp(r, i, contexts, recwarn):
    ctx = contexts[r]
    n = code_length(ctx, i)
    dp = _group_algebra_counts(ctx, i, n)
    assert weight_distribution(ctx, i).counts == dp
    assert code_cardinality(ctx, i) == sum(dp)


@pytest.mark.parametrize("r", [9, 10])
@pytest.mark.parametrize("i", CODE_INDICES)
def test_truncated_distribution_equals_group_algebra_dp(r, i):
    ctx = build_field(r)
    assert weight_distribution(ctx, i, j_max=10).counts == _group_algebra_counts(ctx, i, 10)


@settings(max_examples=20, deadline=None)
@given(data=st.data(), r=st.integers(3, 8), i=st.sampled_from(CODE_INDICES))
def test_distribution_equals_group_algebra_dp_any_representation(data, r, i):
    modulus = data.draw(st.sampled_from(list(irreducible_polys(r))), label="modulus")
    field = build_field(r, modulus=modulus)
    b = data.draw(
        st.sampled_from([x for x in field.elements() if field.trace(x) == 1]), label="b"
    )
    ctx = build_field(r, modulus=modulus, b=b)
    n = code_length(ctx, i)
    assert weight_distribution(ctx, i).counts == _group_algebra_counts(ctx, i, n)


@pytest.mark.parametrize("r", range(2, 7))
@pytest.mark.parametrize("i", CODE_INDICES)
def test_no_single_weight_words(r, i, contexts, recwarn):
    ctx = contexts[r]
    if i in (1, 2) and ctx.q < 4:
        return
    dist = weight_distribution(ctx, i, j_max=1)
    assert dist.counts == (1, 0)


@pytest.mark.parametrize("r", [4, 5, 6])
@pytest.mark.parametrize("i", CODE_INDICES)
def test_prefix_consistent_with_full(r, i, contexts):
    ctx = contexts[r]
    full = weight_distribution(ctx, i)
    assert full.is_full
    j_max = min(7, code_length(ctx, i) - 1)
    pre = weight_distribution(ctx, i, j_max=j_max)
    assert not pre.is_full
    assert full.counts[: j_max + 1] == pre.counts


@pytest.mark.parametrize("r", [3, 4, 5])
@pytest.mark.parametrize("i", [1, 3])
def test_palindrome_doubled_codes(r, i, contexts):
    ctx = contexts[r]
    counts = weight_distribution(ctx, i).counts
    n = code_length(ctx, i)
    assert all(counts[j] == counts[n - j] for j in range(n + 1))


@pytest.mark.parametrize("r", range(3, 7))
@pytest.mark.parametrize("i", CODE_INDICES)
def test_distribution_total(r, i, contexts):
    ctx = contexts[r]
    n = code_length(ctx, i)
    counts = weight_distribution(ctx, i).counts
    assert counts[0] == 1
    assert sum(counts) == 1 << (n - r)
    assert code_cardinality(ctx, i) == 1 << (n - r)


@pytest.mark.parametrize("i", [3, 4])
def test_distribution_independent_of_b(i):
    ctx = build_field(5)
    trace_one = [x for x in ctx.elements() if ctx.trace(x) == 1]
    dists = {
        weight_distribution(build_field(5, b=b), i).counts for b in trace_one[:3]
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
    assert dual_weight_closed_form(ctx, 3, 1) == dual_codeword(ctx, 3, 1).weight
    for i in CODE_INDICES:
        report = verify_dual_structure(ctx, i)
        assert report["orthogonal"] and report["injective"] and report["product_check"], i
        assert report["code_cardinality"] == 1 << (report["length"] - r), i
        assert code_cardinality(ctx, i) == 1 << (code_length(ctx, i) - r), i
        mk = moment_sequence(ctx, i, 4).mk
        assert list(mk) == [moment_bruteforce(ctx, h, table) for h in range(5)], i


# -- the packed Walsh-Hadamard transform ------------------------------------------------


def _packed_and_oracle(ctx, i):
    import kmoments.codes as codes

    mult = 2 if i in (1, 3) else 1
    oracle = oracles.wht_weight_histogram(
        codes._base_entries(ctx, i), mult, ctx.q, code_length(ctx, i)
    )
    return dict(codes._dual_weight_histogram(ctx, i)), oracle


@pytest.mark.parametrize("r", range(1, 13))
def test_packed_histogram_equals_list_butterfly(r, contexts):
    # r = 8 has N = 256 for code 3, the first two-byte slots; r = 2 the 2-to-1 maps
    ctx = contexts[r] if r <= 8 else build_field(r)
    for i in CODE_INDICES:
        if i in (1, 2) and ctx.q < 4:
            continue
        packed, oracle = _packed_and_oracle(ctx, i)
        assert packed == oracle, i


@settings(max_examples=30, deadline=None)
@given(data=st.data(), r=st.integers(2, 9), i=st.sampled_from(CODE_INDICES))
def test_packed_histogram_equals_list_butterfly_any_representation(data, r, i):
    modulus = data.draw(st.sampled_from(list(irreducible_polys(r))), label="modulus")
    field = build_field(r, modulus=modulus)
    b = data.draw(
        st.sampled_from([x for x in field.elements() if field.trace(x) == 1]), label="b"
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
    # both slip past the kernel's invariants and the exact guards downstream
    "h1_slot3": (_extra_slot(0, 3), {3, 4}),
    "h4_slot15": (_extra_slot(2, 15), {1, 2}),
    # the h = 1 and h = 2 masks exchanged: F(0) != N
    "swapped_h1_h2": (_swap_first_two, None),
}


@pytest.mark.parametrize("name", MASK_MUTANTS)
def test_verify_catches_a_wrong_stage_mask(name, capsys, monkeypatch):
    import kmoments.cli as cli
    import kmoments.codes as codes

    mutate, failing = MASK_MUTANTS[name]
    real = codes._wht_stages

    def stages(q, width):
        out = real(q, width)
        mutate(out, width)
        return out

    monkeypatch.setattr(codes, "_wht_stages", stages)
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
    report = verify_dual_structure(ctx3, 1)
    assert report["injective"] and report["orthogonal"]
    assert report["dual_image_size"] == 8
    assert report["dual_image_size"] * report["code_cardinality"] == 1 << 6
    assert report["product_check"]


def _scan_report(ctx, i):
    # the per-word statement: every dual word against every kernel basis vector
    n = code_length(ctx, i)
    words = [dual_codeword(ctx, i, a).mask for a in ctx.elements()]
    basis = kernel_basis(parity_check_rows(ctx, i), n)
    return {"code": i, "r": ctx.r, **oracles.dual_structure_by_scan(words, basis, n)}


@pytest.mark.parametrize("r", range(1, 9))
def test_rank_report_equals_scan_oracle(r, contexts):
    # r = 2 includes the size-2 kernel of codes 1 and 2
    ctx = contexts[r]
    for i in CODE_INDICES:
        if i in (1, 2) and ctx.q < 4:
            continue
        assert verify_dual_structure(ctx, i) == _scan_report(ctx, i), i


@settings(max_examples=20, deadline=None)
@given(data=st.data(), r=st.integers(3, 8), i=st.sampled_from(CODE_INDICES))
def test_rank_report_equals_scan_oracle_any_representation(data, r, i):
    modulus = data.draw(st.sampled_from(list(irreducible_polys(r))), label="modulus")
    field = build_field(r, modulus=modulus)
    b = data.draw(
        st.sampled_from([x for x in field.elements() if field.trace(x) == 1]), label="b"
    )
    ctx = build_field(r, modulus=modulus, b=b)
    assert verify_dual_structure(ctx, i) == _scan_report(ctx, i)


def _one_bit_mutants(rows, n):
    # flip one bit of one row, at a few (row, bit) positions
    for k, l in [(0, 0), (1, n - 1), (2, 3), (len(rows) - 1, n // 2)]:
        bad = list(rows)
        bad[k] ^= 1 << l
        yield bad


@pytest.mark.parametrize("i", CODE_INDICES)
def test_orthogonality_catches_one_flipped_generator_bit(i, contexts, monkeypatch):
    import kmoments.codes as codes

    ctx = contexts[5]
    assert verify_dual_structure(ctx, i)["orthogonal"] is True
    for bad in _one_bit_mutants(codes._generator_rows(ctx, i), code_length(ctx, i)):
        monkeypatch.setattr(codes, "_generator_rows", lambda ctx, i, bad=bad: bad)
        assert verify_dual_structure(ctx, i)["orthogonal"] is False


@pytest.mark.parametrize("i", CODE_INDICES)
def test_orthogonality_catches_one_flipped_parity_bit(i, contexts, monkeypatch):
    import kmoments.codes as codes

    ctx = contexts[5]
    assert verify_dual_structure(ctx, i)["orthogonal"] is True
    for bad in _one_bit_mutants(parity_check_rows(ctx, i), code_length(ctx, i)):
        monkeypatch.setattr(codes, "parity_check_rows", lambda ctx, i, bad=bad: bad)
        assert verify_dual_structure(ctx, i)["orthogonal"] is False


def test_kernel_at_q4():
    ctx = build_field(2)
    for i in (1, 2):
        report = verify_dual_structure(ctx, i)
        assert report["kernel_size"] == 2
        assert not report["injective"]
        assert report["product_check"]


@pytest.mark.parametrize("r", range(1, 7))
@pytest.mark.parametrize("i", [3, 4])
def test_dual_map_injective_codes_34(r, i, contexts):
    report = verify_dual_structure(contexts[r], i)
    assert report["injective"] and report["orthogonal"] and report["product_check"]


@pytest.mark.parametrize("r", range(3, 7))
@pytest.mark.parametrize("i", [1, 2])
def test_dual_map_injective_codes_12(r, i, contexts):
    report = verify_dual_structure(contexts[r], i)
    assert report["injective"] and report["orthogonal"] and report["product_check"]
