"""Every ``verify`` check fails under some mutant of the stage it reads.

A check that nothing can fail shows nothing.  ``MUTANTS`` breaks one
stage each, as a monkeypatch of one function where it is defined: the
K table, the character-sum row, the row builder ``codes._bit_rows``, the
generator rows G, the Gray-code walk behind the dual weights, the
dual-weight histogram or the MacWilliams core of the weight
distribution.  ``REGISTRY`` maps every check name to the mutants that
fail it.  At each r below, every check the clean run prints must FAIL
under at least one of its mutants, and a check name with no entry, in
the output or in ``verify.ROWS``, fails the test, as a new public name
does in ``test_no_orphans.py``.  Up to r = 8, every mutant must also
fail at least one row.
"""

import json

import pytest

from kmoments import checks, cli, codes, kloosterman, verify


def _edit_k_table(mp, edit):
    real = kloosterman.kloosterman_table

    def mutant(ctx):
        table = list(real(ctx))
        edit(ctx, table)
        return tuple(table)

    mp.setattr(kloosterman, "kloosterman_table", mutant)


def _shift_k1(shift):
    def edit(ctx, table):
        table[1] += shift

    return lambda mp: _edit_k_table(mp, edit)


def _k1_past_weil(mp):
    # the least k = 3 mod 4 with k^2 > 4q: K(1) leaves the Weil bound, keeps mod 4
    def edit(ctx, table):
        k = 3
        while k * k <= 4 * ctx.q:
            k += 4
        table[1] = k

    _edit_k_table(mp, edit)


def _swap_k1_first_other(mp):
    # K(a) at the first a with K(a) != K(1): a and a^2 then disagree
    def edit(ctx, table):
        a = next(a for a in ctx.nonzero() if table[a] != table[1])
        table[1], table[a] = table[a], table[1]

    _edit_k_table(mp, edit)


def _swap_k1_kg(mp):
    # 1 is fixed by the Frobenius map and the primitive element g is not
    def edit(ctx, table):
        g = ctx.exp[1]
        table[1], table[g] = table[g], table[1]

    _edit_k_table(mp, edit)


def _edit_rows(module, name, edit):
    # edit the list of bitmask rows that ``<module>.<name>`` builds
    def apply(mp):
        real = getattr(module, name)

        def mutant(*args):
            rows = list(real(*args))
            edit(rows)
            return rows

        mp.setattr(module, name, mutant)

    return apply


def _flip_bit(rows):
    rows[0] ^= 1


def _zero_row(rows):
    # a single bit flip cannot drop the rank of G once its words weigh about q/2
    rows[0] = 0


def _more_zero_words(mp):
    # q more dual words of weight 0: every MacWilliams sum stays divisible by q
    real = codes._dual_weight_histogram

    def mutant(ctx, i, transform):
        histogram = real(ctx, i, transform)
        histogram[0] += ctx.q
        return histogram

    mp.setattr(codes, "_dual_weight_histogram", mutant)


def _shift_dual_weight(shift):
    # the weight of c(1) in the walk of a block, which both codes on the block read
    def apply(mp):
        real = checks._block_walk

        def mutant(gens, m, q):
            weights = list(real(gens, m, q))
            weights[1] += shift
            return tuple(weights)

        mp.setattr(checks, "_block_walk", mutant)

    return apply


def _rotate_char_sum_row(mp):
    # entry g^s of every character-sum row takes the value of entry g^(s+1)
    real = checks.quadratic_char_sums

    def mutant(ctx, b, phi):
        row = real(ctx, b, phi)
        return [None] + [row[ctx.exp[ctx.log[a] + 1]] for a in ctx.nonzero()]

    mp.setattr(checks, "quadratic_char_sums", mutant)


def _swap_c3_c4(mp):
    # in the MacWilliams core, which verify's stage record and weight_distribution both call
    real = codes._macwilliams

    def mutant(ctx, i, histogram, j_max):
        dist = list(real(ctx, i, histogram, j_max))
        if len(dist) > 4:
            dist[3], dist[4] = dist[4], dist[3]
        return tuple(dist)

    mp.setattr(codes, "_macwilliams", mutant)


# mutant name -> apply(monkeypatch): break one stage
MUTANTS = {
    "K(1) + 4": _shift_k1(4),
    "K(1) - 4": _shift_k1(-4),
    "K(1) + 2": _shift_k1(2),
    "swap K(1), K(g)": _swap_k1_kg,
    "K(1) past the Weil bound": _k1_past_weil,
    "swap K(1) and the first K(a) != K(1)": _swap_k1_first_other,
    "flip a bit in _bit_rows": _edit_rows(codes, "_bit_rows", _flip_bit),
    "flip a bit in G": _edit_rows(checks, "_generator_rows", _flip_bit),
    "zero a row of G": _edit_rows(checks, "_generator_rows", _zero_row),
    "q more zero dual words": _more_zero_words,
    "dual weight + 1": _shift_dual_weight(1),
    "dual weight - 1": _shift_dual_weight(-1),
    "rotate the char-sum row": _rotate_char_sum_row,
    "swap C_3, C_4": _swap_c3_c4,
}

# check name -> the mutants that fail it at some r of the parametrised test below
REGISTRY = {
    "kloosterman_weil_bound": ("K(1) + 4", "K(1) - 4", "K(1) past the Weil bound"),
    "kloosterman_mod4": ("K(1) + 2",),
    "kloosterman_frobenius": ("swap K(1), K(g)", "swap K(1) and the first K(a) != K(1)"),
    "moment_first": ("K(1) + 4", "K(1) - 4", "K(1) + 2"),
    "split_char_sum": ("K(1) + 4", "K(1) - 4", "swap K(1), K(g)", "rotate the char-sum row"),
    "irreducible_char_sum": ("K(1) + 4", "K(1) - 4", "swap K(1), K(g)", "rotate the char-sum row"),
    "dual_weight_formula": ("K(1) + 4", "flip a bit in G", "dual weight + 1"),
    "dual_weight_halving": ("K(1) + 2",),
    "dual_orthogonality": ("flip a bit in _bit_rows", "flip a bit in G"),
    "dual_map_injective": ("flip a bit in G", "zero a row of G"),
    "dual_map_kernel": ("flip a bit in _bit_rows", "flip a bit in G"),
    "dual_cardinality_product": ("flip a bit in G", "zero a row of G"),
    "distribution_vs_enumeration": ("swap C_3, C_4", "q more zero dual words"),
    "distribution_cardinality": ("flip a bit in _bit_rows", "q more zero dual words"),
    "distribution_palindrome": ("swap C_3, C_4",),
    "pless_identity": ("dual weight + 1", "dual weight - 1", "swap C_3, C_4"),
    "moment_recursion": ("K(1) + 4", "swap C_3, C_4"),
}


def _results(capsys, r):
    """The rows of ``verify --r r --hmax 10 --format json``."""
    cli.main(["verify", "--r", str(r), "--hmax", "10", "--format", "json"])
    captured = capsys.readouterr()
    assert captured.err == ""
    return json.loads(captured.out)["results"]


def test_registry_names_known_mutants():
    assert {m for ms in REGISTRY.values() for m in ms} <= set(MUTANTS)
    assert all(REGISTRY.values())


def test_every_check_name_has_a_mutant(capsys):
    assert set(REGISTRY) == {row.name for row in verify.ROWS}
    names = {row["check"] for row in _results(capsys, "1..8")}
    assert names - set(REGISTRY) == set(), "checks with no registered mutant"
    assert set(REGISTRY) - names == set(), "registered checks that verify never prints"


# r = 2 is the one r with dual_map_kernel rows.  r = 1 is left out: with one
# nonzero element there is no K(a) to swap.  At r = 9 and 12 K(1) +- 4 stays
# inside the Weil bound, so K(1) past the bound fails kloosterman_weil_bound;
# at r = 12 K(1) = K(g), so the swap with the first other value fails
# kloosterman_frobenius.  A permutation of the K table that respects the
# Frobenius orbits, such as ROADMAP item 2's orbit swap, still passes every
# row above r = 8.  At r = 2, 3 and 8 every mutant also fails some row.  Not so
# everywhere: from r = 9 no character-sum row runs, so the rotated row passes, and
# at r = 4 and 12 K(1) = K(g), so their swap changes nothing.
@pytest.mark.parametrize("r", [2, 3, 8, 9, 12])
def test_every_check_fails_under_one_of_its_mutants(capsys, monkeypatch, r):
    clean = _results(capsys, r)
    assert all(row["passed"] for row in clean)
    failed = {}
    for name, apply in MUTANTS.items():
        with monkeypatch.context() as mp:
            apply(mp)
            failed[name] = {row["check"] for row in _results(capsys, r) if not row["passed"]}
    survivors = [
        check
        for check in dict.fromkeys(row["check"] for row in clean)
        if not any(check in failed[m] for m in REGISTRY.get(check, ()))
    ]
    assert survivors == [], failed
    if r <= 8:
        assert [name for name, checks in failed.items() if not checks] == [], failed
