"""One code's stage values, built from its context alone, for the tests of the functions that take them.

``verify._stages`` builds these once per r for every code, beside the K
table.  Here each is built for one code by the same private builders, so
a test at r = 16 pays only for the stage it reads.
``tests/test_stage_record.py`` checks that both give the same values.
"""

from kmoments import checks, codes, gf2r, moments


def g_rows(ctx, i):
    """G, the r generators c_i(2^k) of the dual."""
    return checks._generator_rows(ctx, i, gf2r._trace_map(ctx), codes._base_entries(ctx, i))


def walk_weights(ctx, i, gens):
    """wt(c_i(a)) for every a, by the Gray-code walk over the generator rows ``gens``."""
    n, copies = codes.code_length(ctx, i), codes.code_shape(i)[1]
    return checks.dual_weights(ctx, i, checks._block_walk(gens, n // copies, ctx.q))


def weights(ctx, i):
    """wt(c_i(a)) for every a, by the walk over G."""
    return walk_weights(ctx, i, g_rows(ctx, i))


def histogram(ctx, i):
    """The dual-weight histogram, from the block's Walsh-Hadamard transform."""
    transform = codes._block_transform(ctx, i, codes._base_entries(ctx, i))
    return codes._dual_weight_histogram(ctx, i, transform)


def report(ctx, i):
    """The dual-structure report on H and G."""
    return codes.verify_dual_structure(ctx, i, codes.parity_check_rows(ctx, i), g_rows(ctx, i))


def sums(ctx, i, h_max):
    """The Pless sums P_0..P_h_max over the weight counts C_0..C_min(N, h_max)."""
    n = codes.code_length(ctx, i)
    return moments._pless_sums(h_max, n, codes.weight_distribution(ctx, i, min(n, h_max)))


def pless(ctx, i, h_max):
    """Both sides of the Pless identity at h = 0..h_max."""
    return moments.pless_check(ctx, i, weights(ctx, i), sums(ctx, i, h_max))
