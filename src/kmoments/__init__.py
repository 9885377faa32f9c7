"""Exact Kloosterman sums over GF(2^r), four attached binary linear
codes, and recursive formulas for the power moments, all in exact
integer arithmetic with brute-force oracles for verification."""

from . import codes, kloosterman, moments
from .gf2r import FieldContext, build_field, irreducible_polys, parse_poly, poly_str
from .kloosterman import kloosterman_table, moment_bruteforce
from .codes import CODE_INDICES, code_length, weight_distribution
from .moments import moment_sequence

__version__ = "0.1.0"

__all__ = [
    "FieldContext",
    "build_field",
    "irreducible_polys",
    "parse_poly",
    "poly_str",
    "kloosterman_sum",
    "kloosterman_table",
    "moment_bruteforce",
    "split_quadratic_char_sum",
    "irreducible_quadratic_char_sum",
    "quadratic_char_sums",
    "CODE_INDICES",
    "build_vector",
    "code_length",
    "dual_codeword",
    "dual_weight_closed_form",
    "dual_weights",
    "is_codeword",
    "verify_dual_structure",
    "weight_distribution",
    "weight_distribution_exhaustive",
    "moment_sequence",
    "pless_check",
    "stirling2_explicit",
]


def __getattr__(name: str):
    # a check or an oracle that only verify and the tests run: its layer compiles it on
    # first use (PEP 562), and the name is then bound here too
    for layer in (kloosterman, codes, moments):
        if name in __all__ and name in layer.__all__:
            value = globals()[name] = getattr(layer, name)
            return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
