"""Exact Kloosterman sums over GF(2^r), four attached binary linear
codes, and recursive formulas for the power moments, all in exact
integer arithmetic with brute-force oracles for verification."""

from .gf2r import FieldContext, build_field, irreducible_polys, parse_poly, poly_str
from .kloosterman import (
    irreducible_quadratic_char_sum,
    kloosterman_sum,
    kloosterman_table,
    moment_bruteforce,
    quadratic_char_sums,
    split_quadratic_char_sum,
)
from .codes import (
    CODE_INDICES,
    build_vector,
    code_length,
    dual_codeword,
    dual_weight_closed_form,
    dual_weights,
    is_codeword,
    verify_dual_structure,
    weight_distribution,
    weight_distribution_exhaustive,
)
from .moments import (
    moment_sequence,
    pless_check,
    stirling2_explicit,
)

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
