"""Kloosterman sums over GF(2^r) and brute-force power moments.

K(a) is the exact integer sum of the canonical additive character over
alpha + a/alpha, alpha ranging over the nonzero field elements.  The
table of all K(a) and the moments sum_a K(a)^h computed from it are the
ground-truth oracle against which the recursive moment formulas in
:mod:`kmoments.moments` are verified.

Two further character sums are provided, with quadratic denominators
that are split (x^2 + x) or irreducible (x^2 + x + b, trace-one b).
They evaluate to K(a) - 1 and -K(a) - 1 respectively, which is the
identity underlying the dual-codeword weights in :mod:`kmoments.codes`.
"""

from __future__ import annotations

import json
from collections.abc import Mapping
from dataclasses import dataclass
from types import MappingProxyType

from .gf2r import FieldContext

__all__ = [
    "KloostermanTable",
    "kloosterman_sum",
    "kloosterman_table",
    "moment_bruteforce",
    "split_quadratic_char_sum",
    "irreducible_quadratic_char_sum",
]

# a full table costs O(q^2) field operations; past this degree only the
# O(q)-per-call operations stay desk-scale
MAX_TABLE_DEGREE = 12


@dataclass(frozen=True)
class KloostermanTable:
    """All q-1 values K(a), exact, for one field context (read-only)."""

    r: int
    modulus: int
    values: Mapping[int, int]

    def __getitem__(self, a: int) -> int:
        return self.values[a]

    def multiset(self) -> tuple[int, ...]:
        return tuple(sorted(self.values.values()))

    def to_csv_text(self) -> str:
        lines = ["a,K"]
        lines += [f"{a},{self.values[a]}" for a in sorted(self.values)]
        return "\n".join(lines) + "\n"

    def to_json_obj(self) -> dict:
        return {
            "r": self.r,
            "modulus_hex": format(self.modulus, "#x"),
            "values": [{"a": a, "k": self.values[a]} for a in sorted(self.values)],
        }

    def to_json_text(self) -> str:
        return json.dumps(self.to_json_obj(), indent=2) + "\n"


def kloosterman_sum(ctx: FieldContext, a: int) -> int:
    """K(a) = sum over nonzero alpha of (-1)^tr(alpha + a/alpha)."""
    if a == 0:
        raise ValueError("Kloosterman sums are defined for nonzero a")
    lam, exp, log = ctx.lam_table, ctx.exp, ctx.log
    qm1 = ctx.q - 1
    la = log[a]
    # a/alpha via logs: log(a) - log(alpha) mod q-1, kept nonnegative
    return sum(lam[alpha ^ exp[la - log[alpha] + qm1]] for alpha in range(1, ctx.q))


def kloosterman_table(ctx: FieldContext) -> KloostermanTable:
    """Evaluate K(a) directly for every nonzero a."""
    if ctx.r > MAX_TABLE_DEGREE:
        raise ValueError(
            f"full Kloosterman table is O(q^2); refusing r={ctx.r} > {MAX_TABLE_DEGREE}"
        )
    values = MappingProxyType({a: kloosterman_sum(ctx, a) for a in ctx.nonzero()})
    return KloostermanTable(r=ctx.r, modulus=ctx.modulus, values=values)


def moment_bruteforce(ctx: FieldContext, h: int, table: KloostermanTable | None = None) -> int:
    """sum over nonzero a of K(a)^h, exact (h >= 0)."""
    if h < 0:
        raise ValueError("moment order must be nonnegative")
    if table is None:
        table = kloosterman_table(ctx)
    return sum(k**h for k in table.values.values())


def split_quadratic_char_sum(ctx: FieldContext, a: int) -> int:
    """Character sum of a/(alpha^2 + alpha) over alpha outside {0, 1}.

    The denominator is the Artin-Schreier polynomial, split over GF(2);
    its q-2 nonroots contribute, and the sum equals K(a) - 1.
    """
    if a == 0:
        raise ValueError("requires nonzero a")
    lam, inv, mul = ctx.lam_table, ctx.inv_table, ctx.mul
    total = 0
    for alpha in range(2, ctx.q):
        theta = mul(alpha, alpha) ^ alpha
        total += lam[mul(a, inv[theta])]
    return total


def irreducible_quadratic_char_sum(ctx: FieldContext, a: int, b: int) -> int:
    """Character sum of a/(alpha^2 + alpha + b) over every alpha.

    Requires tr(b) = 1, which is exactly the condition making
    x^2 + x + b irreducible, so the denominator never vanishes.
    The sum equals -K(a) - 1 and does not depend on which trace-one
    b is supplied.
    """
    if a == 0:
        raise ValueError("requires nonzero a")
    if ctx.trace_table[b] != 1:
        raise ValueError("b must have trace 1 (x^2+x+b irreducible)")
    lam, inv, mul = ctx.lam_table, ctx.inv_table, ctx.mul
    total = 0
    for alpha in range(ctx.q):
        d = mul(alpha, alpha) ^ alpha ^ b
        total += lam[mul(a, inv[d])]
    return total
