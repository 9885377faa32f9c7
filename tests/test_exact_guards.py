"""Every divisibility and slot check of the exact arithmetic raises
ArithmeticError, so ``python -O`` can neither floor a quotient nor skip
the check.  Each case breaks one input of one guard in a ``python -O``
child and expects that guard's message as the child's last stderr line."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

# the child stops at this assert unless -O removed it
_PRELUDE = "assert False, 'asserts are on'\nfrom kmoments import build_field\n"

GUARDS = {
    # K(a) = 0 is not 3 mod 4, so the code-3 weight (q + 1 + k) / 2 is 9/2
    "dual_weight_closed_form": (
        "from kmoments.codes import dual_weight_closed_form\n"
        "dual_weight_closed_form(8, 3, 0)\n",
        "weight 9/2 not integral; K(a)=0",
    ),
    # a half-integral dual weight makes K_2 = ((N - 1)^2 - N) / 2 odd over 2
    "krawtchouk": (
        "from collections import Counter\n"
        "from fractions import Fraction\n"
        "import kmoments.codes as codes\n"
        "codes._dual_weight_histogram = lambda ctx, i, transform: Counter({Fraction(1, 2): 8})\n"
        "codes.weight_distribution(build_field(3), 3)\n",
        "Krawtchouk K_2(1/2) not integral",
    ),
    # one zero dual word instead of q words: the j = 0 sum is 1, not a multiple of 8
    "macwilliams": (
        "from collections import Counter\n"
        "import kmoments.codes as codes\n"
        "codes._dual_weight_histogram = lambda ctx, i, transform: Counter({0: 1})\n"
        "codes.weight_distribution(build_field(3), 3)\n",
        "MacWilliams sum for j=0 not divisible by q",
    ),
    # code 2 at r = 2 has N = 1, so one zero word gives 2^1 / 4 codewords
    "cardinality": (
        "from collections import Counter\n"
        "import kmoments.codes as codes\n"
        "codes.code_cardinality(build_field(2), 2, Counter({0: 1}))\n",
        "cardinality 1*2^N/q not integral",
    ),
    # S(3, 2) = 6 / 2!; a wrong factorial leaves a remainder
    "stirling2_explicit": (
        "import kmoments.oracles as mo\n"
        "mo.factorial = lambda t: 7\n"
        "mo.stirling2_explicit(3, 2)\n",
        "alternating sum for S(3, 2) not divisible by 2!",
    ),
    # at r = 10 u marks 511 elements, past one byte
    "kloosterman_slot_width": (
        "import kmoments.kloosterman as kl\n"
        "kl._SLOT_BYTES = 1\n"
        "kl.kloosterman_table(build_field(10))\n",
        "1-byte slots cannot hold counts up to 511",
    ),
    # slots read in the wrong byte order hold 256 times their counts
    "kloosterman_carry": (
        "import sys\n"
        "import kmoments.kloosterman as kl\n"
        "sys.byteorder = {'little': 'big', 'big': 'little'}[sys.byteorder]\n"
        "kl.kloosterman_table(build_field(3))\n",
        "convolution slots sum to 2304, not 3^2",
    ),
    # code 4 at r = 8 has N = 128, past one-byte slots (|F| <= 127)
    "wht_slot_width": (
        "import kmoments.codes as codes\n"
        "import kmoments.gf2r as gf2r\n"
        "gf2r._WHT_SLOT_BYTES = (1,)\n"
        "codes.weight_distribution(build_field(8), 4, j_max=1)\n",
        "no slot of (1,) bytes holds transform values up to 128",
    ),
    # three bytes hold N = 4, but no array item is three bytes wide
    "slot_typecode": (
        "import kmoments.codes as codes\n"
        "import kmoments.gf2r as gf2r\n"
        "gf2r._WHT_SLOT_BYTES = (3,)\n"
        "codes.weight_distribution(build_field(3), 4)\n",
        "no array typecode has 3-byte items",
    ),
    # one entry of vector 4 lost: F(0) = sum f = N - 1
    "wht_f0": (
        "import kmoments.codes as codes\n"
        "real = codes._base_entries\n"
        "codes._base_entries = lambda ctx, i: real(ctx, i)[1:]\n"
        "codes.weight_distribution(build_field(3), 4)\n",
        "transform gives F(0) = 3 and sum F = 0, not 4 and 0",
    ),
    # one entry of vector 4 replaced by 0: sum_u F(u) = q f(0) = 8
    "wht_sum": (
        "import kmoments.codes as codes\n"
        "real = codes._base_entries\n"
        "codes._base_entries = lambda ctx, i: (0,) + real(ctx, i)[1:]\n"
        "codes.weight_distribution(build_field(3), 4)\n",
        "transform gives F(0) = 4 and sum F = 8, not 4 and 0",
    ),
    # the trace-one row at r = 8 sums over |D| = 128 points, past one-byte slots
    "char_sum_slot_width": (
        "import kmoments.gf2r as gf2r\n"
        "import kmoments.kloosterman as kl\n"
        "gf2r._WHT_SLOT_BYTES = (1,)\n"
        "ctx = build_field(8)\n"
        "kl.quadratic_char_sums(ctx, ctx.b, gf2r._trace_map(ctx))\n",
        "no slot of (1,) bytes holds transform values up to 128",
    ),
    # one trace-zero element lost: the split row sums over |D| - 1 points
    "char_sum_f0": (
        "import kmoments.gf2r as gf2r\n"
        "import kmoments.kloosterman as kl\n"
        "ctx = build_field(3)\n"
        "ctx.theta = ctx.theta[:-1]\n"
        "kl.quadratic_char_sums(ctx, 0, gf2r._trace_map(ctx))\n",
        "transform gives F(0) = 2 and sum F = 0, not 3 and 0",
    ),
    # slots read in the wrong byte order: each two-byte value has its bytes swapped
    "char_sum_byte_order": (
        "import sys\n"
        "import kmoments.gf2r as gf2r\n"
        "import kmoments.kloosterman as kl\n"
        "ctx = build_field(9)\n"
        "sys.byteorder = {'little': 'big', 'big': 'little'}[sys.byteorder]\n"
        "kl.quadratic_char_sums(ctx, 0, gf2r._trace_map(ctx))\n",
        "transform gives F(0) = -256 and sum F = -2551, not 255 and 0",
    ),
    # a log table of zeros: every a^2 = exp[2 log a] reads as 1, and x^2 + x as x + 1
    "field_theta": (
        "import kmoments.gf2r as gf2r\n"
        "real = gf2r.FieldContext._build_exp_log\n"
        "gf2r.FieldContext._build_exp_log = lambda self: (real(self)[0], (None,) + (0,) * (self.q - 1))\n"
        "build_field(3)\n",
        "the image of x^2 + x (7 values) is not the trace-zero set (4 values): 0x3 is in the image only",
    ),
    # bit 0 of the trace mask flipped: tr(v) gains v & 1, a linear form with another kernel
    "field_trace_theta": (
        "import kmoments.gf2r as gf2r\n"
        "real = gf2r.FieldContext._build_trace_table\n"
        "gf2r.FieldContext._build_trace_table = lambda self: bytes(\n"
        "    t ^ (v & 1) for v, t in enumerate(real(self))\n"
        ")\n"
        "build_field(8)\n",
        "the image of x^2 + x (128 values) is not the trace-zero set (128 values): 0x1 is in the image only",
    ),
    # a reducible modulus let through: modulo x^3+x^2+x+1 = (x+1)^3 only 4 of the 7 nonzero
    # elements are units, so no g has 7 distinct powers (x^4 = 1 already)
    "field_exp_cycle": (
        "import kmoments.gf2r as gf2r\n"
        "gf2r._find_factor = lambda f: None\n"
        "build_field(3, modulus=0b1111)\n",
        "no g has order q - 1 = 7 modulo x^3+x^2+x+1",
    ),
    # a Pless sum off by one: P_4 * 2^3 leaves a remainder modulo 2^4
    "pless_scale": (
        "import kmoments.codes as codes\n"
        "import kmoments.moments as mo\n"
        "sums = mo._pless_sums(4, 8, codes.weight_distribution(build_field(3), 3, 4))\n"
        "mo.pless_check(build_field(3), 3, (0,) * 8, [p + 1 for p in sums])\n",
        "Pless sum P_4 * 2^3 not divisible by 2^4",
    ),
}


@pytest.mark.parametrize("name", GUARDS)
def test_guard_raises_under_optimized_mode(name):
    script, message = GUARDS[name]
    done = subprocess.run(
        [sys.executable, "-O", "-c", _PRELUDE + script],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 1
    assert done.stderr.splitlines()[-1] == f"ArithmeticError: {message}"
