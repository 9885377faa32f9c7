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
    "dual_weight_from_k": (
        "from kmoments.codes import dual_weight_from_k\n"
        "dual_weight_from_k(8, 3, 0)\n",
        "weight 9/2 not integral; K(a)=0",
    ),
    # a half-integral dual weight makes K_2 = ((N - 1)^2 - N) / 2 odd over 2
    "krawtchouk": (
        "from collections import Counter\n"
        "from fractions import Fraction\n"
        "import kmoments.codes as codes\n"
        "codes._dual_weight_histogram = lambda ctx, i: Counter({Fraction(1, 2): 8})\n"
        "codes.weight_distribution(build_field(3), 3)\n",
        "Krawtchouk K_2(1/2) not integral",
    ),
    # one zero dual word instead of q words: the j = 0 sum is 1, not a multiple of 8
    "macwilliams": (
        "from collections import Counter\n"
        "import kmoments.codes as codes\n"
        "codes._dual_weight_histogram = lambda ctx, i: Counter({0: 1})\n"
        "codes.weight_distribution(build_field(3), 3)\n",
        "MacWilliams sum for j=0 not divisible by q",
    ),
    # code 2 at r = 2 has N = 1, so one zero word gives 2^1 / 4 codewords
    "cardinality": (
        "import warnings\n"
        "from collections import Counter\n"
        "import kmoments.codes as codes\n"
        "warnings.simplefilter('ignore')\n"
        "codes._dual_weight_histogram = lambda ctx, i: Counter({0: 1})\n"
        "codes.code_cardinality(build_field(2), 2)\n",
        "cardinality 1*2^N/q not integral",
    ),
    # S(3, 2) = 6 / 2!; a wrong factorial leaves a remainder
    "stirling2_explicit": (
        "import kmoments.moments as mo\n"
        "mo.factorial = lambda t: 7\n"
        "mo.stirling2_explicit(3, 2)\n",
        "alternating sum for S(3, 2) not divisible by 2!",
    ),
    "kloosterman_slot_width": (
        "import kmoments.kloosterman as kl\n"
        "kl._SLOT_BYTES = 1\n"
        "kl.kloosterman_table(build_field(3))\n",
        "1-byte array('H') slots cannot hold counts up to 3",
    ),
    # slots read in the wrong byte order hold 256 times their counts
    "kloosterman_carry": (
        "import sys\n"
        "import kmoments.kloosterman as kl\n"
        "sys.byteorder = {'little': 'big', 'big': 'little'}[sys.byteorder]\n"
        "kl.kloosterman_table(build_field(3))\n",
        "convolution slots sum to 2304, not 3^2",
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
