"""The public names: every ``__all__`` entry resolves once, the integer arguments refuse
other types, and the README's library example prints what it says it does."""

import importlib
import re
import types
from collections import Counter
from pathlib import Path

import pytest

import kmoments
from kmoments.codes import dual_weight_fraction
from kmoments.gf2r import _trace_map

ROOT = Path(__file__).resolve().parent.parent
MODULES = ["kmoments"] + [f"kmoments.{p.stem}" for p in sorted((ROOT / "src" / "kmoments").glob("[!_]*.py"))]


def _all_problems(module: types.ModuleType) -> list[str]:
    """One line per ``__all__`` entry that is repeated or names nothing in ``module``."""
    names = getattr(module, "__all__", [])
    problems = [f"{name} listed {n} times" for name, n in Counter(names).items() if n > 1]
    problems += [f"{name} does not resolve" for name in dict.fromkeys(names) if not hasattr(module, name)]
    return problems


@pytest.mark.parametrize("name", MODULES)
def test_every_all_entry_resolves_once(name):
    module = importlib.import_module(name)
    assert module.__all__
    assert _all_problems(module) == []


def test_a_stale_or_repeated_entry_is_reported():
    module = types.ModuleType("stale")
    module.kept = 1
    module.__all__ = ["kept", "dual_weight_from_k", "kept"]
    assert _all_problems(module) == ["kept listed 2 times", "dual_weight_from_k does not resolve"]


def _layout_modules(readme: str) -> set[str]:
    """The ``src/kmoments/*.py`` files that the README's "Layout" block names."""
    (block,) = re.findall(r"## Layout\n\n```\n(.*?)```", readme, flags=re.S)
    return set(re.findall(r"^src/kmoments/(\w+\.py)", block, flags=re.M))


def test_readme_layout_names_exactly_the_package_modules():
    modules = {path.name for path in (ROOT / "src" / "kmoments").glob("*.py")}
    assert _layout_modules((ROOT / "README.md").read_text()) == modules


def test_a_stale_layout_entry_is_seen():
    readme = (ROOT / "README.md").read_text()
    assert readme.count("\nsrc/kmoments/checks.py ") == 1
    stale = readme.replace("\nsrc/kmoments/checks.py ", "\nsrc/kmoments/codes_checks.py ")
    modules = _layout_modules(readme)
    assert _layout_modules(stale) == modules - {"checks.py"} | {"codes_checks.py"}


def _readme_example() -> str:
    text = (ROOT / "README.md").read_text()
    (block,) = re.findall(r"## Library example\n\n```python\n(.*?)```", text, flags=re.S)
    return block


def test_readme_library_example_shows_the_real_reprs():
    block = _readme_example()
    namespace: dict = {}
    exec(block, namespace)
    checked = 0
    for line in block.splitlines():
        match = re.match(r"(\w+) = .*?  # (.*)$", line)
        # a comment that opens with "(" shows a tuple, the K table's or the moments'
        if match and match[2].startswith(("(", type(namespace[match[1]]).__name__ + "(")):
            assert repr(namespace[match[1]]) == match[2], line
            checked += 1
    assert checked >= 2


_F3 = kmoments.build_field(3)
_TABLE3 = kmoments.kloosterman_table(_F3)
_PHI3 = _trace_map(_F3)

# argument -> (lo, hi, call) for every call that passes x as that argument: each refuses
# any type but int, and an int outside the inclusive bounds lo..hi (None: no bound)
_INT_ARGUMENTS = {
    "r": [
        (1, 16, lambda x: kmoments.build_field(x)),
        # a generator: the check runs at the first next()
        (1, 16, lambda x: next(kmoments.irreducible_polys(x))),
    ],
    "modulus": [(0, None, lambda x: kmoments.build_field(3, modulus=x))],
    # poly_str(-3) once gave '1'
    "f": [(0, None, lambda x: kmoments.poly_str(x))],
    "b": [
        (None, None, lambda x: kmoments.build_field(3, b=x)),
        (0, 7, lambda x: kmoments.quadratic_char_sums(_F3, x, _PHI3)),
        (0, 7, lambda x: kmoments.irreducible_quadratic_char_sum(_F3, 1, x)),
    ],
    "a": [
        (1, 7, lambda x: kmoments.kloosterman_sum(_F3, x)),
        (1, 7, lambda x: kmoments.split_quadratic_char_sum(_F3, x)),
        (1, 7, lambda x: kmoments.irreducible_quadratic_char_sum(_F3, x, _F3.b)),
        (0, 7, lambda x: kmoments.dual_codeword(_F3, 4, x)),
    ],
    "word entry": [(0, 1, lambda x: kmoments.is_codeword(_F3, 4, [x, 0, 0, 0]))],
    "j_max": [(0, 4, lambda x: kmoments.weight_distribution(_F3, 4, j_max=x))],
    "h_max": [
        (0, None, lambda x: kmoments.moment_bruteforce(_F3, x, _TABLE3)),
        (0, None, lambda x: kmoments.moment_sequence(_F3, 4, x)),
    ],
    # S(h, t) has no meaning at h < 0, which once gave 0
    "h": [(0, None, lambda x: kmoments.stirling2_explicit(x, 1))],
    "t": [(None, None, lambda x: kmoments.stirling2_explicit(3, x))],
    "q": [
        (2, None, lambda x: dual_weight_fraction(x, 4, -5)),
        (2, None, lambda x: kmoments.dual_weight_closed_form(x, 4, -5)),
    ],
    "k": [
        (None, None, lambda x: dual_weight_fraction(8, 4, x)),
        # the Weil bound k^2 <= 4q: -5..5 at q = 8
        (-5, 5, lambda x: kmoments.dual_weight_closed_form(8, 4, x)),
    ],
}


def _refusal(name, lo, hi, x) -> str:
    bounds = "" if lo is None else f" >= {lo}" if hi is None else f" in {lo}..{hi}"
    return f"{name} must be an int{bounds}, got {x!r}"


@pytest.mark.parametrize("x", [True, 1.0, 3.0, 11.0, "3"])
@pytest.mark.parametrize("name", _INT_ARGUMENTS)
def test_integer_arguments_refuse_other_types(name, x):
    # unchecked, True ran as 1 (r = True, j_max = True gave (1, 0); a word entry True or
    # 1.0 passed as bit 1), 2.0 gave a float moment, q = 8.0 a float weight, and 3.0 or
    # 11.0 as r, modulus or b raised a bare TypeError or AttributeError
    for lo, hi, call in _INT_ARGUMENTS[name]:
        with pytest.raises(ValueError) as raised:
            call(x)
        assert str(raised.value) == _refusal(name, lo, hi, x)


@pytest.mark.parametrize(
    "name", [name for name, calls in _INT_ARGUMENTS.items() if any(lo is not None for lo, _, _ in calls)]
)
def test_integer_arguments_refuse_values_out_of_range(name):
    # a bound's neighbour outside it gets the same message as a wrong type
    for lo, hi, call in _INT_ARGUMENTS[name]:
        for x in ([] if lo is None else [lo - 1]) + ([] if hi is None else [hi + 1]):
            with pytest.raises(ValueError) as raised:
                call(x)
            assert str(raised.value) == _refusal(name, lo, hi, x)
