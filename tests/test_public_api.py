"""The public names: every ``__all__`` entry resolves once, the integer arguments refuse
other types, and the README's library example prints what it says it does."""

import importlib
import re
import types
from collections import Counter
from pathlib import Path

import pytest

import kmoments

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


# argument -> calls that pass x as that argument; each refuses any type but int
_INT_ARGUMENTS = {
    "r": [lambda x: kmoments.build_field(x)],
    "modulus": [lambda x: kmoments.build_field(3, modulus=x)],
    "b": [lambda x: kmoments.build_field(3, b=x)],
    "j_max": [lambda x: kmoments.weight_distribution(kmoments.build_field(3), 4, j_max=x)],
    "h_max": [
        lambda x: kmoments.moment_sequence(kmoments.build_field(3), 4, x),
        lambda x: kmoments.pless_check(kmoments.build_field(3), 4, x),
    ],
    "h": [
        lambda x: kmoments.moment_bruteforce(
            kmoments.build_field(3), x, kmoments.kloosterman_table(kmoments.build_field(3))
        ),
        lambda x: kmoments.stirling2_explicit(x, 1),
    ],
    "t": [lambda x: kmoments.stirling2_explicit(3, x)],
}


@pytest.mark.parametrize("x", [True, 3.0, 11.0, "3"])
@pytest.mark.parametrize("name", _INT_ARGUMENTS)
def test_integer_arguments_refuse_other_types(name, x):
    # unchecked, True ran as 1 (r = True, j_max = True gave (1, 0)), 2.0 gave a float
    # moment, and 3.0 or 11.0 as r, modulus or b raised a bare TypeError or AttributeError
    for call in _INT_ARGUMENTS[name]:
        with pytest.raises(ValueError, match=rf"^{name} must be an int, got {re.escape(repr(x))}$"):
            call(x)
