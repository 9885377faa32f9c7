"""The public names: every ``__all__`` entry resolves once, and the README's
library example prints what it says it does."""

import importlib
import re
import types
from collections import Counter
from pathlib import Path

import pytest

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
