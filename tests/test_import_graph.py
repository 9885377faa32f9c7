"""Which package modules may read which: the weight counts and the Pless
left side must never come from the K values they are checked against.

Each rule lists every package module one module may import, read from
the sources with ``ast``:

* ``kloosterman`` imports only ``gf2r``;
* ``codes`` imports only ``gf2r``;
* ``moments`` imports only ``gf2r`` and ``codes``.

So neither weight-side module can reach a K value, by any name.
"""

import ast
import re
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "kmoments"

MAY_IMPORT = {
    "kloosterman": {"gf2r"},
    "codes": {"gf2r"},
    "moments": {"gf2r", "codes"},
}


def _package_imports(tree: ast.Module) -> list[str]:
    """The package module (or package-level name) behind every package import in ``tree``."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0:
                if module != "kmoments" and not module.startswith("kmoments."):
                    continue
                module = module.removeprefix("kmoments").lstrip(".")
            # "from . import codes" imports the module codes itself
            found += [module or alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            # "import kmoments" reaches every module through the package
            found += [
                alias.name.removeprefix("kmoments.")
                for alias in node.names
                if alias.name == "kmoments" or alias.name.startswith("kmoments.")
            ]
    return found


def _violations(sources: dict[str, str]) -> list[str]:
    """One line per broken rule in ``sources`` (module name -> source text)."""
    return [
        f"{module} imports {source}"
        for module, text in sources.items()
        for source in _package_imports(ast.parse(text))
        if source not in MAY_IMPORT[module]
    ]


def _sources() -> dict[str, str]:
    return {m: (PACKAGE / f"{m}.py").read_text() for m in MAY_IMPORT}


def _with_import(sources, module, line):
    # the line goes right after the module's one import from gf2r
    text = sources[module]
    (anchor,) = re.findall(r"^from \.gf2r import .*\n", text, flags=re.M)
    return {**sources, module: text.replace(anchor, anchor + line + "\n")}


def test_import_graph_keeps_k_values_out_of_the_counts():
    assert _violations(_sources()) == []


K_IMPORTS = [
    "from .kloosterman import kloosterman_table",
    "from . import kloosterman as kl",
    "from . import kloosterman",
    "import kmoments.kloosterman",
    "import kmoments.kloosterman as kl",
    "from kmoments.kloosterman import kloosterman_sum",
    "from kmoments import kloosterman",
]


@pytest.mark.parametrize("module", ["codes", "moments"])
@pytest.mark.parametrize("line", K_IMPORTS)
def test_import_graph_rejects_each_way_to_reach_k(module, line):
    assert _violations(_with_import(_sources(), module, line)) == [f"{module} imports kloosterman"]


@pytest.mark.parametrize("module", ["codes", "moments"])
@pytest.mark.parametrize(
    "line, reached",
    [
        ("from kmoments import kloosterman_sum", "kloosterman_sum"),
        ("import kmoments", "kmoments"),
        ("from . import cli", "cli"),
    ],
)
def test_import_graph_rejects_the_package_and_the_cli(module, line, reached):
    assert _violations(_with_import(_sources(), module, line)) == [f"{module} imports {reached}"]


def test_import_graph_rejects_each_mutant():
    sources = _sources()
    codes = _with_import(sources, "codes", "from .moments import moment_sequence")
    assert _violations(codes) == ["codes imports moments"]
    kloosterman = _with_import(sources, "kloosterman", "from . import codes")
    assert _violations(kloosterman) == ["kloosterman imports codes"]
