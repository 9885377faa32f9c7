"""Which package modules may read which: the weight counts and the Pless
left side must never come from the K values they are checked against.

Three rules, read from the sources with ``ast``:

* ``kloosterman`` imports only ``gf2r`` and ``_record`` from the package;
* ``moments`` never imports ``kloosterman``;
* inside ``codes``, only ``dual_weight_closed_form`` names anything
  imported from ``kloosterman``.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "kmoments"

KLOOSTERMAN_MAY_IMPORT = {"gf2r", "_record"}
CODES_MAY_READ_K = {"dual_weight_closed_form"}


def _package_imports(tree: ast.Module) -> list[tuple[str, str]]:
    """(package module, name it binds) for every import of a package module in ``tree``."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0:
                if not module.startswith("kmoments"):
                    continue
                module = module.removeprefix("kmoments").lstrip(".")
            for alias in node.names:
                # "from . import codes" imports the module codes itself
                source = module or alias.name
                found.append((source, alias.asname or alias.name))
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("kmoments."):
                    module = alias.name.removeprefix("kmoments.")
                    found.append((module, alias.asname or "kmoments"))
    return found


def _violations(sources: dict[str, str]) -> list[str]:
    """One line per broken rule in ``sources`` (module name -> source text)."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    imports = {module: _package_imports(tree) for module, tree in trees.items()}
    out = [
        f"kloosterman imports {module}"
        for module, _ in imports["kloosterman"]
        if module not in KLOOSTERMAN_MAY_IMPORT
    ]
    out += [f"moments imports {module}" for module, _ in imports["moments"] if module == "kloosterman"]
    from_k = {name for module, name in imports["codes"] if module == "kloosterman"}
    allowed = [
        range(node.lineno, node.end_lineno + 1)
        for node in trees["codes"].body
        if isinstance(node, ast.FunctionDef) and node.name in CODES_MAY_READ_K
    ]
    for node in ast.walk(trees["codes"]):
        if isinstance(node, ast.Name) and node.id in from_k:
            if not any(node.lineno in lines for lines in allowed):
                out.append(f"codes:{node.lineno} reads {node.id}")
    return out


def _sources() -> dict[str, str]:
    return {m: (PACKAGE / f"{m}.py").read_text() for m in ("codes", "kloosterman", "moments")}


def _mutated(sources, module, old, new):
    text = sources[module]
    assert text.count(old) == 1, (module, old)
    return {**sources, module: text.replace(old, new)}


def test_import_graph_keeps_k_values_out_of_the_counts():
    assert _violations(_sources()) == []


def test_import_graph_rejects_each_mutant():
    sources = _sources()
    # weight_distribution reading a K value
    codes = _mutated(
        sources, "codes", "    totals = [0] * (j_max + 1)\n",
        "    totals = [0] * (j_max + 1)\n    kloosterman_sum(ctx, 1)\n",
    )
    (line,) = _violations(codes)
    assert line.startswith("codes:") and line.endswith("reads kloosterman_sum")
    # the whole module bound under another name
    aliased = _mutated(
        codes, "codes", "from .kloosterman import kloosterman_sum\n",
        "from . import kloosterman as kl\nfrom .kloosterman import kloosterman_sum\n",
    )
    aliased = _mutated(aliased, "codes", "    kloosterman_sum(ctx, 1)\n", "    kl.kloosterman_sum(ctx, 1)\n")
    (line,) = _violations(aliased)
    assert line.endswith("reads kl")
    moments = _mutated(
        sources, "moments", "from .gf2r import FieldContext\n",
        "from .gf2r import FieldContext\nfrom .kloosterman import kloosterman_table\n",
    )
    assert _violations(moments) == ["moments imports kloosterman"]
    absolute = _mutated(
        sources, "moments", "from .gf2r import FieldContext\n",
        "from .gf2r import FieldContext\nimport kmoments.kloosterman\n",
    )
    assert _violations(absolute) == ["moments imports kloosterman"]
    kloosterman = _mutated(
        sources, "kloosterman", "from .gf2r import FieldContext\n",
        "from .gf2r import FieldContext\nfrom . import codes\n",
    )
    assert _violations(kloosterman) == ["kloosterman imports codes"]
