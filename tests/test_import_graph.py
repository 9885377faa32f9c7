"""Which package modules may read which: the weight counts and the Pless
left side must never come from the K values they are checked against.

Each rule lists every package module one module may import, read from
the sources with ``ast``:

* ``kloosterman`` imports only ``gf2r``;
* ``codes`` imports only ``gf2r``;
* ``moments`` imports only ``gf2r`` and ``codes``.

So neither weight-side module can reach a K value, by any name.

One rule looks inside a function: ``kloosterman_table`` reads nothing
from ``gf2r`` but ``_unpack_slots``.  So the K table shares neither the
trace form nor the Walsh-Hadamard transform, its stages or any other
packing, with the character-sum row checked against it.
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


# the gf2r names kloosterman_table may read
K_TABLE_MAY_READ = {"_unpack_slots"}


def _gf2r_reads(text: str, function: str) -> list[str]:
    """The gf2r name behind every read in the body of ``function`` in ``text``.

    A read is a name the module imports from gf2r, under any alias, or an
    attribute of gf2r reached as a module (``gf2r.x``, ``kmoments.gf2r.x``).
    """
    tree = ast.parse(text)
    names, modules = {}, {"kmoments.gf2r"}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0:
                module = module.removeprefix("kmoments").lstrip(".")
            for alias in node.names:
                if module == "gf2r":
                    names[alias.asname or alias.name] = alias.name
                elif not module and alias.name == "gf2r":
                    modules.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            modules |= {a.asname for a in node.names if a.name == "kmoments.gf2r" and a.asname}
    (body,) = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == function]
    return [
        names[node.id] if isinstance(node, ast.Name) else node.attr
        for stmt in body.body
        for node in ast.walk(stmt)
        if isinstance(node, ast.Name) and node.id in names
        or isinstance(node, ast.Attribute) and ast.unparse(node.value) in modules
    ]


def _k_table_violations(sources: dict[str, str]) -> list[str]:
    reads = _gf2r_reads(sources["kloosterman"], "kloosterman_table")
    return [f"kloosterman_table reads gf2r.{name}" for name in reads if name not in K_TABLE_MAY_READ]


def _with_k_table_line(sources, line):
    # the line becomes the first statement of kloosterman_table's body
    text = sources["kloosterman"]
    (anchor,) = re.findall(r"^def kloosterman_table\(.*\n", text, flags=re.M)
    return {**sources, "kloosterman": text.replace(anchor, anchor + f"    {line}\n")}


def test_k_table_reads_no_gf2r_name_but_the_slot_reader():
    assert _k_table_violations(_sources()) == []


@pytest.mark.parametrize(
    "imported, read",
    [
        (None, "_trace_map(ctx)"),
        ("from .gf2r import _trace_map as trace_map", "trace_map(ctx)"),
        ("from kmoments.gf2r import _trace_map", "_trace_map(ctx)"),
        ("from . import gf2r", "gf2r._trace_map(ctx)"),
        ("from kmoments import gf2r as g", "g._trace_map(ctx)"),
        ("import kmoments.gf2r", "kmoments.gf2r._trace_map(ctx)"),
        ("import kmoments.gf2r as g", "g._trace_map(ctx)"),
    ],
)
def test_k_table_rule_rejects_a_read_of_the_trace_form(imported, read):
    sources = _sources() if imported is None else _with_import(_sources(), "kloosterman", imported)
    mutant = _with_k_table_line(sources, f"phi = {read}")
    assert _k_table_violations(mutant) == ["kloosterman_table reads gf2r._trace_map"]


@pytest.mark.parametrize(
    "imported, read, name",
    [
        (None, "_walsh_hadamard(ctx.q, [], 1, 0)", "_walsh_hadamard"),
        ("from . import gf2r", "gf2r._walsh_hadamard(ctx.q, [], 1, 0)", "_walsh_hadamard"),
        ("from .gf2r import _wht_stages", "_wht_stages(ctx.q, 2)", "_wht_stages"),
        ("from .gf2r import _wht_stages as stages", "stages(ctx.q, 2)", "_wht_stages"),
        ("import kmoments.gf2r as g", "g._wht_stages(ctx.q, 2)", "_wht_stages"),
    ],
)
def test_k_table_rule_rejects_a_read_of_the_transform(imported, read, name):
    sources = _sources() if imported is None else _with_import(_sources(), "kloosterman", imported)
    mutant = _with_k_table_line(sources, f"values = {read}")
    assert _k_table_violations(mutant) == [f"kloosterman_table reads gf2r.{name}"]
