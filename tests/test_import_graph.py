"""Which package modules may read which: the weight counts and the Pless
left side must never come from the K values they are checked against.

Each rule lists every package module one module may import, read from
the sources with ``ast``, a lazy import inside a function included.
Each layer imports, on first use, its ``*_checks`` module (what
``verify`` runs) and its ``*_oracles`` module (what only the tests
run); beyond that:

* ``gf2r`` imports no package module;
* ``kloosterman``, ``kloosterman_checks`` and ``kloosterman_oracles``
  import only ``gf2r``;
* ``codes`` imports only ``gf2r``, ``codes_checks`` ``gf2r`` and
  ``codes``, and ``codes_oracles`` those and ``codes_checks``;
* ``moments`` imports only ``gf2r`` and ``codes``, ``moments_checks``
  those, ``codes_checks`` and ``moments``, and ``moments_oracles`` only
  ``gf2r``;
* ``verify``, the one module that sets the two sides beside each other,
  imports every layer and the checks it runs; ``moments_cmd`` the
  layers whose columns it prints side by side, ``weights_cmd`` only
  ``codes``, and ``usage`` no package module.  No command module imports
  the CLI back, which hands each command's rows to its renderer and
  ``usage`` the text it prints.

Every package module but ``__init__`` and ``cli`` has a rule, so a new
module cannot escape them.  So no weight-side module can reach a K
value, by any name.

One rule looks inside a function: ``kloosterman_table`` reads nothing
from ``gf2r`` but ``_unpack_slots``.  So the K table shares neither the
trace form nor the Walsh-Hadamard transform, its stages or any other
packing, with the character-sum row checked against it.

One rule reads names across whole modules: the ``*_oracles`` modules
read from ``gf2r`` only ``FieldContext`` and ``_check_int``, from
``codes`` only ``_check_code``, ``code_shape`` and ``code_length``, and
from ``codes_checks`` only ``dual_weight_fraction``.  So no oracle
shares a stage builder (``_bit_rows``, ``_trace_map``,
``_walsh_hadamard``, ``_unpack_slots``, ``_generator_rows``) with what
it checks.
"""

import ast
import re
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "kmoments"

MAY_IMPORT = {
    "gf2r": set(),
    "kloosterman": {"gf2r", "kloosterman_checks", "kloosterman_oracles"},
    "kloosterman_checks": {"gf2r"},
    "kloosterman_oracles": {"gf2r"},
    "codes": {"gf2r", "codes_checks", "codes_oracles"},
    "codes_checks": {"gf2r", "codes"},
    "codes_oracles": {"gf2r", "codes", "codes_checks"},
    "moments": {"gf2r", "codes", "moments_checks", "moments_oracles"},
    "moments_checks": {"gf2r", "codes", "codes_checks", "moments"},
    "moments_oracles": {"gf2r"},
    "verify": {"gf2r", "kloosterman", "kloosterman_checks", "codes", "codes_checks", "moments"},
    "moments_cmd": {"kloosterman", "codes", "moments"},
    "weights_cmd": {"codes"},
    "usage": set(),
}

# the modules that run one command, or --help: none may import the CLI back
COMMAND_MODULES = ["moments_cmd", "weights_cmd", "verify", "usage"]

# the modules that hold or read the weight counts and the dual weights
WEIGHT_SIDE = ["codes", "codes_checks", "codes_oracles", "moments", "moments_checks", "moments_oracles"]


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


def test_every_module_has_an_import_rule():
    modules = {path.stem for path in PACKAGE.glob("*.py")} - {"__init__", "cli"}
    assert modules == set(MAY_IMPORT)


K_IMPORTS = [
    "from .kloosterman import kloosterman_table",
    "from . import kloosterman as kl",
    "from . import kloosterman",
    "import kmoments.kloosterman",
    "import kmoments.kloosterman as kl",
    "from kmoments.kloosterman import kloosterman_sum",
    "from kmoments import kloosterman",
]


@pytest.mark.parametrize("module", WEIGHT_SIDE)
@pytest.mark.parametrize("line", K_IMPORTS)
def test_import_graph_rejects_each_way_to_reach_k(module, line):
    assert _violations(_with_import(_sources(), module, line)) == [f"{module} imports kloosterman"]


@pytest.mark.parametrize("module", WEIGHT_SIDE)
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


@pytest.mark.parametrize("module", COMMAND_MODULES)
@pytest.mark.parametrize(
    "line", ["from . import cli", "from .cli import MISMATCH_ERROR", "import kmoments.cli"]
)
def test_import_graph_rejects_a_command_module_that_imports_the_cli_back(module, line):
    # the line goes right before the module's __all__; usage imports nothing to anchor on
    sources = _sources()
    anchor = "__all__ = "
    assert sources[module].count(anchor) == 1
    mutant = {**sources, module: sources[module].replace(anchor, line + "\n\n" + anchor)}
    assert _violations(mutant) == [f"{module} imports cli"]


def test_import_graph_rejects_each_mutant():
    sources = _sources()
    codes = _with_import(sources, "codes", "from .moments import moment_sequence")
    assert _violations(codes) == ["codes imports moments"]
    kloosterman = _with_import(sources, "kloosterman", "from . import codes")
    assert _violations(kloosterman) == ["kloosterman imports codes"]
    row = _with_import(sources, "kloosterman_checks", "from .codes_checks import dual_weights")
    assert _violations(row) == ["kloosterman_checks imports codes_checks"]
    per_a = _with_import(sources, "kloosterman_oracles", "from . import codes_oracles")
    assert _violations(per_a) == ["kloosterman_oracles imports codes_oracles"]
    codes_checks = _with_import(sources, "codes_checks", "from . import moments")
    assert _violations(codes_checks) == ["codes_checks imports moments"]


# the gf2r names kloosterman_table may read
K_TABLE_MAY_READ = {"_unpack_slots"}


def _reads(text: str, source: str, function: str | None = None) -> list[str]:
    """The ``source`` name behind every read in ``text``, or in the body of ``function``.

    A read is a name the module imports from the package module ``source``,
    under any alias, or an attribute of ``source`` reached as a module
    (``gf2r.x``, ``kmoments.gf2r.x``).
    """
    tree = ast.parse(text)
    names, modules = {}, {f"kmoments.{source}"}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0:
                module = module.removeprefix("kmoments").lstrip(".")
            for alias in node.names:
                if module == source:
                    names[alias.asname or alias.name] = alias.name
                elif not module and alias.name == source:
                    modules.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            modules |= {a.asname for a in node.names if a.name == f"kmoments.{source}" and a.asname}
    scope = tree.body
    if function is not None:
        (body,) = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == function]
        scope = body.body
    return [
        names[node.id] if isinstance(node, ast.Name) else node.attr
        for stmt in scope
        for node in ast.walk(stmt)
        if isinstance(node, ast.Name) and node.id in names
        or isinstance(node, ast.Attribute) and ast.unparse(node.value) in modules
    ]


def _k_table_violations(sources: dict[str, str]) -> list[str]:
    reads = _reads(sources["kloosterman"], "gf2r", "kloosterman_table")
    return [f"kloosterman_table reads gf2r.{name}" for name in reads if name not in K_TABLE_MAY_READ]


def _with_own_import(sources, name):
    # the name joins kloosterman's own import from gf2r
    text = sources["kloosterman"]
    (anchor,) = re.findall(r"^from \.gf2r import .*\n", text, flags=re.M)
    return {**sources, "kloosterman": text.replace(anchor, anchor[:-1] + f", {name}\n")}


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
    # imported None: kloosterman imports the name with its other gf2r names
    if imported is None:
        sources = _with_own_import(_sources(), "_trace_map")
    else:
        sources = _with_import(_sources(), "kloosterman", imported)
    mutant = _with_k_table_line(sources, f"phi = {read}")
    assert _k_table_violations(mutant) == ["kloosterman_table reads gf2r._trace_map"]


@pytest.mark.parametrize(
    "imported, read, name",
    [
        (None, "_walsh_hadamard(ctx.q, [], 0)", "_walsh_hadamard"),
        ("from . import gf2r", "gf2r._walsh_hadamard(ctx.q, [], 0)", "_walsh_hadamard"),
        ("from .gf2r import _wht_stages", "_wht_stages(ctx.q, 2)", "_wht_stages"),
        ("from .gf2r import _wht_stages as stages", "stages(ctx.q, 2)", "_wht_stages"),
        ("import kmoments.gf2r as g", "g._wht_stages(ctx.q, 2)", "_wht_stages"),
    ],
)
def test_k_table_rule_rejects_a_read_of_the_transform(imported, read, name):
    if imported is None:
        sources = _with_own_import(_sources(), name)
    else:
        sources = _with_import(_sources(), "kloosterman", imported)
    mutant = _with_k_table_line(sources, f"values = {read}")
    assert _k_table_violations(mutant) == [f"kloosterman_table reads gf2r.{name}"]


# the package names the oracles may read, per module they import: never a stage builder
ORACLES = ["kloosterman_oracles", "codes_oracles", "moments_oracles"]
ORACLES_MAY_READ = {
    "gf2r": {"FieldContext", "_check_int"},
    "codes": {"_check_code", "code_shape", "code_length"},
    "codes_checks": {"dual_weight_fraction"},
}


def _oracle_violations(sources: dict[str, str]) -> list[str]:
    return sorted(
        {
            f"{module} reads {source}.{name}"
            for module in ORACLES
            for source, allowed in ORACLES_MAY_READ.items()
            for name in _reads(sources[module], source)
            if name not in allowed
        }
    )


def test_oracles_read_no_stage_builder():
    assert _oracle_violations(_sources()) == []


@pytest.mark.parametrize("module", ORACLES)
@pytest.mark.parametrize(
    "source, name",
    [
        ("codes", "_bit_rows"),
        ("gf2r", "_trace_map"),
        ("gf2r", "_walsh_hadamard"),
        ("gf2r", "_unpack_slots"),
        ("codes_checks", "_generator_rows"),
    ],
)
@pytest.mark.parametrize("form", ["by name", "aliased", "module attribute"])
def test_oracle_rule_rejects_a_read_of_a_stage_builder(module, source, name, form):
    imported, read = {
        "by name": (f"from .{source} import {name}", name),
        "aliased": (f"from .{source} import {name} as stage", "stage"),
        "module attribute": (f"from . import {source}", f"{source}.{name}"),
    }[form]
    sources = _with_import(_sources(), module, imported)
    mutant = {**sources, module: sources[module] + f"\n\ndef _stage(ctx):\n    return {read}(ctx)\n"}
    assert _oracle_violations(mutant) == [f"{module} reads {source}.{name}"]
