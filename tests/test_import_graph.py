"""Which package modules may read which: the weight counts and the Pless
left side must never come from the K values they are checked against.

Each rule lists exactly the package modules one module imports, read
from the sources with ``ast``, a lazy import inside a function
included: an import outside its rule fails, and so does a permission
that no import uses.
Each layer imports, on first use, ``checks`` (what ``verify`` runs) and
``oracles`` (what only the tests run); beyond that:

* ``gf2r`` imports no package module;
* ``kloosterman`` and ``codes`` import only ``gf2r``, and ``moments``
  only ``gf2r`` and ``codes``;
* ``checks`` imports only ``gf2r``, ``codes`` and ``moments``, and
  ``oracles`` only ``gf2r``, ``codes`` and ``checks``: neither imports
  ``kloosterman``, and ``checks`` never imports ``oracles``;
* ``verify``, the one module that sets the two sides beside each other,
  imports every layer and the checks it runs; ``moments_cmd`` the
  layers whose columns it prints side by side, ``weights_cmd`` only
  ``codes``, and ``usage`` no package module.  No command module imports
  the CLI back, which hands each command's rows to its renderer and
  ``usage`` the text it prints.

Every package module but ``__init__`` and ``cli`` has a rule, so a new
module cannot escape them.  So no weight-side module can reach a K
value, by any name.

Two rules look inside functions.  ``kloosterman_table`` reads nothing
from ``gf2r`` but ``_unpack_slots``.  So the K table shares neither the
trace form nor the Walsh-Hadamard transform, its stages or any other
packing, with the character-sum row checked against it.  And the
functions of ``FIELD_SIDE`` read no name of the weight side that shares
their module: the character-sum row ``quadratic_char_sums`` none of
``codes`` or ``moments``, and the literal sums ``kloosterman_sum``,
``split_quadratic_char_sum`` and ``irreducible_quadratic_char_sum`` and
the Stirling numbers ``stirling2_explicit`` none of ``codes`` or
``checks``.

One rule reads names across the whole ``oracles`` module: it reads from
``gf2r`` only ``FieldContext`` and ``_check_int``, from ``codes`` only
``_check_code``, ``code_shape`` and ``code_length``, and from ``checks``
only ``dual_weight_fraction``.  So no oracle shares a stage builder
(``_bit_rows``, ``_trace_map``, ``_walsh_hadamard``, ``_unpack_slots``,
``_generator_rows``) with what it checks.
"""

import ast
import re
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "kmoments"

MAY_IMPORT = {
    "gf2r": set(),
    "kloosterman": {"gf2r", "checks", "oracles"},
    "codes": {"gf2r", "checks", "oracles"},
    "moments": {"gf2r", "codes", "checks", "oracles"},
    "checks": {"gf2r", "codes", "moments"},
    "oracles": {"gf2r", "codes", "checks"},
    "verify": {"gf2r", "kloosterman", "checks", "codes", "moments"},
    "moments_cmd": {"kloosterman", "codes", "moments"},
    "weights_cmd": {"codes"},
    "usage": set(),
}

# the modules that run one command, or --help: none may import the CLI back
COMMAND_MODULES = ["moments_cmd", "weights_cmd", "verify", "usage"]

# the modules that hold or read the weight counts and the dual weights
WEIGHT_SIDE = ["codes", "moments", "checks", "oracles"]


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


def _unused_permissions(sources: dict[str, str]) -> list[str]:
    """One line per module of ``sources`` that ``MAY_IMPORT`` lets import a module it does not."""
    return [
        f"{module} may import {source} but does not"
        for module, text in sources.items()
        for source in sorted(MAY_IMPORT[module] - set(_package_imports(ast.parse(text))))
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


def test_every_import_permission_is_used():
    assert _unused_permissions(_sources()) == []


def test_an_unused_import_permission_is_reported(monkeypatch):
    monkeypatch.setitem(MAY_IMPORT, "oracles", MAY_IMPORT["oracles"] | {"moments"})
    assert _unused_permissions(_sources()) == ["oracles may import moments but does not"]


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
    # verify would compile the oracles, and the layers a command module
    oracles = _with_import(sources, "checks", "from .oracles import dual_codeword")
    assert _violations(oracles) == ["checks imports oracles"]
    command = _with_import(sources, "checks", "from .verify import ROWS")
    assert _violations(command) == ["checks imports verify"]
    moments = _with_import(sources, "oracles", "from . import moments")
    assert _violations(moments) == ["oracles imports moments"]


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


def _with_line(sources, module, function, line):
    # the line becomes the first statement of the body of function in module
    text = sources[module]
    (anchor,) = re.findall(rf"^def {function}\(.*\n", text, flags=re.M)
    return {**sources, module: text.replace(anchor, anchor + f"    {line}\n")}


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
    mutant = _with_line(sources, "kloosterman", "kloosterman_table", f"phi = {read}")
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
    mutant = _with_line(sources, "kloosterman", "kloosterman_table", f"values = {read}")
    assert _k_table_violations(mutant) == [f"kloosterman_table reads gf2r.{name}"]


# the package names the oracles may read, per module they import: never a stage builder
ORACLES_MAY_READ = {
    "gf2r": {"FieldContext", "_check_int"},
    "codes": {"_check_code", "code_shape", "code_length"},
    "checks": {"dual_weight_fraction"},
}


def _oracle_violations(sources: dict[str, str]) -> list[str]:
    return sorted(
        {
            f"oracles reads {source}.{name}"
            for source, allowed in ORACLES_MAY_READ.items()
            for name in _reads(sources["oracles"], source)
            if name not in allowed
        }
    )


def _planted(sources, module, function, source, name, form):
    """``sources`` with ``source``.``name`` read in ``form`` as the first statement of ``function``."""
    imported, read = {
        "by name": (f"from .{source} import {name}", name),
        "aliased": (f"from .{source} import {name} as stage", "stage"),
        "module attribute": (f"from . import {source}", f"{source}.{name}"),
    }[form]
    return _with_line(_with_import(sources, module, imported), module, function, f"_stage = {read}")


FORMS = ["by name", "aliased", "module attribute"]


def test_oracles_read_no_stage_builder():
    assert _oracle_violations(_sources()) == []


# one oracle of each layer
@pytest.mark.parametrize("function", ["kloosterman_sum", "dual_codeword", "stirling2_explicit"])
@pytest.mark.parametrize(
    "source, name",
    [
        ("codes", "_bit_rows"),
        ("gf2r", "_trace_map"),
        ("gf2r", "_walsh_hadamard"),
        ("gf2r", "_unpack_slots"),
        ("checks", "_generator_rows"),
    ],
)
@pytest.mark.parametrize("form", FORMS)
def test_oracle_rule_rejects_a_read_of_a_stage_builder(function, source, name, form):
    mutant = _planted(_sources(), "oracles", function, source, name, form)
    assert _oracle_violations(mutant) == [f"oracles reads {source}.{name}"]


# (module, function) -> the package modules none of whose names the function may read
FIELD_SIDE = {
    ("checks", "quadratic_char_sums"): ("codes", "moments"),
    ("oracles", "kloosterman_sum"): ("codes", "checks"),
    ("oracles", "split_quadratic_char_sum"): ("codes", "checks"),
    ("oracles", "irreducible_quadratic_char_sum"): ("codes", "checks"),
    ("oracles", "stirling2_explicit"): ("codes", "checks"),
}


def _field_side_violations(sources: dict[str, str]) -> list[str]:
    return [
        f"{function} reads {source}.{name}"
        for (module, function), forbidden in FIELD_SIDE.items()
        for source in forbidden
        for name in _reads(sources[module], source, function)
    ]


def test_field_side_functions_read_no_weight_side_name():
    assert _field_side_violations(_sources()) == []


# a name each module may read elsewhere: codes' block is the row's D, and the oracles' module
# rule lets them read _check_code and dual_weight_fraction
@pytest.mark.parametrize(
    "module, function, source, name",
    [
        ("checks", "quadratic_char_sums", "codes", "_base_entries"),
        ("checks", "quadratic_char_sums", "moments", "_check_code"),
    ]
    + [
        ("oracles", function, source, name)
        for (module, function) in FIELD_SIDE
        if module == "oracles"
        for source, name in (("codes", "_check_code"), ("checks", "dual_weight_fraction"))
    ],
)
@pytest.mark.parametrize("form", FORMS)
def test_field_side_rule_rejects_a_planted_read(module, function, source, name, form):
    mutant = _planted(_sources(), module, function, source, name, form)
    assert _field_side_violations(mutant) == [f"{function} reads {source}.{name}"]
