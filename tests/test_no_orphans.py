"""Every private helper, and every public name but the oracles, is used in the package.

A private helper is a module-level function, class or constant, or a
method of a module-level class, whose name starts with one underscore.
A public name is an ``__all__`` entry defined in the module that lists
it.  Either counts as used when some ``ast.Name`` or ``ast.Attribute``
outside its own definition names it; a mention in a docstring or
comment, an import or an ``__all__`` string does not.  A public name
only the tests read is a second production path, unless it is one of
``ORACLES``: the paper's definitions and the slow routes kept to check
the fast ones.  So is a public method or property of a public class
that no ``ast.Attribute`` outside its own definition reads: a local
variable of the same name is no use of the method.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "kmoments"

ORACLES = {
    "kloosterman_sum",
    "split_quadratic_char_sum",
    "irreducible_quadratic_char_sum",
    "stirling2_explicit",
    "build_vector",
    "is_codeword",
    "dual_codeword",
    "dual_weight_closed_form",
}


def _definitions(tree: ast.Module):
    """Yield (name, node) of the module-level functions, classes and assigned
    names, and of the methods of those classes."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, defs):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            yield from ((n.name, n) for n in node.body if isinstance(n, defs))
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                yield from ((n.id, node) for n in ast.walk(target) if isinstance(n, ast.Name))


def _public(tree: ast.Module) -> set[str]:
    """The string entries of the module's ``__all__``."""
    return {
        entry.value
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
        for entry in ast.walk(node.value)
        if isinstance(entry, ast.Constant)
    }


def _unread(sources: dict[str, str], wanted) -> list[str]:
    """'module:line name' of each definition, picked by ``wanted(name, public)``
    with ``public`` its module's ``__all__``, that no Name or Attribute outside
    the definition refers to."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    refs = _refs(trees, (ast.Name, ast.Attribute))
    return [
        f"{module}:{node.lineno} {defined}"
        for module, tree in trees.items()
        for defined, node in _definitions(tree)
        if wanted(defined, _public(tree)) and not _read_outside(defined, module, node, refs)
    ]


def _refs(trees: dict[str, ast.Module], kinds) -> list[tuple[str, str, int]]:
    """(name, module, line) of every node of ``kinds``, ast.Name or ast.Attribute."""
    return [
        (node.id if isinstance(node, ast.Name) else node.attr, module, node.lineno)
        for module, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, kinds)
    ]


def _read_outside(defined: str, module: str, node: ast.AST, refs) -> bool:
    own = range(node.lineno, node.end_lineno + 1)
    return any(name == defined and not (where == module and line in own) for name, where, line in refs)


def _unread_methods(sources: dict[str, str]) -> list[str]:
    """'module:line Class.name' of each public method or property of a class in
    its module's ``__all__`` that no ast.Attribute outside the definition reads."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    reads = _refs(trees, ast.Attribute)
    return [
        f"{module}:{node.lineno} {cls.name}.{node.name}"
        for module, tree in trees.items()
        for cls in tree.body
        if isinstance(cls, ast.ClassDef) and cls.name in _public(tree)
        for node in cls.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not node.name.startswith("_")
        and not _read_outside(node.name, module, node, reads)
    ]


def _orphans(sources: dict[str, str]) -> list[str]:
    """'module:line name' of each private helper no Name or Attribute refers to."""
    return _unread(sources, lambda name, public: name.startswith("_") and not name.startswith("__"))


def _test_only_public(sources: dict[str, str]) -> list[str]:
    """'module:line name' of each public name outside ``ORACLES`` that nothing reads."""
    return _unread(sources, lambda name, public: name in public and name not in ORACLES)


def test_every_private_helper_is_referenced():
    sources = {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert _orphans(sources) == []


def test_recursion_and_docstrings_do_not_count_as_use():
    source = (
        "def _orphan(n):\n"
        '    """Calls _orphan."""\n'
        "    return _orphan(n - 1) if n else 0\n"
        "\n"
        "\n"
        "class _Box:\n"
        "    def _unused(self):\n"
        "        return self\n"
        "\n"
        "    def __len__(self):\n"
        "        return 0\n"
        "\n"
        "\n"
        "def _used():\n"
        "    return _Box()\n"
    )
    used_elsewhere = "x = m._used()\n"
    assert _orphans({"m.py": source, "n.py": used_elsewhere}) == [
        "m.py:1 _orphan",
        "m.py:7 _unused",
    ]


def test_private_constants_count():
    # a constant named only in its own assignment is dead, whatever the target form
    source = (
        "_WIDTH = 2\n"
        "_DEAD = _WIDTH + 1\n"
        "_TABLE: dict = {}\n"
        "_LO, _HI = 1, 2\n"
        "__all__ = []\n"
        "\n"
        "\n"
        "def f():\n"
        "    return _LO\n"
    )
    assert _orphans({"m.py": source, "n.py": "import m\nm._TABLE\n"}) == [
        "m.py:2 _DEAD",
        "m.py:4 _HI",
    ]


def test_a_deleted_reader_leaves_its_constant_flagged():
    # cut the one reader of codes._BIT_DIGITS: the constant is left behind as dead code
    sources = {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    reader = "plane.translate(_BIT_DIGITS[k])"
    assert sources["codes.py"].count("_BIT_DIGITS") == 2
    assert sources["codes.py"].count(reader) == 1
    inline = 'plane.translate((b"0" * (1 << k) + b"1" * (1 << k)) * (128 >> k))'
    sources["codes.py"] = sources["codes.py"].replace(reader, inline)
    assert [o.split()[1] for o in _orphans(sources)] == ["_BIT_DIGITS"]


def test_every_public_name_but_the_oracles_is_read():
    sources = {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert _test_only_public(sources) == []
    # an oracle that the package starts to read needs no exemption
    everything = _unread(sources, lambda name, public: name in public)
    assert sorted(entry.split()[1] for entry in everything) == sorted(ORACLES)


def test_a_public_name_only_its_own_body_reads_is_flagged():
    source = (
        "__all__ = ['step', 'sequence', 'kloosterman_sum', 'imported']\n"
        "from n import imported\n"
        "\n"
        "\n"
        "def step(h):\n"
        "    return step(h - 1) if h else 0\n"
        "\n"
        "\n"
        "def sequence(h):\n"
        "    return h\n"
        "\n"
        "\n"
        "def kloosterman_sum(a):\n"
        "    return a\n"
    )
    package = "from .m import sequence\n__all__ = ['sequence']\nx = m.sequence(3)\n"
    assert _test_only_public({"m.py": source, "__init__.py": package}) == ["m.py:5 step"]


def test_every_public_method_is_read():
    sources = {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert _unread_methods(sources) == []


def test_a_method_only_a_local_name_spells_is_flagged():
    source = (
        "__all__ = ['Field']\n"
        "\n"
        "\n"
        "class Field:\n"
        "    def char(self, x):\n"
        "        return self.char(x - 1) if x else 1\n"
        "\n"
        "    def mul(self, x, y):\n"
        "        return x * y\n"
        "\n"
        "    @property\n"
        "    def size(self):\n"
        "        return 2\n"
        "\n"
        "    def __repr__(self):\n"
        "        return 'Field()'\n"
        "\n"
        "\n"
        "class Hidden:\n"
        "    def unread(self):\n"
        "        return 0\n"
    )
    reader = "char = 1\nf = m.Field()\nf.mul(char, f.size)\n"
    assert _unread_methods({"m.py": source, "n.py": reader}) == ["m.py:5 Field.char"]


def test_a_restored_trace_accessor_is_flagged():
    # kloosterman names its local copy of ctx.trace_table ``trace``; that is no read of a method
    sources = {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    anchor = "    def elements(self) -> range:\n"
    assert sources["gf2r.py"].count(anchor) == 1
    accessor = "    def trace(self, x: int) -> int:\n        return self.trace_table[x]\n\n"
    sources["gf2r.py"] = sources["gf2r.py"].replace(anchor, accessor + anchor)
    assert "trace, exp, log = ctx.trace_table" in sources["kloosterman.py"]
    assert [o.split()[1] for o in _unread_methods(sources)] == ["FieldContext.trace"]
