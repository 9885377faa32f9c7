"""Every private helper of the package is used somewhere in the package.

A private helper is a module-level function or class, or a method of a
module-level class, whose name starts with one underscore.  It counts as
used when some ``ast.Name`` or ``ast.Attribute`` outside its own
definition names it; a mention in a docstring or comment does not.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "kmoments"


def _definitions(tree: ast.Module):
    """Yield the module-level functions and classes and the methods of those classes."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, defs):
            yield node
        if isinstance(node, ast.ClassDef):
            yield from (n for n in node.body if isinstance(n, defs))


def _orphans(sources: dict[str, str]) -> list[str]:
    """'module:line name' of each private helper no Name or Attribute refers to."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    refs = [
        (node.id if isinstance(node, ast.Name) else node.attr, module, node.lineno)
        for module, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    ]
    orphans = []
    for module, tree in trees.items():
        for node in _definitions(tree):
            if not node.name.startswith("_") or node.name.startswith("__"):
                continue
            own = range(node.lineno, node.end_lineno + 1)
            if not any(
                name == node.name and not (where == module and line in own)
                for name, where, line in refs
            ):
                orphans.append(f"{module}:{node.lineno} {node.name}")
    return orphans


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
