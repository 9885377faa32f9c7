"""Only ``codes`` says which codes share a rule.

The four codes differ in two facts, the trace of their inverted entries
and the copies of their block, and ``codes.code_shape`` is the one table
of them.  A test such as ``i in (1, 3)`` anywhere else restates that
table; this guard reads every package module but ``codes`` with ``ast``
and finds each ``in`` or ``not in`` against a literal tuple, list or set
of code indices.
"""

import ast
from pathlib import Path

from kmoments.codes import CODE_INDICES

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "kmoments"


def _is_code_literal(node: ast.expr) -> bool:
    return (
        isinstance(node, (ast.Tuple, ast.List, ast.Set))
        and bool(node.elts)
        and all(
            isinstance(e, ast.Constant) and type(e.value) is int and e.value in CODE_INDICES
            for e in node.elts
        )
    )


def _restatements(text: str) -> list[int]:
    """The line of each membership test in ``text`` against a literal of code indices."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(text))
        if isinstance(node, ast.Compare)
        and any(
            isinstance(op, (ast.In, ast.NotIn)) and _is_code_literal(right)
            for op, right in zip(node.ops, node.comparators)
        )
    ]


def _sources() -> dict[str, str]:
    return {path.stem: path.read_text() for path in PACKAGE.glob("*.py") if path.stem != "codes"}


def test_no_module_but_codes_restates_the_codes():
    found = {module: lines for module, text in _sources().items() if (lines := _restatements(text))}
    assert found == {}


def test_guard_catches_a_restated_pair():
    text = _sources()["cli"] + "\n\ndef _mutant(i):\n    return i in (1, 3)\n"
    assert _restatements(text) == [len(text.splitlines())]
