"""Only ``gf2r._check_int`` refuses an integer argument.

Every other module routes its type and range checks through it, so an
int argument has one refusal with one message shape.  This guard reads
every package module but ``gf2r`` with ``ast`` and finds each
``type(...) is int`` or ``is not int`` test and, in the condition of an
``if`` that raises ``ValueError``, each comparison on a parameter of the
function or on a name that a ``for`` or comprehension target in it binds.
Two functions are exempt, since their messages are CLI refusals:
``codes.code_shape`` (``--code``) and ``cli._parse_r_range`` (``--r``).
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "kmoments"

EXEMPT = {("codes", "code_shape"), ("cli", "_parse_r_range")}


def _is_type_test(node: ast.AST) -> bool:
    # type(x) is int, type(x) is not int
    return (
        isinstance(node, ast.Compare)
        and isinstance(node.left, ast.Call)
        and isinstance(node.left.func, ast.Name)
        and node.left.func.id == "type"
        and any(isinstance(op, (ast.Is, ast.IsNot)) for op in node.ops)
        and any(isinstance(c, ast.Name) and c.id == "int" for c in node.comparators)
    )


def _raises_value_error(statements: list[ast.stmt]) -> bool:
    raised = [
        node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        for statement in statements
        for node in ast.walk(statement)
        if isinstance(node, ast.Raise)
    ]
    return any(isinstance(exc, ast.Name) and exc.id == "ValueError" for exc in raised)


def _checked_names(func: ast.FunctionDef) -> set[str]:
    """Every parameter of ``func``, and every name a ``for`` or comprehension target in it binds."""
    names = {a.arg for a in ast.walk(func.args) if isinstance(a, ast.arg)}
    for node in ast.walk(func):
        if isinstance(node, (ast.For, ast.comprehension)):
            names.update(n.id for n in ast.walk(node.target) if isinstance(n, ast.Name))
    return names


def _range_tests(func: ast.FunctionDef) -> list[int]:
    """The line of each comparison on a checked name of ``func`` that decides a raise ValueError."""
    params = _checked_names(func)
    return [
        node.lineno
        for branch in ast.walk(func)
        if isinstance(branch, ast.If) and _raises_value_error(branch.body)
        for node in ast.walk(branch.test)
        if isinstance(node, ast.Compare)
        and any(isinstance(e, ast.Name) and e.id in params for e in [node.left, *node.comparators])
    ]


def _own_checks(module: str, text: str) -> list[int]:
    """The lines in ``text`` where a function of ``module`` checks an int argument itself."""
    lines = set()
    for func in ast.walk(ast.parse(text)):
        if isinstance(func, ast.FunctionDef) and (module, func.name) not in EXEMPT:
            lines.update(node.lineno for node in ast.walk(func) if _is_type_test(node))
            lines.update(_range_tests(func))
    return sorted(lines)


def _sources() -> dict[str, str]:
    return {path.stem: path.read_text() for path in PACKAGE.glob("*.py") if path.stem != "gf2r"}


def test_only_gf2r_checks_an_int_argument():
    found = {module: lines for module, text in _sources().items() if (lines := _own_checks(module, text))}
    assert found == {}


def test_code_shape_is_found_but_for_its_exemption():
    # read under another module name, codes matches no exemption
    text = _sources()["codes"]
    (line,) = _own_checks("unexempt", text)
    assert "type(i) is not int" in text.splitlines()[line - 1]


_OLD_CHECK_A = '''

def _check_a(ctx: FieldContext, a: int) -> None:
    if type(a) is not int or a not in ctx.nonzero():
        raise ValueError(f"a must be a nonzero field element in 1..{ctx.q - 1}, got {a}")
'''


def test_guard_catches_a_re_added_check_a():
    text = _sources()["kloosterman"] + _OLD_CHECK_A
    assert _own_checks("kloosterman", text) == [len(text.splitlines()) - 1]


def test_guard_catches_a_range_check_without_a_type_test():
    text = _sources()["moments"] + (
        "\n\ndef _mutant(h: int) -> None:\n"
        "    if h < 0:\n"
        '        raise ValueError("moment order must be nonnegative")\n'
    )
    assert _own_checks("moments", text) == [len(text.splitlines()) - 1]


_OLD_IS_CODEWORD_LOOP = """

def _old_is_codeword(ctx: FieldContext, i: int, u) -> bool:
    acc = 0
    for bit, entry in zip(u, _vector(ctx, i)):
        if bit not in (0, 1):
            raise ValueError(f"word entries must be 0 or 1, got {bit!r}")
        if bit:
            acc ^= entry
    return acc == 0
"""


def test_guard_catches_a_range_check_on_a_loop_name():
    # is_codeword once tested each entry of its unannotated word u this way
    text = _sources()["codes"] + _OLD_IS_CODEWORD_LOOP
    assert _own_checks("codes", text) == [len(text.splitlines()) - 4]


def test_parse_r_range_is_found_but_for_its_exemption():
    text = _sources()["cli"]
    (line,) = _own_checks("unexempt", text)
    assert "if not 1 <= r <= MAX_R:" in text.splitlines()[line - 1]
