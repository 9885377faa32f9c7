"""The ``--help`` text of the ``kmoments`` command.

Only a run that asks for help compiles this module.  ``help_text`` is
given what it prints: :mod:`kmoments.cli` passes its ``SUMMARY`` line
(a literal, since ``python -OO`` drops every docstring) and its
``COMMANDS`` and ``OPTIONS``, where each command and each option is
declared once.
"""

__all__ = ["help_text"]


def help_text(summary: str, commands: dict, options: tuple) -> str:
    """The text ``--help`` writes: the usage line, the ``summary`` line,
    then each command and each option with its help text."""
    lines = [
        f"usage: kmoments {{{','.join(commands)}}} --r R [options]",
        "",
        summary,
        "Every command accepts every option; --jmax shapes only weights,",
        "and --hmax only moments and verify.",
        "",
        "commands:",
        *(f"  {name:<28}{text}" for name, (_, text) in commands.items()),
        "",
        "options:",
        f"  {'-h, --help':<28}show this help and exit",
    ]
    for name, default, kind, text in options:
        spec = f"--{name} " + ("{" + ",".join(kind) + "}" if isinstance(kind, tuple) else name.upper())
        lines.append(f"  {spec:<28}{text}" + ("" if default is None else f" (default {default})"))
    return "\n".join(lines) + "\n"
