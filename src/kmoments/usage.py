"""The ``--help`` text of the ``kmoments`` command.

Only a run that asks for help compiles this module.  The text is read
from :mod:`kmoments.cli`'s ``COMMANDS`` and ``OPTIONS``, where each
command and each option is declared once.
"""

from . import cli

__all__ = ["help_text"]


def help_text() -> str:
    """The text ``--help`` writes: the usage line, the commands and the options."""
    lines = [
        f"usage: kmoments {{{','.join(cli.COMMANDS)}}} --r R [options]",
        "",
        cli.__doc__.splitlines()[0],
        "Every command accepts every option; --jmax shapes only weights,",
        "and --hmax only moments and verify.",
        "",
        "commands:",
        *(f"  {name:<28}{text}" for name, (_, text) in cli.COMMANDS.items()),
        "",
        "options:",
        f"  {'-h, --help':<28}show this help and exit",
    ]
    for name, default, kind, text in cli.OPTIONS:
        spec = f"--{name} " + ("{" + ",".join(kind) + "}" if isinstance(kind, tuple) else name.upper())
        lines.append(f"  {spec:<28}{text}" + ("" if default is None else f" (default {default})"))
    return "\n".join(lines) + "\n"
