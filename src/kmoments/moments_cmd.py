"""The ``moments`` command: MK^h per code by its recursion, beside the brute-force column.

:mod:`kmoments.cli` compiles this module on the first ``moments`` run
only, and runs ``run``, which returns the rows and writes nothing;
``cli.main`` renders them.  This module imports no part of the CLI.
"""

from types import SimpleNamespace

from . import codes as codes_mod
from . import kloosterman as kl
from . import moments as mo

__all__ = ["run"]


def run(args: SimpleNamespace) -> tuple:
    """MK^h for every r, code and h of ``args``; return (payload, header, rows, lines, all matched)."""
    rows = []
    for r, ctx in args.contexts.items():
        table = kl.kloosterman_table(ctx)
        # MK^h depends on r alone: one column, shared by every code
        brute = kl.moment_bruteforce(ctx, args.hmax, table)
        for i in args.code:
            if not codes_mod.code_length(ctx, i):
                continue
            seq = mo.moment_sequence(ctx, i, args.hmax)
            for h in range(args.hmax + 1):
                rows.append(
                    {
                        "r": r,
                        "modulus_hex": f"{ctx.modulus:#x}",
                        "code": i,
                        "h": h,
                        "mk_recursive": seq[h],
                        "mk_bruteforce": brute[h],
                        "match": seq[h] == brute[h],
                    }
                )
    lines = [
        f"r={w['r']} code={w['code']} h={w['h']:>2} mk={w['mk_recursive']} "
        f"brute={w['mk_bruteforce']} [{'ok' if w['match'] else 'MISMATCH'}]"
        for w in rows
    ]
    header = ["r", "modulus", "code", "h", "mk_recursive", "mk_bruteforce", "match"]
    return {"rows": rows}, header, rows, lines, all(w["match"] for w in rows)
