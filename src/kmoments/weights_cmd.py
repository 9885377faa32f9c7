"""The ``weights`` command: the weight distribution of each code, full or truncated.

:mod:`kmoments.cli` compiles this module on the first ``weights`` run
only, and runs ``run``, which returns the rows and writes nothing;
``cli.main`` renders them.  The CLI's set-up has already refused a full
distribution past its ``FULL_DISTRIBUTION_MAX_R``, and counts that could
pass the digits Python prints of an int.  This module imports no part
of the CLI.
"""

from types import SimpleNamespace

from . import codes as codes_mod

__all__ = ["run"]


def run(args: SimpleNamespace) -> tuple:
    """The distribution of every r and code of ``args``; return (payload, header, rows, lines,
    ok), ok False if a cardinality or palindrome check that the run prints fails."""
    blocks, lines, ok = [], [], True
    for r, ctx in args.contexts.items():
        for i in args.code:
            n = codes_mod.code_length(ctx, i)
            if not n:
                continue
            _, copies = codes_mod.code_shape(i)
            j_max = n if args.jmax is None else min(args.jmax, n)
            dist = codes_mod.weight_distribution(ctx, i, j_max=j_max)
            blocks.append({"r": r, "code": i, "length": n, "j_max": j_max, "counts": list(dist)})
            lines.append(f"r={r} code={i} length={n}: " + ",".join(str(c) for c in dist))
            if j_max == n:
                total = sum(dist)
                dim = n - codes_mod.gf2_rank(codes_mod.parity_check_rows(ctx, i))
                checks = {"total": total, "expected_total": 1 << dim, "cardinality_ok": total == 1 << dim}
                # 2^(N - rank H) words, which is 2^(N - r) only where H has rank r
                size = "N-r" if dim == n - r else "N-rank"
                extra = f"  total={total} (2^({size}): {checks['cardinality_ok']})"
                if copies == 2:
                    checks["palindrome"] = all(dist[j] == dist[n - j] for j in range(n + 1))
                    extra += f" palindrome={checks['palindrome']}"
                blocks[-1]["checks"] = checks
                ok = ok and checks["cardinality_ok"] and checks.get("palindrome", True)
                lines.append(extra)
    rows = [
        {"r": blk["r"], "code": blk["code"], "j": j, "count": c}
        for blk in blocks
        for j, c in enumerate(blk["counts"])
    ]
    return {"distributions": blocks}, ["r", "code", "j", "count"], rows, lines, ok
