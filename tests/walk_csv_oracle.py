"""Row-by-row oracle for the walk CSV.

This is the formatter the CLI walk used before it formatted whole columns:
one np.real / np.imag per coordinate, one np.trace and one np.linalg.norm
per matrix, and one float-to-text conversion per value.  cli._cmd_walk must
write exactly these bytes for the same walk_batch history.
"""

from __future__ import annotations

import numpy as np


def _g(x) -> str:
    return f"{float(x):.17g}"


def frobenius(a) -> float:
    """Frobenius norm of a matrix whose entries may pass 1e150, finite
    whenever it is representable: where the sum of squares overflows, the
    norm is taken after dividing by the largest entry."""
    with np.errstate(over="ignore"):
        plain = np.linalg.norm(a)
    top = np.max(np.abs(a))
    return plain if np.isfinite(plain) else top * np.linalg.norm(a / top)


def walk_csv_lines(history, q: int, d: int) -> list:
    """The column header and the rows, replicate by replicate and step by
    step, for the states S_0, ..., S_n (each (replicates, q, q)) of
    walk_batch's paths."""
    pairs = [(i, j) for i in range(q) for j in range(i, q)]
    if d == 1:
        coord_cols = [f"x_{i + 1}{j + 1}" for i, j in pairs]
    else:
        coord_cols = []
        for i, j in pairs:
            coord_cols += [f"x_{i + 1}{j + 1}_re", f"x_{i + 1}{j + 1}_im"]
    # below 1e150 no square overflows, so the norm needs no scaled fallback
    wide = [np.max(np.abs(states)) >= 1e150 for states in history]
    rows = []
    for rep in range(len(history[0])):
        for step, states in enumerate(history):
            a = states[rep]
            vals = []
            for i, j in pairs:
                vals.append(_g(np.real(a[i, j])))
                if d == 2:
                    vals.append(_g(np.imag(a[i, j])))
            norm = frobenius(a) if wide[step] else np.linalg.norm(a)
            vals += [_g(np.real(np.trace(a))), _g(norm)]
            rows.append(f"{rep},{step}," + ",".join(vals))
    return ["replicate,k," + ",".join(coord_cols) + ",tr,norm", *rows]
