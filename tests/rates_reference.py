"""Scalar ``rates`` writer: the reference for the array pass in ``cli``.

This is ``cmd_rates`` as it was written before the sweep became one numpy
pass: a Python loop over the (q_tol, p) grid, one ``csv.writer`` row per
cell, with r' computed per cell by the scalar formula that
``math_core.redundant_key_rate`` held, in the same order of operations.
"""

from __future__ import annotations

import csv
import math

from pbc_bb84.math_core import final_key_rate


def redundant_key_rate(q_tol: float, p: float, n_quarter: int) -> float:
    """r' = r - p + p*log2(p)/(2N); the p -> 0 limit returns r itself."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    if n_quarter < 1:
        raise ValueError("n_quarter must be >= 1")
    r = final_key_rate(q_tol)
    if p == 0.0:
        return r
    return r - p + p * math.log2(p) / (2.0 * n_quarter)


def write_rates(stream, q_grid, p_grid, n_quarter: int) -> None:
    """Write the ``rates`` CSV of a (q_tol, p) grid, one row at a time."""
    writer = csv.writer(stream)
    writer.writerow(["q_tol", "p", "r", "r_prime"])
    for q in q_grid:
        r = final_key_rate(q)
        for p in p_grid:
            r_prime = redundant_key_rate(q, p, n_quarter)
            writer.writerow([f"{q:.10g}", f"{p:.10g}", f"{r:.12g}", f"{r_prime:.12g}"])
