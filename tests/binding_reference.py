"""Scalar binding bound: the reference for the numpy grid in ``math_core``.

This is ``math_core.binding_bound`` as it was written before its infimum
over δ became one numpy pass: a Python loop over the same ``delta_grid``
points, with the same operations in the same order, calling
``binary_entropy`` at every point.  The scalar tail (p·2^h(p), the
infimum and the error ball, in log domain) is the package's own.
"""

from __future__ import annotations

import math

from pbc_bb84.math_core import (
    BINDING_VARIANTS,
    VARIANT_LITERAL,
    BindingParams,
    _floor_tol,
    _log2_error_ball,
    binary_entropy,
)


def binding_bound(bp: BindingParams, variant: str = VARIANT_LITERAL) -> float:
    """ε_b with the infimum over δ taken by a scalar loop."""
    if variant not in BINDING_VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    if bp.n_tol == 1:
        raise ValueError("n_tol = 1 is singular (division by zero in the exponent)")
    if bp.p_commit == 0.0:
        return 0.0
    lo, hi = bp.e_tol, 0.5
    if not lo < hi:
        raise ValueError("empty grid interval (e_tol must be < 0.5)")
    n = bp.n_tol
    m = _floor_tol(bp.e_tol * n)
    step = (hi - lo) / bp.delta_grid

    best = math.inf
    for i in range(bp.delta_grid):
        d = lo + (i + 0.5) * step
        if variant == VARIANT_LITERAL:
            g = (d * n - m) ** 2 / (1.0 - n)
        else:
            g = -2.0 * (d * n - m) ** 2 / n
        eg = math.exp(g)
        inner = (1.0 - eg) * 2.0 ** (1.0 - (1.0 - binary_entropy(d)) * n) + 2.0 * eg
        if inner < best:
            best = inner

    p = bp.p_commit
    log2_eps = (
        math.log2(p)
        + binary_entropy(p)
        + math.log2(best)
        + _log2_error_ball(n, m)
    )
    return max(0.0, 2.0**log2_eps)
