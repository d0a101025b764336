"""Closed-form expressions of the commitment-inside-BB84 scheme.

Everything here is a pure function.  All logarithms are base 2 (Shannon
convention).  Binomial coefficients and the binding-bound sum are handled
in log domain because quantities like C(400, 200) ~ 10^119 cannot be
materialized as floats.
"""

from __future__ import annotations

import math
import sys

import numpy as np

_LN2 = math.log(2.0)

#: Exponent read literally as printed: (d*N - floor(E*N))^2 / (1 - N).
VARIANT_LITERAL = "literal"
#: Hoeffding-style exponent: -2 * (d*N - floor(E*N))^2 / N.
VARIANT_HOEFFDING = "hoeffding"

BINDING_VARIANTS = (VARIANT_LITERAL, VARIANT_HOEFFDING)

#: Largest accepted ``delta_grid``.  One numpy pass over 2^20 points takes
#: about 0.07 s and holds at most 56 MB of 8 MB temporaries; the default
#: 10,000 points take about 0.4 ms.
MAX_DELTA_GRID = 2**20

#: Largest accepted ``n_tol``.  The error-ball sum has floor(E_tol*N_tol)
#: terms: at 2^20 and E_tol = 0.45 it alone takes about 0.5 s.
MAX_N_TOL = 2**20


class BindingParams:
    """Inputs of the binding bound: commit probability, Bob's acceptance
    thresholds and the resolution of the grid search over delta."""

    __slots__ = ("p_commit", "n_tol", "e_tol", "delta_grid")

    def __init__(self, p_commit: float, n_tol: int, e_tol: float, delta_grid: int = 10_000):
        self.p_commit, self.n_tol, self.e_tol = p_commit, n_tol, e_tol
        self.delta_grid = delta_grid
        if not 0.0 <= self.p_commit <= 1.0:
            raise ValueError("p_commit must lie in [0, 1]")
        if not 1 <= self.n_tol <= MAX_N_TOL:
            raise ValueError(f"n_tol must lie in [1, {MAX_N_TOL}]")
        if not 0.0 <= self.e_tol < 0.5:
            raise ValueError("e_tol must lie in [0, 0.5)")
        if not 2 <= self.delta_grid <= MAX_DELTA_GRID:
            raise ValueError(f"delta_grid must lie in [2, {MAX_DELTA_GRID}]")


def binary_entropy(q: float) -> float:
    """Binary Shannon entropy h(q) in bits, with 0*log2(0) = 0."""
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"entropy argument {q} outside [0, 1]")
    if q == 0.0 or q == 1.0:
        return 0.0
    return -q * math.log2(q) - (1.0 - q) * math.log2(1.0 - q)


def log2_binom(n: int, k: int) -> float:
    """log2 of the binomial coefficient C(n, k) via log-gamma.

    Exact integers are never materialized, so n in the hundreds (where
    C(400, 200) ~ 10^119) is fine.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    if k < 0 or k > n:
        raise ValueError(f"k={k} outside [0, {n}]")
    return (math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)) / _LN2


def final_key_rate(q_tol: float) -> float:
    """Final per-signal key rate (1 - h(Q))^2 - 1.2 * h(Q).

    Equals 1 at Q = 0 and crosses zero near Q = 0.066.
    """
    if not 0.0 <= q_tol < 0.5:
        raise ValueError("q_tol must lie in [0, 0.5)")
    hq = binary_entropy(q_tol)
    return (1.0 - hq) ** 2 - 1.2 * hq


def standalone_feasibility(q_tol: float) -> tuple[float, bool]:
    """Whether BB84 alone can fund one-time-pad encryption of half a frame.

    Encrypting the ~2N same-basis outcomes of a 4N frame needs generation
    rate r >= 1; returns ``(1.0, final_key_rate(q_tol) >= 1)``.  Only the
    noiseless boundary q_tol = 0 reaches the requirement, with equality.
    """
    return 1.0, final_key_rate(q_tol) >= 1.0


def commit_probability(n_quarter: int, x: int) -> float:
    """Per-frame probability p = x * C(4N, 2N) / 2^(6N) of a commitment.

    ``x`` is the codebook size and must not exceed C(2N, N); the value is
    computed in log domain so N = 100 works.
    """
    if n_quarter < 1:
        raise ValueError("n_quarter must be >= 1")
    if x < 0:
        raise ValueError("x must be non-negative")
    cap = math.comb(2 * n_quarter, n_quarter)
    if x > cap:
        raise ValueError(f"x={x} exceeds codebook capacity C(2N, N)={cap}")
    if x == 0:
        return 0.0
    log2_p = math.log2(x) + log2_binom(4 * n_quarter, 2 * n_quarter) - 6.0 * n_quarter
    return 2.0**log2_p


def redundant_key_rate(q_tols, ps, n_quarter: int) -> tuple[np.ndarray, np.ndarray]:
    """Rate of key left over after funding the commitment's one-time pad,
    over a (q_tol x p) grid.

    Returns ``(r, r_prime)``: r = ``final_key_rate(q)`` for each q, and the
    (len(q_tols), len(ps)) grid r' = r - p + p*log2(p)/(2N), whose p -> 0
    limit, taken at p = 0, is r itself.  h(q) is computed once per q and
    p*log2(p)/(2N) once per p, both with ``math`` (``np.log2`` may round
    differently); the grid is (r - p) + that term in one numpy broadcast,
    whose float64 - and + round as Python's do.
    """
    if not 1 <= n_quarter <= sys.float_info.max:
        raise ValueError(f"n_quarter must lie in [1, {sys.float_info.max:.3g}]")
    for q in q_tols:
        if not 0.0 <= q < 0.5:
            raise ValueError(f"q_tol value {q} outside [0, 0.5)")
    for p in ps:
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"p value {p} outside [0, 1]")
    # a Python float: numpy would overflow converting an int past 2^63
    two_n = 2.0 * n_quarter
    r = np.fromiter(map(final_key_rate, q_tols), float, len(q_tols))
    # at p = 0 (or -0.0), r - p + 0.0 is r, since r is never -0.0
    term = np.fromiter((p * math.log2(p) / two_n if p else 0.0 for p in ps), float, len(ps))
    return r, (r[:, None] - np.array(ps, float)) + term


def _floor_tol(value: float) -> int:
    # floor with a tiny inset so that e.g. 0.05 * 20 = 1.0000000000000002
    # still floors to the intended integer.
    return math.floor(value + 1e-9)


def _log2_error_ball(n_tol: int, max_errors: int) -> float:
    """log2 of 1 + sum_{k=1}^{m} (2^k - 1) * C(n_tol, k), via a max-shifted sum."""
    if max_errors <= 0:
        return 0.0
    terms = [0.0]  # the leading 1
    for k in range(1, max_errors + 1):
        # log2(2^k - 1) without forming 2^k for large k
        log2_weight = k + math.log2(1.0 - 2.0**-k)
        terms.append(log2_weight + log2_binom(n_tol, k))
    top = max(terms)
    return top + math.log2(math.fsum(2.0 ** (t - top) for t in terms))


def binding_bound(bp: BindingParams, variant: str = VARIANT_LITERAL) -> float:
    """Bound on a cheating committer's combined unveiling success.

    eps_b = p * 2^h(p)
            * inf_{d in (E_tol, 1/2)} { [1 - exp(G)] * 2^(1 - (1-h(d))*N_tol)
                                        + 2 * exp(G) }
            * [1 + sum_{k=1}^{floor(E_tol*N_tol)} (2^k - 1) * C(N_tol, k)]

    with G = (d*N_tol - floor(E_tol*N_tol))^2 / (1 - N_tol) in the literal
    variant and G = -2*(d*N_tol - floor(E_tol*N_tol))^2 / N_tol in the
    hoeffding variant.  The infimum is a uniform grid of ``delta_grid``
    points strictly inside the open interval (half-step insets at both
    ends), at most ``MAX_DELTA_GRID`` of them, evaluated in one numpy pass
    over the whole grid.  An eps_b whose float would overflow, or
    underflow to 0 (first in the grid minimum, at large N_tol), raises
    ValueError.

    For m = floor(E_tol*N_tol) = 0, eps_b is non-increasing in N_tol: the
    error-ball factor is 1, and each grid term x + exp(G)*(2 - x), with
    x = 2^(1 - (1-h(d))*N_tol) <= 2, is non-decreasing in x and in
    exp(G), both of which fall as N_tol grows.  For m > 0 the error-ball
    factor grows with N_tol even at fixed m, so this is not a general
    property; at p = 0.1 and E_tol = 0.05 it was measured to hold within
    each run of fixed m over every N_tol from 2 to 339.  Each increment
    of m brings in the term (2^m - 1) * C(N_tol, m): at those settings
    eps_b rises at N_tol = 20, 40, 60, ... and exceeds 1 (is vacuous)
    from N_tol = 20.  Bob's allowance E_tol*N_tol grows with N_tol, so the
    exact best cheat against ``bob_verify`` can also rise where m steps
    up; at N = 2, x = 6 it exceeds this bound (0.687 against 0.271 at
    N_tol = 2, E_tol = 0.25).  See ``tests/cheat_oracle.py``.
    """
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

    d = lo + (np.arange(bp.delta_grid) + 0.5) * step
    if variant == VARIANT_LITERAL:
        g = (d * n - m) ** 2 / (1.0 - n)
    else:
        g = -2.0 * (d * n - m) ** 2 / n
    eg = np.exp(g)
    h = -d * np.log2(d) - (1.0 - d) * np.log2(1.0 - d)
    best = float(((1.0 - eg) * 2.0 ** (1.0 - (1.0 - h) * n) + 2.0 * eg).min())

    p = bp.p_commit
    log2_eps = (
        math.log2(p)
        + binary_entropy(p)
        + (math.log2(best) if best > 0.0 else -math.inf)
        + _log2_error_ball(n, m)
    )
    # 2^1024 overflows a float, and 2^-1074 is its smallest positive value
    if not -1074.0 <= log2_eps < 1024.0:
        raise ValueError(f"n_tol = {n}: eps_b lies outside the float range")
    return 2.0**log2_eps
