"""Exact best cheating against ``bob_verify`` on small frames.

Alice commits bit 0 honestly: the frame is a commitment candidate, her 2N
rectilinear outcomes form a codeword (the payload), and Bob's same-basis
counts reach N_tol on both sides, as in ``run_session``.  To unveil bit 1
instead she may disclose any basis labelling of the 4N positions, with the
same payload.  She knows her own bases and outcomes and, as
``commit_masks`` assumes, Bob's bases.  Bob's bit is known to her only
where her basis matches his; elsewhere it is a fair coin to her.  Her honest
unveiling is always accepted on a noiseless channel, so
P(accept0) + P(accept1) = 1 + her best chance for bit 1, the sum that
acceptance criterion 10 holds to 1 + eps_b.  Swapping the two bases turns
a commitment to 1 into this case, so bit 0 covers both.

``best_unveiling`` scores every labelling of one frame by running
``bob_verify`` on every completion of the bits Alice does not know, all in
one call; it is the reference.  ``best_chances`` computes the same maximum
for every frame with given Alice bases at once, and ``cheat_advantage``
averages it over all committed frames, which is exact because bases, bits
and coins are uniform.

``PYTHONPATH=src python tests/cheat_oracle.py`` prints ``cheat_advantage``
for N = 1 and N = 2 beside both eps_b variants.
"""

import itertools
import math

import numpy as np

from codebook_reference import is_codeword
from pbc_bb84 import math_core as mc
from pbc_bb84.codebook import Codebook
from pbc_bb84.commitment_protocol import bob_verify


def best_unveiling(row, payload, claimed_bit, n_tol, e_tol) -> float:
    """Alice's best chance that ``bob_verify`` accepts ``claimed_bit``.

    ``row`` is one frame of records.  Every labelling of the frame (basis
    codes, 0 rectilinear and 1 diagonal) is tried; each is scored by the
    share of completions of Bob's bits unknown to Alice that Bob accepts.
    """
    unknown = np.flatnonzero(row["alice_basis"] != row["bob_basis"])
    completions = np.repeat(row[None], 2 ** len(unknown), axis=0)
    completions["bob_bit"][:, unknown] = list(
        itertools.product((0, 1), repeat=len(unknown))
    )
    labellings = np.array(list(itertools.product((0, 1), repeat=len(row))))
    # one row per (labelling, completion), labellings varying slowest
    codes, _ = bob_verify(
        np.tile(completions, (len(labellings), 1)),
        np.repeat(labellings, len(completions), axis=0),
        np.tile(payload, (len(labellings) * len(completions), 1)),
        n_tol, e_tol, claimed_bit=claimed_bit,
    )
    accepted = np.reshape(codes == claimed_bit, (len(labellings), -1))
    return accepted.sum(axis=1).max() / len(completions)


def best_chances(alice, bob, words, outcomes, cases) -> list:
    """Alice's best chance that ``bob_verify`` accepts bit 1, per frame.

    ``alice`` holds her bases and each row of ``bob`` one string of Bob's
    bases (0 rectilinear, 1 diagonal; Alice has 2N of each).  ``words``
    holds payloads and each row of ``outcomes`` her outcomes at all 4N
    positions (only those in her diagonal positions are read).  For each
    (n_tol, e_tol) in ``cases`` the result is an array ``best[b, w, o]``.
    Only labellings with 2N diagonal positions can pass, since Bob aligns
    the payload on them.
    """
    alice = np.asarray(alice)
    bob = np.asarray(bob)
    size = len(alice)
    half = size // 2
    diagonal = np.array(list(itertools.combinations(range(size), half)))
    rectilinear = np.ones((len(diagonal), size), bool)
    rectilinear[np.arange(len(diagonal))[:, None], diagonal] = False

    # [b, l, j]: Bob checks payload[j] at the j-th diagonal position of
    # labelling l, and Alice knows his bit there or does not.
    checked = bob[:, diagonal] == 1
    known = checked & (alice[diagonal] == 1)
    unknown = (checked & ~known).sum(-1)
    n_diag = checked.sum(-1)
    n_rect = ((bob[:, None, :] == 0) & rectilinear).sum(-1)
    # [w, o, l, j]: the payload bit differs from Alice's outcome there.
    mismatch = (
        np.asarray(words)[:, None, None, :]
        != np.asarray(outcomes)[:, diagonal][None]
    )
    known_errors = np.zeros(
        (len(bob), len(words), len(outcomes), len(diagonal)), np.int8
    )
    for j in range(half):
        known_errors += known[:, None, None, :, j] & mismatch[None, ..., j]
    # cdf[k + 1, u] = P(Binomial(u, 1/2) <= k), and 0 for k = -1
    cdf = np.zeros((size + 2, size + 1))
    for u in range(size + 1):
        cdf[1:, u] = np.cumsum([math.comb(u, k) for k in range(size + 1)]) / 2**u

    result = []
    for n_tol, e_tol in cases:
        slack = np.maximum(math.floor(e_tol * n_tol) - known_errors, -1)
        countable = (n_diag >= n_tol) & (n_rect >= n_tol)
        chance = cdf[slack + 1, unknown[:, None, None, :]]
        result.append((chance * countable[:, None, None, :]).max(-1))
    return result


def cheat_advantage(n_quarter: int, x: int, cases) -> dict:
    """Mean of Alice's best chance for the other bit over committed frames.

    Exact, by enumerating every frame; returns {(n_tol, e_tol): mean}.
    """
    size = 4 * n_quarter
    half = 2 * n_quarter
    cb = Codebook(n_quarter, x)
    words = [w for w in itertools.product((0, 1), repeat=half) if is_codeword(cb, w)]
    bob = np.array(list(itertools.product((0, 1), repeat=size)))
    result = {}
    for n_tol in sorted({n for n, _ in cases}):
        group = [case for case in cases if case[0] == n_tol]
        total = np.zeros(len(group))
        frames = 0
        for alice in itertools.product((0, 1), repeat=size):
            if sum(alice) != half:
                continue
            alice = np.array(alice)
            committed = bob[
                (((alice == 0) & (bob == 0)).sum(1) >= n_tol)
                & (((alice == 1) & (bob == 1)).sum(1) >= n_tol)
            ]
            if not len(committed):
                continue
            outcomes = np.zeros((2**half, size), int)
            outcomes[:, alice == 1] = list(itertools.product((0, 1), repeat=half))
            best = best_chances(alice, committed, words, outcomes, group)
            total += [b.mean(axis=(1, 2)).sum() for b in best]
            frames += len(committed)
        result.update(zip(group, total / frames))
    return result


if __name__ == "__main__":
    e_tols = (0.0, 0.25, 0.34, 0.45)
    for n_quarter, x in ((1, 2), (2, 6)):
        p = mc.commit_probability(n_quarter, x)
        cases = [(n, e) for n in range(2, 2 * n_quarter + 1) for e in e_tols]
        exact = cheat_advantage(n_quarter, x, cases)
        print(f"N={n_quarter} x={x} p={p:.4f}")
        print("N_tol E_tol m  best_cheat  eps_b_literal  eps_b_hoeffding")
        for n_tol, e_tol in cases:
            bp = mc.BindingParams(p, n_tol, e_tol)
            eps = [mc.binding_bound(bp, v) for v in mc.BINDING_VARIANTS]
            print(
                f"{n_tol:5d} {e_tol:5.2f} {math.floor(e_tol * n_tol):2d} "
                f"{exact[(n_tol, e_tol)]:11.4f} {eps[0]:14.4f} {eps[1]:16.4f}"
            )
