"""Ground truth for the binding bound: Alice's exact best chance of
unveiling the bit she did not commit, under ``bob_verify``.

The attack model and the enumeration are in ``cheat_oracle.py``.  The
enumeration is checked against ``bob_verify`` itself, by trying every
disclosure of every committed frame at N = 1 and of simulated frames at
N = 2.  At N = 2 the exact best cheat falls as N_tol grows while the error
allowance m = floor(E_tol * N_tol) stays fixed, and rises where m steps up:
Bob's allowance grows with N_tol.  Acceptance criterion 5 rests on this.
"""

import itertools
import math

import numpy as np
import pytest

import cheat_oracle as oracle
from codebook_reference import is_codeword
from pbc_bb84 import commitment_protocol as cp
from pbc_bb84.bb84_frames import RECORD, classify_frame
from pbc_bb84.codebook import Codebook

N_TOLS = (2, 3, 4)
N2_CASES = [(n, e) for n in N_TOLS for e in (0.0, 0.25, 0.34)]


def committed_views(n_tol):
    """Every committed N = 1 frame as Alice sees it, once each.

    Views are equally likely; Bob's bit is set to Alice's outcome at every
    position, which ``best_unveiling`` overwrites where she cannot know it.
    """
    cb = Codebook(1, 2)
    for alice in itertools.product((0, 1), repeat=4):
        if sum(alice) != 2:
            continue
        for bob, outcomes in itertools.product(
            itertools.product((0, 1), repeat=4), repeat=2
        ):
            payload = tuple(o for a, o in zip(alice, outcomes) if a == 0)
            n_rr = sum(a == b == 0 for a, b in zip(alice, bob))
            n_dd = sum(a == b == 1 for a, b in zip(alice, bob))
            if is_codeword(cb, payload) and min(n_rr, n_dd) >= n_tol:
                row = np.zeros(4, RECORD)
                row["alice_basis"], row["bob_basis"] = alice, bob
                row["outcome"] = row["bob_bit"] = outcomes
                yield row, payload


@pytest.mark.parametrize("n_tol,e_tol", [(1, 0.0), (2, 0.0), (2, 0.45)])
def test_enumeration_matches_bob_verify_at_n1(n_tol, e_tol):
    views = list(committed_views(n_tol))
    by_bob_verify = np.mean(
        [oracle.best_unveiling(r, p, 1, n_tol, e_tol) for r, p in views]
    )
    exact = oracle.cheat_advantage(1, 2, [(n_tol, e_tol)])[(n_tol, e_tol)]
    assert exact == pytest.approx(by_bob_verify, rel=1e-12)


def test_enumeration_matches_bob_verify_on_simulated_frames():
    config = cp.SessionConfig(n_quarter=2, x=6, seed=4)
    cb = Codebook(2, 6)
    cases = [(2, 0.25), (3, 0.34), (4, 0.0)]

    def committed():
        for frames in cp.frame_batches(config):
            for row in frames[classify_frame(frames, 2)]:
                payload = tuple(row["outcome"][row["alice_basis"] == 0].tolist())
                if is_codeword(cb, payload):
                    yield row, payload

    for row, payload in itertools.islice(committed(), 8):
        fast = oracle.best_chances(
            row["alice_basis"], [row["bob_basis"]], [payload], [row["outcome"]], cases
        )
        for (n_tol, e_tol), best in zip(cases, fast):
            assert best[0, 0, 0] == pytest.approx(
                oracle.best_unveiling(row, payload, 1, n_tol, e_tol),
                rel=1e-12,
            )


def test_best_cheat_falls_at_fixed_allowance_and_rises_where_it_steps():
    exact_n2 = oracle.cheat_advantage(2, 6, N2_CASES)
    for e_tol in (0.0, 0.25, 0.34):
        for n, after in zip(N_TOLS, N_TOLS[1:]):
            if math.floor(e_tol * n) == math.floor(e_tol * after):
                assert exact_n2[(after, e_tol)] < exact_n2[(n, e_tol)]
    # m goes from 0 to 1 between N_tol = 2 and 3 at E_tol = 0.34
    assert exact_n2[(3, 0.34)] > exact_n2[(2, 0.34)]
