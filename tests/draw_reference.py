"""``Generator``-method draws: the reference for the decoded channel draws.

These are ``bb84_frames.prepare_pulses`` and ``transmit_and_measure`` as
they were written before they read PCG64 words directly: each draw is a
call of ``numpy.random.Generator`` (``integers(0, 2)`` for a fair coin,
``random() < p`` for a trial) on ``default_rng(rng_seed)``, every draw
made over all pulses, and the record fields written one at a time.  The
package's functions must return the same bytes for every input.
"""

from __future__ import annotations

import numpy as np

from pbc_bb84.bb84_frames import RECORD


def prepare_pulses(count: int, rng_seed: int) -> np.ndarray:
    if count < 1:
        raise ValueError("count must be >= 1")
    rng = np.random.default_rng(rng_seed)
    pulses = np.zeros(count, RECORD)
    pulses["bob_basis"] = rng.integers(0, 2, size=count)
    pulses["bob_bit"] = rng.integers(0, 2, size=count)
    return pulses


def transmit_and_measure(
    pulses: np.ndarray, detection_prob: float, flip_prob: float, rng_seed: int
) -> np.ndarray:
    n = len(pulses)
    rng = np.random.default_rng(rng_seed)
    detected = np.flatnonzero(rng.random(n) < detection_prob)
    alice = rng.integers(0, 2, size=n)[detected]
    flips = (rng.random(n) < flip_prob)[detected]
    coins = rng.integers(0, 2, size=n)[detected]

    records = pulses[detected]
    records["alice_basis"] = alice
    records["outcome"] = np.where(
        alice == records["bob_basis"], records["bob_bit"] ^ flips, coins)
    return records
