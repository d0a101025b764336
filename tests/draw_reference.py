"""``Generator``-method draws and spawned seeds: the reference for the
decoded channel draws and the batch seeds derived in one array pass.

These are ``bb84_frames.prepare_pulses`` and ``transmit_and_measure`` as
they were written before they read PCG64 words directly: each draw is a
call of ``numpy.random.Generator`` (``integers(0, 2)`` for a fair coin,
``random() < p`` for a trial) on ``default_rng(rng_seed)``, every draw
made over all pulses, and the record fields written one at a time.  The
package's functions, given ``PCG64(rng_seed)``, must return the same bytes
for every input.  ``batch_states`` seeds each RNG batch as
``frame_batches`` did before ``bb84_frames.batch_states``: one
``SeedSequence.spawn(1)`` per batch, and ``PCG64(int(word))`` for each of
the child's two words.
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


def batch_states(seed: int, count: int) -> list[tuple[dict, dict]]:
    """The ``PCG64.state`` pairs of a session's first ``count`` RNG
    batches."""
    seeds = np.random.SeedSequence(seed)
    states = []
    for _ in range(count):
        s_prep, s_chan = seeds.spawn(1)[0].generate_state(2)
        states.append((np.random.PCG64(int(s_prep)).state, np.random.PCG64(int(s_chan)).state))
    return states


def batch_state(seed: int, key: int) -> tuple[dict, dict]:
    """The states of RNG batch ``key`` alone: the child ``spawn`` makes for
    spawn key ``key``, built from the key directly."""
    s_prep, s_chan = np.random.SeedSequence(seed, spawn_key=(key,)).generate_state(2)
    return np.random.PCG64(int(s_prep)).state, np.random.PCG64(int(s_chan)).state
