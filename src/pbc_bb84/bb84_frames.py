"""Bit-level BB84 physical layer.

Bob prepares polarized pulses, a loss+flip channel stands in for the
optics, Alice measures in random bases, and detected signals are grouped
into 4N-signal frames.  All randomness flows from explicit seeds through
numpy's default generator (PCG64), so identical seeds give bit-identical
streams.  A signal is one ``RECORD`` row from Bob's preparation to his
verdict: a pulse is a row with Bob's half filled in, a detected signal
the same row with Alice's half added.  Frames are an ``(n_frames, 4N)``
view of the records, classification and sifting per-frame masks.  A
basis is an int code: 0 is rectilinear, 1 diagonal.
"""

from __future__ import annotations

import enum

import numpy as np


# read by the benchmark tracer's classify_frame hook (bench/tracing.py)
class FrameClass(enum.Enum):
    COMMITMENT_CANDIDATE = "commitment_candidate"
    NORMAL = "normal"


#: One signal: Alice's measurement (basis, outcome) and Bob's preparation
#: (basis, bit), which selects one of the four polarization states.
#: Sifting and the verifier's counts read Bob's basis; only the verifier
#: and test oracles read his bit.
RECORD = np.dtype([
    ("alice_basis", np.int8), ("outcome", np.int8),
    ("bob_basis", np.int8), ("bob_bit", np.int8),
])


def prepare_pulses(count: int, rng_seed: int) -> np.ndarray:
    """Bob's pulse train: independent fair coin flips for basis and bit,
    as records whose Alice half is 0."""
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
    """Loss+flip stand-in for the quantum channel, plus Alice's measurement.

    Each pulse survives independently with ``detection_prob``, the chance
    Alice registers it at all; Alice picks a uniform basis; a matched
    basis reproduces Bob's bit except with ``flip_prob`` (the simulated
    QBER), a mismatched basis yields a fair coin.  Undetected pulses are
    simply absent (detection notification is implicit).  The session's
    configuration checks both probabilities.
    """
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


def classify_frame(frames: np.ndarray, n_quarter: int) -> np.ndarray:
    """Commitment-candidate mask: frames with exactly 2N rectilinear
    measurements."""
    return np.count_nonzero(frames["alice_basis"] == 0, axis=1) == 2 * n_quarter


def assemble_frames(records: np.ndarray, n_quarter: int) -> np.ndarray:
    """Group detected records into consecutive non-overlapping 4N frames,
    an ``(n_frames, 4N)`` view; a trailing partial group is left out."""
    if n_quarter < 1:
        raise ValueError("n_quarter must be >= 1")
    size = 4 * n_quarter
    n_frames = len(records) // size
    return records[: n_frames * size].reshape(n_frames, size)


def sift_records(frames: np.ndarray) -> np.ndarray:
    """Mask of records whose measurement basis matches Bob's preparation
    basis."""
    return frames["alice_basis"] == frames["bob_basis"]


def distill(sifted: np.ndarray, rate: float) -> np.ndarray:
    """Mask of the key bits credited from each row of a sift mask.

    A row with s sifted records credits its first floor(s * rate) sifted
    outcomes as key values (idealized hashing: the scheme's security
    accounting is rate-level, not code-level).
    """
    rank = np.cumsum(sifted, axis=-1)
    credit = np.floor(rank[..., -1:] * rate)
    return sifted & (rank <= credit)
