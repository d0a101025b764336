"""Bit-level BB84 physical layer.

Bob prepares polarized pulses, a loss+flip channel stands in for the
optics, Alice measures in random bases, and detected signals are grouped
into 4N-signal frames.  All randomness flows from explicit seeds through
numpy's default generator (PCG64), so identical seeds give bit-identical
streams.  Pulses and detected records are numpy structured arrays, frames
an ``(n_frames, 4N)`` view of the records, classification and sifting
per-frame masks.  A basis is an int code: 0 is rectilinear, 1 diagonal.
A ``RECORD`` row is the one frame format from the channel to Bob's
verdict.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np


class FrameClass(enum.Enum):
    COMMITMENT_CANDIDATE = "commitment_candidate"
    NORMAL = "normal"


#: Bob's prepared signals: (basis, bit) selects one of the four
#: polarization states.
PULSE = np.dtype([("basis", np.int8), ("bit", np.int8)])
#: One detected signal: Alice's view (index, basis, outcome) and Bob's
#: (basis, bit), which only the verifier's counts and test oracles read.
RECORD = np.dtype([
    ("index", np.int64), ("alice_basis", np.int8), ("outcome", np.int8),
    ("bob_basis", np.int8), ("bob_bit", np.int8),
])


@dataclass(frozen=True)
class ChannelModel:
    """Loss+flip stand-in for the quantum channel.

    ``detection_prob`` is the chance Alice registers a pulse at all;
    ``flip_prob`` is the chance a same-basis measurement returns the wrong
    bit (the simulated QBER).
    """

    detection_prob: float = 1.0
    flip_prob: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.detection_prob <= 1.0:
            raise ValueError("detection_prob must lie in (0, 1]")
        if not 0.0 <= self.flip_prob < 0.5:
            raise ValueError("flip_prob must lie in [0, 0.5)")


def prepare_pulses(count: int, rng_seed: int) -> np.ndarray:
    """Bob's pulse train: independent fair coin flips for basis and bit."""
    if count < 1:
        raise ValueError("count must be >= 1")
    rng = np.random.default_rng(rng_seed)
    pulses = np.empty(count, PULSE)
    pulses["basis"] = rng.integers(0, 2, size=count)
    pulses["bit"] = rng.integers(0, 2, size=count)
    return pulses


def transmit_and_measure(
    pulses: np.ndarray, channel: ChannelModel, rng_seed: int
) -> np.ndarray:
    """Channel plus Alice's measurement.

    Each pulse survives independently with ``detection_prob``; Alice picks
    a uniform basis; a matched basis reproduces Bob's bit except with
    ``flip_prob``, a mismatched basis yields a fair coin.  Undetected
    pulses are simply absent (detection notification is implicit); a
    record's index is its pulse's position.
    """
    n = len(pulses)
    rng = np.random.default_rng(rng_seed)
    detected = np.flatnonzero(rng.random(n) < channel.detection_prob)
    alice = rng.integers(0, 2, size=n)[detected]
    flips = (rng.random(n) < channel.flip_prob)[detected]
    coins = rng.integers(0, 2, size=n)[detected]

    sent = pulses[detected]
    records = np.empty(len(detected), RECORD)
    records["index"] = detected
    records["alice_basis"] = alice
    records["outcome"] = np.where(alice == sent["basis"], sent["bit"] ^ flips, coins)
    records["bob_basis"] = sent["basis"]
    records["bob_bit"] = sent["bit"]
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


def export_stream(
    records: np.ndarray, frames: np.ndarray, credited_bits: int, include_records: bool = True
) -> dict:
    """Structured JSON document for one preparation-phase run."""
    classes = [FrameClass.NORMAL.value, FrameClass.COMMITMENT_CANDIDATE.value]
    bases = ("rect", "diag")
    candidate = classify_frame(frames, frames.shape[1] // 4)
    doc = {
        "record_count": len(records),
        "frames": [
            {"classification": classes[c], "indices": indices}
            for c, indices in zip(candidate.tolist(), frames["index"].tolist())
        ],
        "key_credit": credited_bits,
    }
    if include_records:
        doc["records"] = [
            {"index": i, "alice_basis": bases[a], "outcome": o}
            for i, a, o, _, _ in records.tolist()
        ]
    return doc
