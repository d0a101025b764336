"""Bit-level BB84 physical layer.

Bob prepares polarized pulses, a loss+flip channel stands in for the
optics, Alice measures in random bases, and detected signals are grouped
into 4N-signal frames.  All randomness flows from explicit seeds through
numpy's PCG64, so identical seeds give bit-identical streams.  The draws
are read from PCG64's 64-bit words as ``Generator`` reads them: a fair
coin, ``Generator.integers(0, 2)``, is bit 31 of the next 32-bit half of
a word, low half first, and the high half left over by an odd count goes
to the next coin; a Bernoulli trial, ``Generator.random() < p``, takes one
whole word.  A trial whose outcome is known (detection at p = 1, a flip at
p = 0) skips its word with ``PCG64.advance``.  A signal is one ``RECORD``
row from Bob's preparation to his verdict: a pulse is a row with Bob's
half filled in, a detected signal the same row with Alice's half added.
Loss is an i.i.d. erasure, independent of every field of a record, so
the detected records have the same distribution at every detection
probability; it changes only which stream positions they come from.
Frames are an ``(n_frames, 4N)`` view of the records, classification and
sifting per-frame masks.  A basis is an int code: 0 is rectilinear, 1
diagonal.
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


def _halves(words: np.ndarray) -> np.ndarray:
    """The 32-bit halves of PCG64 words, low half first, as
    ``Generator.integers`` reads them; bit 31 of a half is one fair coin of
    ``integers(0, 2)``."""
    return words.astype("<u8", copy=False).view("<u4")


def _as_records(words: np.ndarray) -> np.ndarray:
    """Records from their 32-bit images, ``RECORD``'s first field in the
    low byte."""
    return words.astype("<u4", copy=False).view(RECORD)


def prepare_pulses(count: int, rng_seed: int) -> np.ndarray:
    """Bob's pulse train: independent fair coin flips for basis and bit,
    as records whose Alice half is 0.

    The coins are those of ``integers(0, 2, size=count)`` drawn twice, the
    bases then the bits, from ``default_rng(rng_seed)``: ``count`` PCG64
    words, read two coins a word."""
    if count < 1:
        raise ValueError("count must be >= 1")
    coins = _halves(np.random.PCG64(rng_seed).random_raw(count)) >> 31
    return _as_records(coins[:count] << 16 | coins[count:] << 24)


def transmit_and_measure(
    pulses: np.ndarray, detection_prob: float, flip_prob: float, rng_seed: int
) -> np.ndarray:
    """Loss+flip stand-in for the quantum channel, plus Alice's measurement.

    Each pulse survives independently with ``detection_prob``, the chance
    Alice registers it at all; Alice picks a uniform basis; a matched
    basis reproduces Bob's bit except with ``flip_prob`` (the simulated
    QBER), a mismatched basis yields a fair coin.  Undetected pulses are
    simply absent (detection notification is implicit).  Loss is an
    i.i.d. erasure, independent of every record field, so the detected
    records have the same distribution at every ``detection_prob``.  The
    session's configuration checks both probabilities.

    The stream is that of four ``default_rng(rng_seed)`` draws over all n
    pulses: ``random(n) < detection_prob``, Alice's bases by
    ``integers(0, 2)``, ``random(n) < flip_prob``, the coins by
    ``integers(0, 2)``.  The bases and coins take n words between them,
    ceil(n/2) before the flip draw and floor(n/2) after it.  A trial draw
    whose outcome is known, detection at ``detection_prob == 1.0`` or a
    flip at ``flip_prob == 0.0``, skips its n words instead of reading
    them.
    """
    n = len(pulses)
    bits = np.random.PCG64(rng_seed)
    random = np.random.Generator(bits).random
    if detection_prob == 1.0:
        bits.advance(n)
        kept = slice(None)
    else:
        kept = np.flatnonzero(random(n) < detection_prob)
    first = bits.random_raw((n + 1) // 2)
    if flip_prob == 0.0:
        bits.advance(n)
        flips = 0
    else:
        flips = random(n)[kept] < flip_prob
    # Alice's bases, then the coins of her mismatched bases
    halves = _halves(np.concatenate([first, bits.random_raw(n // 2)]))
    alice, coin = halves[:n][kept] >> 31, halves[n:][kept] >> 31
    bob = pulses.view("<u4")[kept]
    outcome = np.where(alice == (bob >> 16 & 1), bob >> 24 ^ flips, coin)
    return _as_records(bob & 0xFFFF0000 | alice | outcome << 8)


def row_counts(mask: np.ndarray) -> np.ndarray:
    """True entries in each row of an ``(n, w)`` bool or 0/1 int8 mask, as
    int16.

    A dot product with ones: numpy reduces axis 1 of a narrow array one
    short row at a time, so at w = 8 ``count_nonzero(axis=1)`` is about four
    times slower.  The int16 sums are exact for w < 2^15, which a frame's
    4N <= 4096 records meet; wider rows are refused."""
    if mask.shape[-1] >= 2**15:
        raise ValueError(f"rows of {mask.shape[-1]} entries overflow int16 counts")
    return mask.view(np.int8) @ np.ones(mask.shape[-1], np.int16)


def classify_frame(frames: np.ndarray, n_quarter: int) -> np.ndarray:
    """Commitment-candidate mask: frames with exactly 2N rectilinear
    measurements."""
    return row_counts(frames["alice_basis"] == 0) == 2 * n_quarter


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
    accounting is rate-level, not code-level).  Ranks and credits are
    int16, exact because a frame holds at most 4N <= 4096 < 2^15 records:
    a rank is half as costly to accumulate as the default int64, and
    comparing it with an int16 credit makes no float64 copy of the ranks.
    """
    rank = np.cumsum(sifted, axis=-1, dtype=np.int16)
    credit = np.floor(rank[..., -1:] * rate).astype(np.int16)
    return sifted & (rank <= credit)
