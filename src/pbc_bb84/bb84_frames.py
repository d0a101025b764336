"""Bit-level BB84 physical layer.

Bob prepares polarized pulses, a loss+flip channel stands in for the
optics, Alice measures in random bases, and detected signals are grouped
into 4N-signal frames.  All randomness flows from explicit seeds through
numpy's PCG64, so identical seeds give bit-identical streams.  RNG batch k
of a session seeded s draws from two PCG64s seeded with the two words of
``SeedSequence(s)``'s k-th spawned child, ``generate_state(2)``;
:func:`batch_states` derives those generators' states for a chunk of
spawn keys in one uint32 array pass, from the root's ``pool``, by
SeedSequence's hash and PCG64's seeding step, which NumPy's stream policy
(NEP 19) keeps fixed.  The draws are read from PCG64's 64-bit words as
``Generator`` reads them: a fair coin, ``Generator.integers(0, 2)``, is
bit 31 of the next 32-bit half of a word, low half first, and the high
half left over by an odd count goes to the next coin; a Bernoulli trial,
``Generator.random() < p``, takes one whole word.  A trial whose outcome
is known (detection at p = 1, a flip at p = 0) skips its word with
``PCG64.advance``.  A signal is one ``RECORD`` row from Bob's preparation
to his verdict: a pulse is a row with Bob's half filled in, a detected
signal the same row with Alice's half added.  Loss is an i.i.d. erasure,
independent of every field of a record, so the detected records have the
same distribution at every detection probability; it changes only which
stream positions they come from.  Frames are an ``(n_frames, 4N)`` view
of the records, classification and sifting per-frame masks.  A basis is
an int code: 0 is rectilinear, 1 diagonal.
"""

from __future__ import annotations

import enum
import itertools
from typing import Iterator

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


# SeedSequence's hash constants (uint32) and PCG64's 128-bit multiplier
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645

#: Spawn keys whose generators one array pass of :func:`batch_states`
#: derives: a session-lossy benchmark call draws 40 RNG batches.
_SEED_CHUNK = 64


def _hash_consts(init: int, mult: int, count: int) -> np.ndarray:
    """SeedSequence's running hash constant, ``init * mult**i mod 2^32`` for
    i = 0..count, as a uint32 column."""
    consts = [init]
    for _ in range(count):
        consts.append(consts[-1] * mult & 0xFFFFFFFF)
    return np.array(consts, np.uint32)[:, None]


def _hashmix(values: np.ndarray, pre, post) -> np.ndarray:
    """SeedSequence's ``hashmix`` of uint32 ``values`` with the hash
    constant ``pre``, ``post`` being the constant after it.  Operands are
    arrays, whose uint32 products wrap silently."""
    values = (values ^ pre) * post
    return values ^ values >> 16


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    mixed = x * _MIX_L - y * _MIX_R
    return mixed ^ mixed >> 16


def _pcg64_state(words: list[int]) -> dict:
    """The ``PCG64.state`` of a PCG64 seeded with the SeedSequence whose
    ``generate_state(4, uint64)`` is ``words``: ``initstate`` and
    ``initseq`` are words 0-1 and 2-3, high word first, then ``inc =
    initseq << 1 | 1`` and ``state = (inc + initstate) * M + inc`` mod
    2^128, PCG's two seeding steps from state 0."""
    high, low, seq_high, seq_low = words
    inc = ((seq_high << 64 | seq_low) << 1 | 1) & (2**128 - 1)
    state = ((inc + (high << 64 | low)) * _PCG_MULT + inc) & (2**128 - 1)
    return {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
            "has_uint32": 0, "uinteger": 0}


def batch_states(seed: int, first: int = 0) -> Iterator[tuple[dict, dict]]:
    """The ``PCG64.state`` pairs of RNG batches ``first``, ``first + 1``,
    ...: batch k's are those of ``PCG64(int(w))`` for the two words w of
    ``SeedSequence(seed, spawn_key=(k,)).generate_state(2)``, which is
    ``SeedSequence(seed)``'s k-th child by ``spawn``.

    A child's pool is the root's ``pool`` with the spawn key hashed into
    each word; the hash constant has by then run through the root's
    mixing, 16 steps plus 4 for each entropy word past the pool's 4.  Each
    child word seeds a one-word SeedSequence, whose pool is mixed and
    hashed out to 8 words, ``generate_state(4, uint64)``.  All of that is
    one uint32 array pass per chunk of ``_SEED_CHUNK`` spawn keys, rows of
    a ``(4, n)`` pool; the 128-bit PCG64 step runs in Python ints per
    batch taken.  A spawn key from 2^32 on takes two words, so it is
    refused with ``ValueError``; ``commitment_protocol.MAX_PULSES`` keeps a
    session under 2^18 batches.
    """
    root = np.random.SeedSequence(seed).pool[:, None]
    extra = max(0, -(-seed.bit_length() // 32) - 4)
    a = _hash_consts(_INIT_A, _MULT_A, 20 + 4 * extra)
    b = _hash_consts(_INIT_B, _MULT_B, 8)
    spawn = a[16 + 4 * extra : 21 + 4 * extra]
    # a one-word pool: hashmix(word) in row 0, hashmix(0) in rows 1-3 ...
    padding = _hashmix(np.zeros((3, 1), np.uint32), a[1:4], a[2:5])
    # ... then each row s mixes into the others in row order, each use
    # taking the next hash constant; row s's own slot is a placeholder
    # whose result is dropped
    steps = []
    for s in range(4):
        uses = [4 + 3 * s + d - (d > s) if d != s else 0 for d in range(4)]
        steps.append((s, a[uses], a[[i + 1 for i in uses]]))
    for start in itertools.count(first, _SEED_CHUNK):
        if start >= 2**32:
            raise ValueError("spawn keys from 2^32 on take two words")
        keys = np.arange(start, min(start + _SEED_CHUNK, 2**32), dtype=np.uint32)
        child = _mix(root, _hashmix(keys, spawn[:-1], spawn[1:]))
        # each batch's words, prep then channel, one column each
        words = _hashmix(child[:2], b[:2], b[1:3]).T.reshape(-1)
        pool = np.empty((4, len(words)), np.uint32)
        pool[0] = _hashmix(words, a[0], a[1])
        pool[1:] = padding
        for s, pre, post in steps:
            mixed = _mix(pool, _hashmix(pool[s], pre, post))
            mixed[s] = pool[s]
            pool = mixed
        # generate_state(4, uint64) of each word's SeedSequence, a row each
        generated = _hashmix(np.concatenate([pool, pool]), b[:-1], b[1:])
        generated = np.ascontiguousarray(generated.T, "<u4").view("<u8")
        for i in range(0, len(generated), 2):
            yield _pcg64_state(generated[i].tolist()), _pcg64_state(generated[i + 1].tolist())


def _halves(words: np.ndarray) -> np.ndarray:
    """The 32-bit halves of PCG64 words, low half first, as
    ``Generator.integers`` reads them; bit 31 of a half is one fair coin of
    ``integers(0, 2)``."""
    return words.astype("<u8", copy=False).view("<u4")


def _as_records(words: np.ndarray) -> np.ndarray:
    """Records from their 32-bit images, ``RECORD``'s first field in the
    low byte."""
    return words.astype("<u4", copy=False).view(RECORD)


def prepare_pulses(count: int, bits: np.random.PCG64) -> np.ndarray:
    """Bob's pulse train: independent fair coin flips for basis and bit,
    as records whose Alice half is 0.

    The coins are those of ``integers(0, 2, size=count)`` drawn twice, the
    bases then the bits, from ``Generator(bits)``: the next ``count`` words
    of the bit generator, read two coins a word."""
    if count < 1:
        raise ValueError("count must be >= 1")
    coins = _halves(bits.random_raw(count)) >> 31
    return _as_records(coins[:count] << 16 | coins[count:] << 24)


def transmit_and_measure(
    pulses: np.ndarray, detection_prob: float, flip_prob: float, bits: np.random.PCG64
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

    The stream is that of four ``Generator(bits)`` draws over all n
    pulses: ``random(n) < detection_prob``, Alice's bases by
    ``integers(0, 2)``, ``random(n) < flip_prob``, the coins by
    ``integers(0, 2)``.  The bases and coins take n words between them,
    ceil(n/2) before the flip draw and floor(n/2) after it.  A trial draw
    whose outcome is known, detection at ``detection_prob == 1.0`` or a
    flip at ``flip_prob == 0.0``, skips its n words instead of reading
    them, and the flip words of detected pulses alone become the doubles
    of ``random()``, ``(word >> 11) * 2**-53``.
    """
    n = len(pulses)
    random = np.random.Generator(bits).random
    if detection_prob == 1.0:
        bits.advance(n)
        kept = slice(None)
    else:
        kept = np.flatnonzero(random(n) < detection_prob)
    bob = pulses.view("<u4")[kept]
    sent = bob >> 24  # Bob's bits, as a matching basis reads them
    first = bits.random_raw((n + 1) // 2)
    if flip_prob == 0.0:
        bits.advance(n)
    else:
        sent ^= (bits.random_raw(n)[kept] >> 11) * 2.0**-53 < flip_prob
    # Alice's bases, then the coins of her mismatched bases
    halves = _halves(np.concatenate([first, bits.random_raw(n // 2)]))
    alice, coin = halves[:n][kept] >> 31, halves[n:][kept] >> 31
    outcome = np.where(alice == (bob >> 16 & 1), sent, coin)
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


def distill(sifted: np.ndarray, count: np.ndarray, rate: float) -> tuple[np.ndarray, np.ndarray]:
    """Mask of the key bits credited from each row of a sift mask, and the
    rows' credits, given the rows' sifted counts ``count``.

    The rate applies per sifted record: a row with s sifted records credits
    its first floor(s * rate) sifted outcomes as key values (idealized
    hashing: the scheme's security accounting is rate-level, not
    code-level; ``tests/test_closed_form_counts.py`` checks that at rate 1
    a session's key equals its ``sifted_bits``).  Every row is ranked if
    any credits fewer than s, and none otherwise.  Ranks and credits are
    int16, exact because a frame holds at most 4N <= 4096 < 2^15 records:
    a rank is half as costly to accumulate as the default int64, and
    comparing it with an int16 credit makes no float64 copy of the ranks.
    """
    credit = np.floor(count * rate).astype(np.int16)
    if not (credit < count).any():
        return sifted.copy(), credit
    return sifted & (np.cumsum(sifted, axis=-1, dtype=np.int16) <= credit[..., None]), credit
