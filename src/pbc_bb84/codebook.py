"""Commitment codebook: the first x balanced 2N-bit sequences in
lexicographic order, with combinadic rank/unrank.

``rank`` and ``unrank`` take tuples of 0/1 ints, most-significant-first
for lexicographic comparison; the codeword test, payloads and packing take
``(n, L)`` arrays of bits, one sequence a row.  Ranks are exact Python
integers, so codebooks beyond the float range (N > 30) still work.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .bb84_frames import row_counts

#: Payload carries the raw 2N outcome bits.
MODE_RAW = "raw"
#: Payload carries the codeword rank (ceil(log2 x) bits, MSB first) plus
#: one basis-identifying bit.
MODE_COMPRESSED = "compressed"

PAYLOAD_MODES = (MODE_RAW, MODE_COMPRESSED)

Bits = tuple[int, ...]


def codebook_capacity(n_half: int) -> int:
    """Number of balanced 2N-bit sequences, C(2N, N), exactly."""
    if n_half < 1:
        raise ValueError("n_half must be >= 1")
    return math.comb(2 * n_half, n_half)


def _check_balanced(seq: Bits) -> int:
    if len(seq) % 2 != 0:
        raise ValueError(f"sequence length {len(seq)} is odd")
    n_half = len(seq) // 2
    if n_half == 0:
        raise ValueError("empty sequence")
    ones = sum(seq)
    if ones != n_half:
        raise ValueError(f"sequence is not balanced: {ones} ones in {len(seq)} bits")
    return n_half


def rank(seq: Bits) -> int:
    """0-based position of a balanced sequence in lexicographic order.

    Combinadic: at each position, a 1 bit skips every balanced completion
    that would have started with 0 there.
    """
    n_half = _check_balanced(seq)
    zeros = ones = n_half
    r = 0
    for bit in seq:
        if bit:
            # completions starting with 0: one zero spent, ones unchanged
            r += math.comb(zeros - 1 + ones, ones)
            ones -= 1
        else:
            zeros -= 1
    return r


def unrank(n_half: int, index: int) -> Bits:
    """Balanced 2N-bit sequence at lexicographic position ``index``."""
    cap = codebook_capacity(n_half)
    if not 0 <= index < cap:
        raise ValueError(f"index {index} outside [0, {cap})")
    zeros = ones = n_half
    out = []
    for _ in range(2 * n_half):
        if zeros == 0:
            below = 0
        else:
            below = math.comb(zeros - 1 + ones, ones)
        if zeros > 0 and index < below:
            out.append(0)
            zeros -= 1
        else:
            index -= below
            out.append(1)
            ones -= 1
    return tuple(out)


@dataclass(frozen=True)
class Codebook:
    """The first ``x`` balanced 2N-bit sequences under lexicographic order."""

    n_half: int
    x: int

    def __post_init__(self):
        if self.n_half < 1:
            raise ValueError("n_half must be >= 1")
        cap = codebook_capacity(self.n_half)
        if not 0 <= self.x <= cap:
            raise ValueError(f"x={self.x} outside [0, C(2N,N)={cap}]")

    @property
    def length(self) -> int:
        return 2 * self.n_half

    def capacity(self) -> int:
        return codebook_capacity(self.n_half)

    @cached_property
    def cutoff(self) -> np.ndarray | None:
        """``unrank(N, x)``, unranked once; None if every balanced row is a codeword."""
        return None if self.x == self.capacity() else np.array(unrank(self.n_half, self.x))

    def rank_bits(self) -> int:
        """Bits needed to address a codeword in compressed payloads."""
        return max(0, (self.x - 1).bit_length()) if self.x > 1 else 0


def is_codeword(cb: Codebook, rows: np.ndarray) -> np.ndarray:
    """Codeword mask over an ``(n, 2N)`` array of bits: a row is a codeword
    iff it is balanced and its rank is below the cutoff x.

    A balanced row is a codeword iff it sorts before ``cb.cutoff``, the
    first balanced sequence outside the codebook: at the first position
    where the two differ, the row holds the 0.
    """
    rows = np.asarray(rows)
    if rows.shape[-1] != cb.length:
        raise ValueError(f"expected {cb.length} bits, got {rows.shape[-1]}")
    balanced = row_counts(rows != 0) == cb.n_half
    bound = cb.cutoff
    if bound is None:
        return balanced
    first = np.argmax(rows != bound, axis=1)
    return balanced & (rows[np.arange(len(rows)), first] < bound[first])


def payload_bits(
    cb: Codebook, rows: np.ndarray, commit_bit: int, mode: str = MODE_RAW
) -> np.ndarray:
    """Commit payloads of ``(n, 2N)`` codeword rows, one row each; the rows
    are not checked against the codebook.

    Raw mode: the codeword itself.  Compressed mode: the codeword's rank,
    MSB first in ``cb.rank_bits()`` bits, followed by one basis bit.
    """
    if mode not in PAYLOAD_MODES:
        raise ValueError(f"unknown payload mode {mode!r}")
    if commit_bit not in (0, 1):
        raise ValueError("commit_bit must be 0 or 1")
    rows = np.asarray(rows)
    if mode == MODE_RAW:
        return rows
    # exact ranks as Python ints, shifted bit by bit on an object array
    ranks = np.array([rank(row) for row in rows.tolist()], dtype=object)
    bits = ranks[:, None] >> np.arange(cb.rank_bits() - 1, -1, -1) & 1
    return np.column_stack((bits.astype(np.int64), np.full(len(rows), commit_bit)))


def payload_length(cb: Codebook, mode: str = MODE_RAW) -> int:
    """Payload size in bits for this codebook and mode."""
    if mode not in PAYLOAD_MODES:
        raise ValueError(f"unknown payload mode {mode!r}")
    if mode == MODE_RAW:
        return cb.length
    return cb.rank_bits() + 1


def decode_payload(cb: Codebook, payloads: np.ndarray, mode: str = MODE_RAW) -> np.ndarray:
    """Codewords of ``(n, L)`` payloads, the inverse of :func:`payload_bits`.

    In compressed mode the basis bit is each payload's last column.
    """
    payloads = np.asarray(payloads)
    if payloads.shape[1] != payload_length(cb, mode):
        raise ValueError("payload has the wrong length")
    if mode == MODE_RAW:
        return payloads
    width = cb.rank_bits()
    ranks = (payloads[:, :width].astype(object) << np.arange(width - 1, -1, -1)).sum(axis=1)
    if len(ranks) and ranks.max() >= cb.x:
        raise ValueError(f"decoded rank {ranks.max()} outside codebook (x={cb.x})")
    codewords = [unrank(cb.n_half, r) for r in ranks.tolist()]
    return np.array(codewords, np.int64).reshape(-1, cb.length)


def pack_bits(rows: np.ndarray) -> np.ndarray:
    """Serialize each row of an ``(n, L)`` bit array as a row of an ``(n, 4
    + ceil(L/8))`` uint8 array: 4-byte little-endian length in bits, then
    packed bytes with bit i stored at byte i//8, LSB-first within a byte."""
    rows = np.asarray(rows)
    prefix = np.array([rows.shape[1]], "<u4").view(np.uint8)
    packed = np.packbits(rows, axis=1, bitorder="little")
    return np.concatenate((np.broadcast_to(prefix, (len(rows), 4)), packed), axis=1)
