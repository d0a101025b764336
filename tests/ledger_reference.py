"""Per-commit key ledger: the reference for ``commitment_protocol.try_commit``.

This is the key ledger of ``run_session`` as it was written before it
became two counters: key is dealt frame by frame into two ``KeyBuffer``s,
alternately to P0 and P1 with a toggle that carries across protocol
passes, and each countable eligible frame spends its pad with one
``try_commit`` call, an ``InsufficientKeyError`` counting as an abort.
``KeyBuffer``, ``try_commit`` and ``_deal_key`` are the package's code at
that point, verbatim; ``run_ledger`` is ``run_session``'s eligible-frame
loop over given passes.
"""

from __future__ import annotations

import numpy as np

CHANNEL_P0 = "p0"
CHANNEL_P1 = "p1"


class InsufficientKeyError(Exception):
    """Raised when a key buffer cannot cover a requested encryption."""


class KeyBuffer:
    """Ordered pool of one-time-pad key bits with consume-once accounting.

    Consumption is strictly FIFO; a bit index, once spent, is never handed
    out again.  Relays hold read (peek) access so they can decrypt without
    double-spending.
    """

    def __init__(self):
        self._chunks = [np.empty(0, np.int64)]
        self._total = 0
        self._consumed = 0

    @property
    def total(self) -> int:
        return self._total

    @property
    def consumed(self) -> int:
        return self._consumed

    @property
    def available(self) -> int:
        return self._total - self._consumed

    def extend(self, bits) -> None:
        chunk = np.asarray(bits, dtype=np.int64) & 1
        self._chunks.append(chunk)
        self._total += len(chunk)

    def consume(self, length: int) -> int:
        """Spend the next ``length`` unspent bits; returns their offset."""
        if length < 0:
            raise ValueError("length must be non-negative")
        if self.available < length:
            raise InsufficientKeyError(
                f"need {length} key bits, only {self.available} available"
            )
        offset = self._consumed
        self._consumed += length
        return offset

    def peek(self, offsets, length: int) -> np.ndarray:
        """Key bits ``[offset, offset + length)`` for each offset, one row
        each, without consuming them."""
        offsets = np.asarray(offsets, dtype=np.int64)
        if offsets.size and (offsets.min() < 0 or offsets.max() + length > self._total):
            raise ValueError("peek range outside buffer")
        if len(self._chunks) > 1:
            self._chunks = [np.concatenate(self._chunks)]
        return self._chunks[0][offsets[:, None] + np.arange(length)]


def try_commit(
    length: int, buffer_p0: KeyBuffer, buffer_p1: KeyBuffer
) -> tuple[int, int]:
    """Spend ``length`` bits of pad on each channel for one commitment;
    returns the offsets of its pad on P0 and on P1.

    Key is checked on both channels before either buffer is touched, so a
    failed attempt never half-consumes pad.
    """
    if buffer_p0.available < length or buffer_p1.available < length:
        raise InsufficientKeyError(
            f"commit needs {length} bits on each channel "
            f"(available: {buffer_p0.available}/{buffer_p1.available})"
        )
    return buffer_p0.consume(length), buffer_p1.consume(length)


def _deal_key(bits: np.ndarray, buffers: dict, toggle: int) -> int:
    """Hand key bits out alternately to P0 and P1, the first to the channel
    ``toggle`` names; returns the toggle for the next bit."""
    order = (CHANNEL_P0, CHANNEL_P1) if toggle == 0 else (CHANNEL_P1, CHANNEL_P0)
    buffers[order[0]].extend(bits[0::2])
    buffers[order[1]].extend(bits[1::2])
    return toggle ^ (len(bits) & 1)


def run_ledger(passes, length: int, commit_all: bool):
    """The per-commit ledger over protocol passes.

    Each pass is ``(outcome, credited, eligible, countable)``: an ``(n, w)``
    array of outcome bits, the mask of the key bits each of its frames
    credits, and the per-frame eligible and countable masks.  Returns the
    commitments as ``(frame_id, P0 key offset, P1 key offset)`` records, the
    threshold-skip and insufficient-key-abort counts, and the two buffers.
    """
    buffers = {CHANNEL_P0: KeyBuffer(), CHANNEL_P1: KeyBuffer()}
    toggle = 0
    records = []
    skipped = aborts = 0
    first_id = 0
    for outcome, credited, eligible, countable in passes:
        key = outcome[credited]
        # key[key_start[i]:key_start[i + 1]] are the bits frame i credits
        key_start = [0, *np.cumsum(np.count_nonzero(credited, axis=1)).tolist()]
        start = 0  # the first frame whose key is not dealt yet
        for i in np.flatnonzero(eligible).tolist():
            if records and not commit_all:
                break
            if not countable[i]:
                skipped += 1
                continue
            toggle = _deal_key(key[key_start[start] : key_start[i]], buffers, toggle)
            start = i
            try:
                offsets = try_commit(length, buffers[CHANNEL_P0], buffers[CHANNEL_P1])
            except InsufficientKeyError:
                aborts += 1
                continue
            records.append((first_id + i, *offsets))
            # a committing frame distills nothing
            start = i + 1
        toggle = _deal_key(key[key_start[start] :], buffers, toggle)
        first_id += len(outcome)
    return records, skipped, aborts, buffers
