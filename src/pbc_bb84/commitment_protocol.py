"""Commit / unveil / verify state machines between Alice, Bob and the two
trusted relays P0 and P1.

A session is a deterministic single-threaded loop over protocol passes,
blocks of frames that hold about 2^16 detected records (see
:func:`frame_batches`).  Normal frames distill one-time-pad key for P0 and
P1, a ledger of two counters (:func:`try_commit`);
commitment frames (whose outcome substring is a codeword) send an
OTP-encrypted payload to each relay, and after the waiting-time schedule
elapses the relays cross-check and Bob verifies against his ground truth.
A frame is one row of ``bb84_frames.RECORD`` records from Bob's
preparation to the verdict, and a basis an int code (0 rectilinear,
committing bit 0; 1 diagonal, committing bit 1); Bob verifies all of a
session's commitments in one call, on their rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Iterator, NamedTuple

import numpy as np

from . import bb84_frames, math_core
from .bb84_frames import (
    RECORD,
    assemble_frames,
    distill,
    prepare_pulses,
    row_counts,
    sift_records,
    transmit_and_measure,
)
from .codebook import (
    Codebook,
    MODE_RAW,
    PAYLOAD_MODES,
    decode_payload,
    is_codeword,
    pack_bits,
    payload_bits,
    payload_length,
)

CHANNEL_P0 = "p0"
CHANNEL_P1 = "p1"
CHANNELS = (CHANNEL_P0, CHANNEL_P1)


class InsufficientKeyError(Exception):
    """Raised when a key buffer cannot cover a requested encryption."""


#: Each verdict code's name in the transcript: code b accepts bit b, and
#: code 2 rejects.
VERDICTS = ("accept0", "accept1", "reject")

#: Columns of the count array of :func:`compute_verification_counts`, and
#: their keys in the transcript.
COUNT_FIELDS = ("n_rect", "n_diag", "n_err_rect", "n_err_diag")

#: Sessions expected to draw more pulses than this are refused: at the
#: simulator's speed they could not finish.
MAX_PULSES = 2**30

#: Largest accepted N.  A session unranks the codebook's cutoff codeword
#: once, at a cost of 2N exact binomials: 0.07 s at N = 1024 and 3.3 s at
#: 4096 (2-vCPU Xeon, Python 3.11).
MAX_N_QUARTER = 1024

#: Detected records a protocol pass gathers, or one RNG batch's pulses if
#: that is more: large enough that per-pass numpy calls are few, small
#: enough that a pass's arrays stay under a few MB.
_PASS_RECORDS = 2**16


class KeyBuffer:
    """Ordered pool of one-time-pad key bits with consume-once accounting.

    Consumption is strictly FIFO; a bit index, once spent, is never handed
    out again.  Relays hold read (peek) access so they can decrypt without
    double-spending.
    """

    def __init__(self):
        self._bits = np.empty(0, np.int8)  # one byte per key bit
        self._consumed = 0

    @property
    def total(self) -> int:
        return len(self._bits)

    @property
    def consumed(self) -> int:
        return self._consumed

    def extend(self, bits) -> None:
        self._bits = np.concatenate((self._bits, (np.asarray(bits) & 1).astype(np.int8)))

    def consume(self, length: int) -> int:
        """Spend the next ``length`` unspent bits; returns their offset."""
        if length < 0:
            raise ValueError("length must be non-negative")
        if self.total - self._consumed < length:
            raise InsufficientKeyError(
                f"need {length} key bits, only {self.total - self._consumed} available"
            )
        offset = self._consumed
        self._consumed += length
        return offset

    def peek(self, offsets, length: int) -> np.ndarray:
        """Key bits ``[offset, offset + length)`` for each offset, one row
        each, without consuming them."""
        offsets = np.asarray(offsets, dtype=np.int64)
        if offsets.size and (offsets.min() < 0 or offsets.max() + length > self.total):
            raise ValueError("peek range outside buffer")
        return self._bits[offsets[:, None] + np.arange(length)]


def otp_decrypt(
    ciphertexts: np.ndarray, buffer: KeyBuffer, key_offsets
) -> np.ndarray:
    """XOR each ``(n, L)`` ciphertext row back with the key at its offset,
    peeked (no further consumption)."""
    return ciphertexts ^ buffer.peek(key_offsets, ciphertexts.shape[1])


def try_commit(
    eligible, countable, credits, dealt: int, made: int, length: int, commit_all: bool
) -> tuple[list[int], int, int]:
    """The key ledger's step for one protocol pass: which of its
    ``eligible`` frames (indices, in order) commit, and how many are
    threshold skips (not ``countable``) and insufficient-key aborts.

    Every non-committing frame's ``credits`` (credited bits) are dealt to P0
    and P1 in turn, so after ``t`` dealt bits P1 holds ``t // 2``, and
    commitment k spends the pad at ``k * length`` on both.  ``dealt`` and
    ``made`` count the bits and commitments before the pass; without
    ``commit_all`` the session's first commitment ends the visit."""
    before = np.cumsum(credits) - credits  # bits credited by earlier frames
    picked, skipped, aborts = [], 0, 0
    for i, ok, prior, bits in zip(eligible.tolist(), *(
            a[eligible].tolist() for a in (countable, before, credits))):
        if made and not commit_all:
            break
        if not ok:
            skipped += 1
        elif (dealt + prior) // 2 >= (made + 1) * length:
            picked.append(i)
            made += 1
            dealt -= bits  # a committing frame's credits are never dealt
        else:
            aborts += 1
    return picked, skipped, aborts


def compute_verification_counts(
    rows: np.ndarray, disclosure: np.ndarray, payloads: np.ndarray
) -> np.ndarray:
    """Same-basis counts and payload-vs-sent-bit error counts per basis.

    ``rows`` holds ``(n, 4N)`` records, ``disclosure`` the ``(n, 4N)``
    basis codes Alice discloses and ``payloads`` ``(n, L)`` bits; the
    result is an ``(n, 4)`` int array with columns :data:`COUNT_FIELDS`.
    For each basis, a row's payload is aligned onto the positions disclosed
    in that basis (record order); errors are counted at positions where Bob
    also prepared in that basis.  A basis whose disclosed position count
    does not match the payload length gets an error count equal to its
    same-basis count (nothing verifiable).
    """
    disclosure, payloads = np.asarray(disclosure), np.asarray(payloads)
    counts = np.empty((len(rows), 4), np.int64)
    for basis in (0, 1):
        disclosed = disclosure == basis
        same = disclosed & (rows["bob_basis"] == basis)
        aligned = row_counts(disclosed) == payloads.shape[1]
        claimed = np.zeros(disclosure.shape, payloads.dtype)
        # an aligned row has exactly L disclosed positions, filled in order
        claimed[disclosed & aligned[:, None]] = payloads[aligned].ravel()
        wrong = (claimed != rows["bob_bit"]) | ~aligned[:, None]
        counts[:, basis] = row_counts(same)
        counts[:, 2 + basis] = row_counts(same & wrong)
    return counts


def bob_verify(
    rows: np.ndarray,
    disclosure: np.ndarray,
    payloads: np.ndarray,
    n_tol: int,
    e_tol: float,
    claimed_bit: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Bob's acceptance decision on each row, after the relays agree.

    Arguments are as for :func:`compute_verification_counts`;
    ``claimed_bit`` is the bit Alice's unveiling names.  Accept0 needs
    n_rect >= n_tol, n_diag >= n_tol, the payload aligned on the
    rectilinear-disclosed positions, and at most e_tol * n_tol errors
    against Bob's sent bits there; Accept1 symmetrically on the diagonal
    side.  Returns the ``(n,)`` verdict codes (see :data:`VERDICTS`) and the
    ``(n, 4)`` counts.
    """
    disclosure, payloads = np.asarray(disclosure), np.asarray(payloads)
    counts = compute_verification_counts(rows, disclosure, payloads)
    aligned = row_counts(disclosure == claimed_bit) == payloads.shape[1]
    passes = (
        aligned
        & (counts[:, 2 + claimed_bit] <= e_tol * n_tol)
        & (counts[:, :2].min(axis=1) >= n_tol)
    )
    return np.where(passes, claimed_bit, 2), counts


#: Python types that carry each annotated JSON type of
#: ``session_config.schema.json``.
_CONFIG_TYPES = {
    "int": (int,),
    "int | None": (int, type(None)),
    "float": (int, float),
    "bool": (bool,),
    "str": (str,),
}


@dataclass(frozen=True)
class SessionConfig:
    """Full configuration of one simulated session."""

    n_quarter: int = 2
    x: int = 6
    commit_bit: int = 0
    frame_budget: int = 200
    seed: int = 0
    detection_prob: float = 1.0
    flip_prob: float = 0.0
    q_tol: float = 0.0
    n_tol: int = 2
    e_tol: float = 0.25
    wait_p0: int = 3
    wait_p1: int = 5
    payload_mode: str = MODE_RAW
    commit_all: bool = False
    tamper_p1_bit: int | None = None

    def __post_init__(self):
        for f in fields(self):
            value, allowed = getattr(self, f.name), _CONFIG_TYPES[f.type]
            # bool subclasses int, but a JSON boolean is not a number
            if not isinstance(value, allowed) or (
                isinstance(value, bool) and bool not in allowed
            ):
                raise ValueError(f"{f.name}: must be of type {f.type}")
        if not 1 <= self.n_quarter <= MAX_N_QUARTER:
            raise ValueError(f"n_quarter: must lie in [1, {MAX_N_QUARTER}]")
        if self.commit_bit not in (0, 1):
            raise ValueError("commit_bit: must be 0 or 1")
        if self.frame_budget < 1:
            raise ValueError("frame_budget: must be >= 1")
        if self.seed < 0:
            raise ValueError("seed: must be >= 0")
        if not 0.0 < self.detection_prob <= 1.0:
            raise ValueError("detection_prob: must lie in (0, 1]")
        if not 0.0 <= self.flip_prob < 0.5:
            raise ValueError("flip_prob: must lie in [0, 0.5)")
        if not 0.0 <= self.q_tol < 0.5:
            raise ValueError("q_tol: must lie in [0, 0.5)")
        if self.n_tol < 1:
            raise ValueError("n_tol: must be >= 1")
        if not 0.0 <= self.e_tol < 0.5:
            raise ValueError("e_tol: must lie in [0, 0.5)")
        if self.wait_p0 < 0 or self.wait_p1 < 0:
            raise ValueError("wait_p0/wait_p1: must be non-negative")
        if self.payload_mode not in PAYLOAD_MODES:
            raise ValueError(f"payload_mode: must be one of {PAYLOAD_MODES}")
        # expected pulses frame_budget * 4N / detection_prob, compared
        # without a division that could overflow a float; checked before
        # C(2N,N), whose cost grows with N
        if self.frame_budget * 4 * self.n_quarter > MAX_PULSES * self.detection_prob:
            raise ValueError(
                "frame_budget * 4N / detection_prob: expected pulse count "
                "above 2^30"
            )
        cap = math.comb(2 * self.n_quarter, self.n_quarter)
        if not 0 <= self.x <= cap:
            raise ValueError(f"x: must lie in [0, C(2N,N)={cap}]")
        if self.tamper_p1_bit is not None:
            length = payload_length(Codebook(self.n_quarter, self.x), self.payload_mode)
            if not 0 <= self.tamper_p1_bit < length:
                raise ValueError(f"tamper_p1_bit: must lie in [0, {length})")

    @classmethod
    def from_dict(cls, doc: dict) -> "SessionConfig":
        types = {f.name: f.type for f in fields(cls)}
        unknown = set(doc) - set(types)
        if unknown:
            raise ValueError(f"unknown config fields: {sorted(unknown)}")
        doc = dict(doc)
        for name, value in doc.items():
            # the schema's integer type admits integral numbers such as 1.0
            if types[name].startswith("int") and isinstance(value, float) and value.is_integer():
                doc[name] = int(value)
        return cls(**doc)

    def to_dict(self) -> dict:
        # every field is a scalar, so nothing needs asdict's deep copy
        return {f.name: getattr(self, f.name) for f in fields(self)}


def frame_batches(
    config: SessionConfig, budget: int | None = None
) -> Iterator[np.ndarray]:
    """Deterministic stream of ``(n_frames, 4N)`` frames, one array per
    protocol pass.

    Pulses are drawn in RNG batches of ``batch_pulses``.  A pass gathers
    the detected records of as many RNG batches as it takes to hold
    ``max(_PASS_RECORDS, batch_pulses)`` records, so the per-pass work is
    paid once per 2^16 records (once per RNG batch at N >= 256), however
    lossy the channel, and a pass holds fewer records than that target
    plus its last RNG batch's, at any budget.  Where the passes end changes
    no output: leftover records carry over between passes so frame
    grouping is identical to a single long run.  With ``budget`` no RNG
    batch is drawn once frame ``budget`` exists, and the stream ends after
    frame ``budget - 1``, cutting the pass that holds it.  Records are
    joined as their ``<u4`` words, since numpy joins a structured dtype
    field by field.
    """
    seeds = np.random.SeedSequence(config.seed)
    size = 4 * config.n_quarter
    batch_pulses = max(4096, size * 64)
    target = max(_PASS_RECORDS, batch_pulses)
    pending = np.empty(0, "<u4")  # records, as words
    first_id = 0
    while budget is None or first_id <= budget:
        drawn, held = [pending], len(pending)
        while held < target and (budget is None or first_id + held // size <= budget):
            s_prep, s_chan = seeds.spawn(1)[0].generate_state(2)
            # spawn once per RNG batch keeps seeds independent and reproducible
            pulses = prepare_pulses(batch_pulses, int(s_prep))
            records = transmit_and_measure(
                pulses, config.detection_prob, config.flip_prob, int(s_chan)
            )
            drawn.append(records.view("<u4"))
            held += len(records)
        pending = np.concatenate(drawn)
        del drawn  # the pass holds its records once, joined
        frames = assemble_frames(pending.view(RECORD), config.n_quarter)
        pending = pending[frames.size :]
        yield frames if budget is None else frames[: budget - first_id]
        first_id += len(frames)


def _rows(frames: np.ndarray, index) -> np.ndarray:
    """Rows ``index`` of ``frames`` as ``<u4`` words, since numpy copies
    structured rows field by field; fields too are gathered by index."""
    return frames.view("<u4")[index].view(RECORD)


def _commit_substrings(rows: np.ndarray, bit: int) -> np.ndarray:
    """The ``(n, 2N)`` outcomes that candidate rows measured in basis
    ``bit``, in record order: basis code b is the basis that commits bit b."""
    picked = np.flatnonzero(rows["alice_basis"] == bit)
    return rows["outcome"].ravel()[picked].reshape(-1, rows.shape[-1] // 2)


def commit_masks(
    frames: np.ndarray, sifted: np.ndarray, config: SessionConfig, cb: Codebook
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-frame masks (candidate, eligible, countable).

    Eligible frames are candidates whose outcomes in the commit basis form
    a codeword.  Countable frames have at least ``n_tol`` sifted records in
    each basis: Bob's preparation bases are public after the detection
    notification, so Alice skips frames whose counts cannot pass.
    """
    # classify_frame and is_codeword: looked up where the benchmark wraps them
    candidate = bb84_frames.classify_frame(frames, config.n_quarter)
    eligible, rows = candidate.copy(), np.flatnonzero(candidate)
    eligible[rows] = is_codeword(cb, _commit_substrings(_rows(frames, rows), config.commit_bit))
    n_rect = row_counts(sifted & (frames["alice_basis"] == 0))
    n_diag = row_counts(sifted) - n_rect
    countable = (n_rect >= config.n_tol) & (n_diag >= config.n_tol)
    return candidate, eligible, countable


class Commitments(NamedTuple):
    """A session's commitments as columns, row k for commitment k, whose
    pad starts at ``k * length`` on both channels."""

    frame_id: np.ndarray  # (n,) int64, increasing
    consistent: np.ndarray  # (n,) bool: the relays' decrypted payloads agree
    code: np.ndarray  # (n,) verdict codes, see VERDICTS
    counts: np.ndarray  # (n, 4), see COUNT_FIELDS; zero where not consistent
    ciphertexts: tuple[np.ndarray, np.ndarray]  # each channel's pack_bits rows
    length: int  # payload bits L


def run_session(config: SessionConfig) -> dict:
    """Run one full session: preparation, commitment, unveiling, verdict.

    Returns the transcript, everything observable about the session, as
    the document ``transcript.schema.json`` describes, but that
    ``commitments`` is a :class:`Commitments` and ``schedule`` holds no
    ``send_times``: ``cli`` writes both from the columns.

    The first commit-eligible frame (candidate, codeword substring, count
    thresholds satisfiable, sufficient pad) carries the commitment; with
    ``commit_all`` every such frame commits.  All other frames distill key.

    Each protocol pass of :func:`frame_batches` is classified, sifted and
    distilled at once, however many RNG batches its records came from, and
    one :func:`try_commit` picks its commitments.  Each channel's
    ``KeyBuffer`` is then extended once, with the even or odd dealt bits,
    and consumed once for every pad.  The payloads are built, encrypted and
    decoded once over the committed rows, and Bob verifies every committed
    frame whose relays agree in one call.
    """
    cb = Codebook(config.n_quarter, config.x)
    rate = max(0.0, math_core.final_key_rate(config.q_tol))

    length = payload_length(cb, config.payload_mode)
    transcript = {
        "config": config.to_dict(),
        "frames_total": 0,
        "candidate_frames": 0,
        "eligible_frames": 0,
        "threshold_skipped": 0,
        "insufficient_key_aborts": 0,
        "sifted_bits": 0,
        "schedule": None,
        "status": "no_commit_frame",
        "verdict": None,
    }
    frame_ids = []  # the committing frames, in order
    committed = []  # each pass's rows of committing frames, as words
    keys, dealt = [], 0  # each pass's dealt key bits, in frame order; their count

    for frames in frame_batches(config, config.frame_budget):
        sifted = sift_records(frames)
        candidate, eligible, countable = commit_masks(frames, sifted, config, cb)
        credited = distill(sifted, rate)
        picked, skipped, aborts = try_commit(
            np.flatnonzero(eligible), countable, row_counts(credited),
            dealt, len(frame_ids), length, config.commit_all,
        )
        # a committing frame's records are neither sifted bits nor key
        sifted[picked] = credited[picked] = False
        keys.append(frames["outcome"].ravel()[np.flatnonzero(credited)])
        dealt += len(keys[-1])
        frame_ids += [transcript["frames_total"] + i for i in picked]
        committed.append(frames.view("<u4")[picked])
        transcript["threshold_skipped"] += skipped
        transcript["insufficient_key_aborts"] += aborts
        transcript["sifted_bits"] += int(np.count_nonzero(sifted))
        transcript["frames_total"] += len(frames)
        transcript["candidate_frames"] += int(np.count_nonzero(candidate))
        transcript["eligible_frames"] += int(np.count_nonzero(eligible))
    del frames, sifted, candidate, eligible, countable, credited, picked

    key = np.concatenate(keys)
    buffers = {CHANNEL_P0: KeyBuffer(), CHANNEL_P1: KeyBuffer()}
    buffers[CHANNEL_P0].extend(key[0::2])
    buffers[CHANNEL_P1].extend(key[1::2])

    # Unveiling: relay cross-check and Bob's verdict, on no rows if none
    rows = np.concatenate(committed).view(RECORD)
    substrings = _commit_substrings(rows, config.commit_bit)
    payloads = payload_bits(cb, substrings, config.commit_bit, config.payload_mode)
    # the session's pads in one consume per channel, commitment k's at k * L
    spend = len(frame_ids) * length
    offsets = [range(b.consume(spend), spend, length) for b in buffers.values()]
    pads = list(zip(buffers.values(), offsets))
    # Alice's ciphertexts, one per relay; a tamper flips a bit of the
    # first commitment's P1 copy
    cts = [payloads ^ buffer.peek(off, length) for buffer, off in pads]
    if config.tamper_p1_bit is not None:
        cts[1][:1, config.tamper_p1_bit] ^= 1
    dec0, dec1 = (otp_decrypt(ct, *pad) for ct, pad in zip(cts, pads))
    # Bob's cross-check of the relays' decrypted payloads rejects a mismatch
    consistent = (dec0 == dec1).all(axis=1)
    code, counts = np.full(len(rows), 2), np.zeros((len(rows), 4), np.int64)
    rows = _rows(rows, np.flatnonzero(consistent))
    code[consistent], counts[consistent] = bob_verify(
        rows, rows["alice_basis"],
        decode_payload(cb, dec0[consistent], config.payload_mode),
        config.n_tol, config.e_tol, config.commit_bit,
    )
    transcript["commitments"] = Commitments(
        np.array(frame_ids, np.int64), consistent, code, counts,
        tuple(pack_bits(ct) for ct in cts), length)

    if frame_ids:
        waits = {CHANNEL_P0: config.wait_p0, CHANNEL_P1: config.wait_p1}
        # every unveiling lands on one epoch, after the last wait ends
        transcript["schedule"] = {
            "waits": waits, "epoch": frame_ids[-1] + max(waits.values())}
        transcript["verdict"] = VERDICTS[code[0]]
        transcript["status"] = "accept" if code[0] == config.commit_bit else "reject"

    transcript["key_ledger"] = {
        ch: {"generated": buffers[ch].total, "consumed": buffers[ch].consumed}
        for ch in CHANNELS
    }
    return transcript


def simulate_cheating_alice(config: SessionConfig, trials: int) -> tuple[float, float]:
    """Empirical unveiling-success frequencies (p0_hat, p1_hat).

    Alice commits via the basis of ``config.commit_bit``.  For the
    committed bit she unveils honestly; for the other bit she discloses
    every basis flipped so the fixed payload reads as the other basis's
    substring.  Each trial is one independent committed frame; both
    targets are evaluated on identical frames (deterministic replay of the
    same run).
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    # a candidate frame has 2N positions in each basis
    if config.x == 0 or config.n_tol > 2 * config.n_quarter:
        raise ValueError("no frame can commit: needs x >= 1 and n_tol <= 2N")
    cb = Codebook(config.n_quarter, config.x)
    succ = [0, 0]
    done = 0
    for frames in frame_batches(config):
        _, eligible, countable = commit_masks(
            frames, sift_records(frames), config, cb
        )
        rows = _rows(frames, np.flatnonzero(eligible & countable)[: trials - done])
        honest = rows["alice_basis"]
        substrings = _commit_substrings(rows, config.commit_bit)
        for target in (0, 1):
            disclosure = honest if target == config.commit_bit else 1 - honest
            codes, _ = bob_verify(
                rows, disclosure, substrings,
                config.n_tol, config.e_tol, target,
            )
            succ[target] += int(np.count_nonzero(codes == target))
        done += len(rows)
        if done >= trials:
            return succ[0] / trials, succ[1] / trials
