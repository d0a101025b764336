"""Commit / unveil / verify state machines between Alice, Bob and the two
trusted relays P0 and P1.

A session is a deterministic single-threaded loop over the frame stream:
Normal frames distill one-time-pad key into two per-channel buffers,
commitment frames (when their outcome substring is a codeword) send an
OTP-encrypted payload to each relay, and after the waiting-time schedule
elapses the relays cross-check and Bob verifies against his ground truth.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, fields, asdict, replace
from typing import Iterator

import numpy as np

from . import bb84_frames, math_core
from .bb84_frames import (
    RECORD,
    Basis,
    ChannelModel,
    Frame,
    FrameClass,
    MeasurementRecord,
    assemble_frames,
    distill,
    prepare_pulses,
    sift_records,
    transmit_and_measure,
)
from .codebook import (
    Bits,
    Codebook,
    MODE_RAW,
    PAYLOAD_MODES,
    codeword_mask,
    decode_payload,
    is_codeword,
    pack_bits,
    payload_bits,
)

CHANNEL_P0 = "p0"
CHANNEL_P1 = "p1"


class InsufficientKeyError(Exception):
    """Raised when a key buffer cannot cover a requested encryption."""


class MissingPayloadError(Exception):
    """Raised when a relay is asked to compare a payload it never got."""


class Verdict(enum.Enum):
    ACCEPT0 = "accept0"
    ACCEPT1 = "accept1"
    REJECT = "reject"


class CheatStrategy(enum.Enum):
    CLAIM_OTHER_BASIS = "claim_other_basis"


class KeyBuffer:
    """Ordered pool of one-time-pad key bits with consume-once accounting.

    Consumption is strictly FIFO; a bit index, once spent, is never handed
    out again.  Relays hold read (peek) access so they can decrypt without
    double-spending.
    """

    def __init__(self):
        self._bits: list[int] = []
        self._consumed = 0

    @property
    def total(self) -> int:
        return len(self._bits)

    @property
    def consumed(self) -> int:
        return self._consumed

    @property
    def available(self) -> int:
        return len(self._bits) - self._consumed

    def extend(self, bits) -> None:
        self._bits.extend((np.asarray(bits, dtype=np.int64) & 1).tolist())

    def consume(self, length: int) -> tuple[Bits, int]:
        """Next ``length`` unspent bits and their starting offset."""
        if length < 0:
            raise ValueError("length must be non-negative")
        if self.available < length:
            raise InsufficientKeyError(
                f"need {length} key bits, only {self.available} available"
            )
        offset = self._consumed
        out = tuple(self._bits[offset : offset + length])
        self._consumed += length
        return out, offset

    def peek(self, offset: int, length: int) -> Bits:
        """Read already-distributed key material without consuming it."""
        if offset < 0 or offset + length > len(self._bits):
            raise ValueError("peek range outside buffer")
        return tuple(self._bits[offset : offset + length])


@dataclass(frozen=True)
class CommitMessage:
    """OTP-encrypted commit payload for one relay channel."""

    frame_id: int
    channel: str
    payload_ciphertext: Bits
    key_offset: int


@dataclass(frozen=True)
class VerificationCounts:
    n_rect: int
    n_diag: int
    n_err_rect: int
    n_err_diag: int

    def __post_init__(self):
        if self.n_err_rect > self.n_rect or self.n_err_diag > self.n_diag:
            raise ValueError("error counts cannot exceed same-basis counts")


@dataclass(frozen=True)
class UnveilSchedule:
    """Waiting-time bookkeeping: every channel's decryption waits out its
    configured duration and all unveilings land on one global epoch."""

    waits: dict
    send_times: dict
    epoch: int

    def __post_init__(self):
        for (frame_id, channel), t in self.send_times.items():
            if self.epoch < t + self.waits[channel]:
                raise ValueError(
                    f"epoch {self.epoch} precedes completion of "
                    f"frame {frame_id} on {channel}"
                )

    @classmethod
    def build(cls, waits: dict, send_times: dict) -> "UnveilSchedule":
        epoch = max(
            (t + waits[ch] for (_, ch), t in send_times.items()), default=0
        )
        return cls(waits=waits, send_times=send_times, epoch=epoch)


def otp_encrypt(plaintext: Bits, buffer: KeyBuffer) -> tuple[Bits, int]:
    """XOR with the next unspent key bits; consumes them atomically."""
    key, offset = buffer.consume(len(plaintext))
    return tuple(p ^ k for p, k in zip(plaintext, key)), offset


def otp_decrypt(ciphertext: Bits, buffer: KeyBuffer, key_offset: int) -> Bits:
    """XOR back using peeked key material (no further consumption)."""
    key = buffer.peek(key_offset, len(ciphertext))
    return tuple(c ^ k for c, k in zip(ciphertext, key))


def _basis_for_bit(bit: int) -> Basis:
    return Basis.RECTILINEAR if bit == 0 else Basis.DIAGONAL


def try_commit(
    frame: Frame,
    bit: int,
    cb: Codebook,
    buffer_p0: KeyBuffer,
    buffer_p1: KeyBuffer,
    frame_id: int = 0,
    mode: str = MODE_RAW,
) -> tuple[CommitMessage, CommitMessage] | None:
    """Attempt to commit ``bit`` in a commitment-candidate frame.

    The 2N outcomes measured in the bit-selected basis (rectilinear for 0,
    diagonal for 1) must form a codeword; otherwise None is returned and
    the frame falls back to Normal handling.  Key is checked on both
    channels before either buffer is touched, so a failed attempt never
    half-consumes pad.
    """
    if frame.classification is not FrameClass.COMMITMENT_CANDIDATE:
        raise ValueError("frame is not a commitment candidate")
    if bit not in (0, 1):
        raise ValueError("commit bit must be 0 or 1")
    substring = frame.outcomes_in_basis(_basis_for_bit(bit))
    if not is_codeword(cb, substring):
        return None
    payload = payload_bits(cb, substring, bit, mode)
    if buffer_p0.available < len(payload) or buffer_p1.available < len(payload):
        raise InsufficientKeyError(
            f"commit needs {len(payload)} bits on each channel "
            f"(available: {buffer_p0.available}/{buffer_p1.available})"
        )
    ct0, off0 = otp_encrypt(payload, buffer_p0)
    ct1, off1 = otp_encrypt(payload, buffer_p1)
    return (
        CommitMessage(frame_id, CHANNEL_P0, ct0, off0),
        CommitMessage(frame_id, CHANNEL_P1, ct1, off1),
    )


def relay_consistency_check(payload0: Bits | None, payload1: Bits | None) -> bool:
    """Bob's cross-check of the two relays' decrypted payloads."""
    if payload0 is None or payload1 is None:
        raise MissingPayloadError("a relay never received its commit message")
    return tuple(payload0) == tuple(payload1)


def compute_verification_counts(
    records: list[MeasurementRecord],
    disclosure: list[Basis],
    payload_substring: Bits,
) -> VerificationCounts:
    """Same-basis counts and payload-vs-sent-bit error counts per basis.

    For each basis, the payload is aligned onto the positions disclosed in
    that basis (record order); errors are counted at positions where Bob
    also prepared in that basis.  A basis whose disclosed position count
    does not match the payload length gets an error count equal to its
    same-basis count (nothing verifiable).
    """
    counts = {}
    for basis in (Basis.RECTILINEAR, Basis.DIAGONAL):
        positions = [i for i, b in enumerate(disclosure) if b is basis]
        same = [
            (j, i) for j, i in enumerate(positions)
            if records[i].ground_truth[0] is basis
        ]
        n_basis = len(same)
        if len(positions) == len(payload_substring):
            errs = sum(
                1 for j, i in same
                if payload_substring[j] != records[i].ground_truth[1]
            )
        else:
            errs = n_basis
        counts[basis] = (n_basis, errs)
    return VerificationCounts(
        n_rect=counts[Basis.RECTILINEAR][0],
        n_diag=counts[Basis.DIAGONAL][0],
        n_err_rect=counts[Basis.RECTILINEAR][1],
        n_err_diag=counts[Basis.DIAGONAL][1],
    )


def bob_verify(
    records: list[MeasurementRecord],
    disclosure: list[Basis],
    payload_substring: Bits,
    n_tol: int,
    e_tol: float,
    claimed_bit: int | None = None,
) -> tuple[Verdict, VerificationCounts]:
    """Bob's acceptance decision after the relays agree.

    Accept0 needs n_rect >= n_tol, n_diag >= n_tol, the payload aligned on
    the rectilinear-disclosed positions, and at most e_tol * n_tol errors
    against Bob's sent bits there; Accept1 symmetrically on the diagonal
    side.  With ``claimed_bit`` set only that branch is evaluated (Alice's
    unveiling names the bit); otherwise 0 is tried before 1.
    """
    counts = compute_verification_counts(records, disclosure, payload_substring)
    threshold = e_tol * n_tol
    candidates = (0, 1) if claimed_bit is None else (claimed_bit,)
    for bit in candidates:
        basis = _basis_for_bit(bit)
        positions = [i for i, b in enumerate(disclosure) if b is basis]
        if len(positions) != len(payload_substring):
            continue
        n_basis = counts.n_rect if bit == 0 else counts.n_diag
        n_other = counts.n_diag if bit == 0 else counts.n_rect
        errs = counts.n_err_rect if bit == 0 else counts.n_err_diag
        if n_basis >= n_tol and n_other >= n_tol and errs <= threshold:
            return (Verdict.ACCEPT0 if bit == 0 else Verdict.ACCEPT1), counts
    return Verdict.REJECT, counts


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
        if self.n_quarter < 1:
            raise ValueError("n_quarter: must be >= 1")
        cap = math.comb(2 * self.n_quarter, self.n_quarter)
        if not 0 <= self.x <= cap:
            raise ValueError(f"x: must lie in [0, C(2N,N)={cap}]")
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

    @classmethod
    def from_dict(cls, doc: dict) -> "SessionConfig":
        known = set(cls.__dataclass_fields__)
        unknown = set(doc) - known
        if unknown:
            raise ValueError(f"unknown config fields: {sorted(unknown)}")
        return cls(**doc)

    def to_dict(self) -> dict:
        return asdict(self)

    def channel(self) -> ChannelModel:
        return ChannelModel(self.detection_prob, self.flip_prob)


def frame_batches(
    config: SessionConfig, budget: int | None = None
) -> Iterator[np.ndarray]:
    """Deterministic stream of ``(n_frames, 4N)`` frame batches.

    Pulses are produced in batches; leftover detected records carry over
    between batches so frame grouping is identical to a single long run.
    With ``budget`` the stream ends after frame ``budget - 1``, cutting the
    batch that holds it.
    """
    seeds = np.random.SeedSequence(config.seed)
    channel = config.channel()
    size = 4 * config.n_quarter
    batch_pulses = max(4096, size * 64)
    pending = np.empty(0, RECORD)
    first_id = 0
    while budget is None or first_id <= budget:
        s_prep, s_chan = seeds.spawn(1)[0].generate_state(2)
        # spawn once per batch keeps seeds independent and reproducible
        pulses = prepare_pulses(batch_pulses, int(s_prep))
        pending = np.concatenate(
            (pending, transmit_and_measure(pulses, channel, int(s_chan)))
        )
        frames = assemble_frames(pending, config.n_quarter)
        pending = pending[frames.size :]
        yield frames if budget is None else frames[: budget - first_id]
        first_id += len(frames)


def frame_stream(config: SessionConfig) -> Iterator[tuple[int, Frame]]:
    """Unbounded deterministic stream of (frame_id, frame) objects."""
    frame_id = 0
    for frames in frame_batches(config):
        candidate = bb84_frames.classify_frame(frames, config.n_quarter)
        for row, c in zip(frames, candidate.tolist()):
            cls = FrameClass.COMMITMENT_CANDIDATE if c else FrameClass.NORMAL
            yield frame_id, Frame.from_row(row, cls)
            frame_id += 1


def commit_masks(
    frames: np.ndarray, sifted: np.ndarray, config: SessionConfig, cb: Codebook
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-frame masks (candidate, eligible, countable).

    Eligible frames are candidates whose outcomes in the commit basis form
    a codeword.  Countable frames have at least ``n_tol`` sifted records in
    each basis: Bob's preparation bases are public after the detection
    notification, so Alice skips frames whose counts cannot pass.
    """
    alice = frames["alice_basis"]
    # looked up on the module, where the benchmark's tracer wraps it
    candidate = bb84_frames.classify_frame(frames, config.n_quarter)
    # basis code b is the basis that commits bit b
    in_commit_basis = candidate[:, None] & (alice == config.commit_bit)
    substrings = frames["outcome"][in_commit_basis].reshape(-1, 2 * config.n_quarter)
    eligible = candidate.copy()
    eligible[candidate] = codeword_mask(cb, substrings)
    n_rect = np.count_nonzero(sifted & (alice == 0), axis=1)
    n_diag = np.count_nonzero(sifted & (alice == 1), axis=1)
    countable = (n_rect >= config.n_tol) & (n_diag >= config.n_tol)
    return candidate, eligible, countable


@dataclass
class SessionTranscript:
    """Everything observable about one session, JSON-exportable."""

    config: dict
    frames_total: int = 0
    candidate_frames: int = 0
    eligible_frames: int = 0
    threshold_skipped: int = 0
    insufficient_key_aborts: int = 0
    sifted_bits: int = 0
    commitments: list = field(default_factory=list)
    key_ledger: dict = field(default_factory=dict)
    schedule: dict | None = None
    status: str = "no_commit_frame"
    verdict: str | None = None

    def to_json_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


def _deal_key(bits: np.ndarray, buffers: dict, toggle: int) -> int:
    """Hand key bits out alternately to P0 and P1, the first to the channel
    ``toggle`` names; returns the toggle for the next bit."""
    order = (CHANNEL_P0, CHANNEL_P1) if toggle == 0 else (CHANNEL_P1, CHANNEL_P0)
    buffers[order[0]].extend(bits[0::2])
    buffers[order[1]].extend(bits[1::2])
    return toggle ^ (len(bits) & 1)


def run_session(config: SessionConfig) -> SessionTranscript:
    """Run one full session: preparation, commitment, unveiling, verdict.

    The first commit-eligible frame (candidate, codeword substring, count
    thresholds satisfiable, sufficient pad) carries the commitment; with
    ``commit_all`` every such frame commits.  All other frames distill key
    into the two per-channel buffers by alternating allocation.

    Each batch of frames is classified, sifted and distilled at once; only
    eligible frames are visited one by one, since whether one commits
    depends on the key distilled before it.
    """
    cb = Codebook(config.n_quarter, config.x)
    rate = max(0.0, math_core.final_key_rate(config.q_tol))
    buffers = {CHANNEL_P0: KeyBuffer(), CHANNEL_P1: KeyBuffer()}
    toggle = 0

    transcript = SessionTranscript(config=config.to_dict())
    pending_unveil = []  # (frame, msg0, msg1, send_time)

    for frames in frame_batches(config, config.frame_budget):
        first_id = transcript.frames_total
        sifted = sift_records(frames)
        candidate, eligible, countable = commit_masks(frames, sifted, config, cb)
        credited = distill(sifted, rate)
        key = frames["outcome"][credited]
        # key[key_start[i]:key_start[i + 1]] are the bits frame i credits
        key_start = [0, *np.cumsum(np.count_nonzero(credited, axis=1)).tolist()]
        transcript.sifted_bits += int(np.count_nonzero(sifted))
        start = 0  # the first frame whose key is not dealt yet
        for i in np.flatnonzero(eligible).tolist():
            if pending_unveil and not config.commit_all:
                break
            if not countable[i]:
                transcript.threshold_skipped += 1
                continue
            toggle = _deal_key(key[key_start[start] : key_start[i]], buffers, toggle)
            start = i
            frame = Frame.from_row(frames[i], FrameClass.COMMITMENT_CANDIDATE)
            try:
                msg0, msg1 = try_commit(
                    frame, config.commit_bit, cb,
                    buffers[CHANNEL_P0], buffers[CHANNEL_P1],
                    frame_id=first_id + i, mode=config.payload_mode,
                )
            except InsufficientKeyError:
                transcript.insufficient_key_aborts += 1
                continue
            if config.tamper_p1_bit is not None and not pending_unveil:
                ct = list(msg1.payload_ciphertext)
                ct[config.tamper_p1_bit % len(ct)] ^= 1
                msg1 = replace(msg1, payload_ciphertext=tuple(ct))
            pending_unveil.append((frame, msg0, msg1, first_id + i))
            # a committing frame distills nothing
            start = i + 1
            transcript.sifted_bits -= int(np.count_nonzero(sifted[i]))
        toggle = _deal_key(key[key_start[start] :], buffers, toggle)
        transcript.frames_total += len(frames)
        transcript.candidate_frames += int(np.count_nonzero(candidate))
        transcript.eligible_frames += int(np.count_nonzero(eligible))

    # Unveiling: waiting-time schedule, relay cross-check, Bob's verdict.
    if pending_unveil:
        waits = {CHANNEL_P0: config.wait_p0, CHANNEL_P1: config.wait_p1}
        send_times = {}
        for _, msg0, msg1, t in pending_unveil:
            send_times[(msg0.frame_id, CHANNEL_P0)] = t
            send_times[(msg1.frame_id, CHANNEL_P1)] = t
        schedule = UnveilSchedule.build(waits, send_times)
        transcript.schedule = {
            "waits": waits,
            "send_times": {
                f"{fid}:{ch}": t for (fid, ch), t in send_times.items()
            },
            "epoch": schedule.epoch,
        }

        for frame, msg0, msg1, _ in pending_unveil:
            payload0 = otp_decrypt(
                msg0.payload_ciphertext, buffers[CHANNEL_P0], msg0.key_offset
            )
            payload1 = otp_decrypt(
                msg1.payload_ciphertext, buffers[CHANNEL_P1], msg1.key_offset
            )
            consistent = relay_consistency_check(payload0, payload1)
            entry = {
                "frame_id": msg0.frame_id,
                "messages": [
                    {
                        "channel": m.channel,
                        "key_offset": m.key_offset,
                        "length": len(m.payload_ciphertext),
                        "ciphertext_hex": pack_bits(m.payload_ciphertext).hex(),
                    }
                    for m in (msg0, msg1)
                ],
                "relay_consistent": consistent,
            }
            if not consistent:
                entry["verdict"] = Verdict.REJECT.value
                entry["counts"] = None
            else:
                substring, _basis_flag = decode_payload(
                    cb, payload0, config.payload_mode
                )
                disclosure = [r.alice_basis for r in frame.records]
                verdict, counts = bob_verify(
                    frame.records, disclosure, substring,
                    config.n_tol, config.e_tol,
                    claimed_bit=config.commit_bit,
                )
                entry["verdict"] = verdict.value
                entry["counts"] = asdict(counts)
            transcript.commitments.append(entry)

        first = transcript.commitments[0]
        transcript.verdict = first["verdict"]
        accept = Verdict.ACCEPT0.value if config.commit_bit == 0 else Verdict.ACCEPT1.value
        transcript.status = "accept" if first["verdict"] == accept else "reject"

    transcript.key_ledger = {
        ch: {"generated": buffers[ch].total, "consumed": buffers[ch].consumed}
        for ch in (CHANNEL_P0, CHANNEL_P1)
    }
    return transcript


def simulate_cheating_alice(
    strategy: CheatStrategy, config: SessionConfig, trials: int
) -> tuple[float, float]:
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
    if not isinstance(strategy, CheatStrategy):
        raise ValueError(f"unknown strategy {strategy!r}")
    cb = Codebook(config.n_quarter, config.x)
    commit_basis = _basis_for_bit(config.commit_bit)
    flip = {
        Basis.RECTILINEAR: Basis.DIAGONAL,
        Basis.DIAGONAL: Basis.RECTILINEAR,
    }
    succ = [0, 0]
    done = 0
    for frames in frame_batches(config):
        _, eligible, countable = commit_masks(
            frames, sift_records(frames), config, cb
        )
        for row in frames[eligible & countable]:
            frame = Frame.from_row(row, FrameClass.COMMITMENT_CANDIDATE)
            substring = frame.outcomes_in_basis(commit_basis)
            honest = [r.alice_basis for r in frame.records]
            flipped = [flip[b] for b in honest]
            for target in (0, 1):
                disclosure = honest if target == config.commit_bit else flipped
                verdict, _ = bob_verify(
                    frame.records, disclosure, substring,
                    config.n_tol, config.e_tol, claimed_bit=target,
                )
                wanted = Verdict.ACCEPT0 if target == 0 else Verdict.ACCEPT1
                if verdict is wanted:
                    succ[target] += 1
            done += 1
            if done >= trials:
                return succ[0] / trials, succ[1] / trials
