"""Per-object frame pipeline: the reference for the array pipeline.

This is the frame layer as it was written before it moved onto numpy
batches: one ``Pulse`` object per prepared signal, one
``MeasurementRecord`` per detected signal, frames as lists of records,
and per-frame classification, sifting, distillation and the count
threshold in Python loops.  It draws from the generator in the same order
as ``bb84_frames``, so the two pipelines must agree record for record and
frame for frame.  Its record and frame types are its own; the package
holds frames only as rows of ``bb84_frames.RECORD``.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from pbc_bb84.bb84_frames import FrameClass


class Basis(enum.Enum):
    RECTILINEAR = "rect"
    DIAGONAL = "diag"


_BASES = (Basis.RECTILINEAR, Basis.DIAGONAL)


@dataclass(slots=True)
class Pulse:
    """One prepared signal; (basis, bit) selects one of the four
    polarization states."""

    index: int
    basis: Basis
    bit: int


@dataclass(slots=True)
class MeasurementRecord:
    """One detected signal as Alice sees it, with Bob's (basis, bit) as
    ``ground_truth``."""

    index: int
    alice_basis: Basis
    outcome: int
    ground_truth: tuple[Basis, int]


@dataclass(slots=True)
class Frame:
    """Exactly 4N consecutive detected signals with a commitment-frame
    classification (candidate iff Alice's bases split exactly 2N/2N)."""

    records: list[MeasurementRecord]
    classification: FrameClass = field(default=FrameClass.NORMAL)

    def outcomes_in_basis(self, basis: Basis) -> tuple[int, ...]:
        """Outcome bits of records measured in ``basis``, in record order."""
        return tuple(r.outcome for r in self.records if r.alice_basis is basis)


def prepare_pulses(count: int, rng_seed: int) -> list[Pulse]:
    rng = np.random.default_rng(rng_seed)
    bases = rng.integers(0, 2, size=count)
    bits = rng.integers(0, 2, size=count)
    return [Pulse(i, _BASES[bases[i]], int(bits[i])) for i in range(count)]


def transmit_and_measure(
    pulses: list[Pulse], detection_prob: float, flip_prob: float, rng_seed: int
) -> list[MeasurementRecord]:
    n = len(pulses)
    rng = np.random.default_rng(rng_seed)
    detected = rng.random(n) < detection_prob
    alice_bases = rng.integers(0, 2, size=n)
    flips = rng.random(n) < flip_prob
    coins = rng.integers(0, 2, size=n)

    records = []
    for i, pulse in enumerate(pulses):
        if not detected[i]:
            continue
        a_basis = _BASES[alice_bases[i]]
        if a_basis is pulse.basis:
            outcome = pulse.bit ^ int(flips[i])
        else:
            outcome = int(coins[i])
        records.append(
            MeasurementRecord(pulse.index, a_basis, outcome, (pulse.basis, pulse.bit))
        )
    return records


def classify_frame(records: list[MeasurementRecord], n_quarter: int) -> FrameClass:
    rect = sum(1 for r in records if r.alice_basis is Basis.RECTILINEAR)
    if rect == 2 * n_quarter:
        return FrameClass.COMMITMENT_CANDIDATE
    return FrameClass.NORMAL


def assemble_frames(records: list[MeasurementRecord], n_quarter: int) -> list[Frame]:
    size = 4 * n_quarter
    frames = []
    for start in range(0, len(records) - size + 1, size):
        chunk = records[start : start + size]
        frames.append(Frame(chunk, classify_frame(chunk, n_quarter)))
    return frames


def sift_records(frame: Frame) -> list[MeasurementRecord]:
    return [r for r in frame.records if r.alice_basis is r.ground_truth[0]]


def distill_frame(frame: Frame, rate: float) -> list[int]:
    """The first floor(sifted * rate) sifted outcomes of one frame."""
    sifted = [r.outcome for r in sift_records(frame)]
    credited = math.floor(len(sifted) * rate)
    return sifted[:credited]


def threshold_ok(frame: Frame, n_tol: int) -> bool:
    """Bob's same-basis counts reach ``n_tol`` in both bases."""
    n_rect = sum(
        1 for r in frame.records
        if r.alice_basis is Basis.RECTILINEAR and r.ground_truth[0] is Basis.RECTILINEAR
    )
    n_diag = sum(
        1 for r in frame.records
        if r.alice_basis is Basis.DIAGONAL and r.ground_truth[0] is Basis.DIAGONAL
    )
    return n_rect >= n_tol and n_diag >= n_tol


def frame_stream(config):
    """Frames in session order, ``frame_stream`` of the per-object era:
    4096-pulse batches, one ``SeedSequence.spawn`` each, and detected
    records carried over between batches."""
    seeds = np.random.SeedSequence(config.seed)
    size = 4 * config.n_quarter
    batch_pulses = max(4096, size * 64)
    pending: list = []
    while True:
        s_prep, s_chan = seeds.spawn(1)[0].generate_state(2)
        pulses = prepare_pulses(batch_pulses, int(s_prep))
        pending.extend(transmit_and_measure(
            pulses, config.detection_prob, config.flip_prob, int(s_chan)
        ))
        n_full = len(pending) // size
        yield from assemble_frames(pending[: n_full * size], config.n_quarter)
        pending = pending[n_full * size :]
