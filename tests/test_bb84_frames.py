import itertools
import math

import numpy as np
import pytest

import frame_reference as ref
from pbc_bb84 import commitment_protocol as cp
from pbc_bb84 import math_core as mc
from pbc_bb84.bb84_frames import (
    RECORD,
    FrameClass,
    assemble_frames,
    classify_frame,
    distill,
    prepare_pulses,
    sift_records,
    transmit_and_measure,
)

R, D = 0, 1  # basis codes: rectilinear, diagonal


def six_sigma(n, p):
    return 6 * math.sqrt(n * p * (1 - p))


def test_record_is_four_bytes():
    # a signal is Alice's half and Bob's half, from preparation to verdict
    assert RECORD.names == ("alice_basis", "outcome", "bob_basis", "bob_bit")
    assert RECORD.itemsize == 4


class TestPreparePulses:
    def test_determinism(self):
        a = prepare_pulses(8, rng_seed=7)
        b = prepare_pulses(8, rng_seed=7)
        assert np.array_equal(a, b)
        assert len(a) == 8

    def test_single(self):
        (pulse,) = prepare_pulses(1, rng_seed=0)
        assert pulse["bob_basis"] in (R, D)
        assert pulse["bob_bit"] in (0, 1)

    def test_records_with_alice_half_zero(self):
        pulses = prepare_pulses(64, rng_seed=1)
        assert pulses.dtype == RECORD
        assert not pulses["alice_basis"].any() and not pulses["outcome"].any()

    def test_basis_frequency(self):
        pulses = prepare_pulses(100_000, rng_seed=11)
        rect = np.count_nonzero(pulses["bob_basis"] == R)
        assert abs(rect - 50_000) <= six_sigma(100_000, 0.5)
        assert abs(rect / 100_000 - 0.5) <= 0.01

    def test_count_guard(self):
        with pytest.raises(ValueError):
            prepare_pulses(0, rng_seed=0)


class TestTransmitAndMeasure:
    def test_noiseless_matched(self):
        pulses = prepare_pulses(2000, rng_seed=3)
        records = transmit_and_measure(pulses, 1.0, 0.0, rng_seed=4)
        assert len(records) == 2000
        matched = records["alice_basis"] == records["bob_basis"]
        assert np.array_equal(records["outcome"][matched], records["bob_bit"][matched])

    def test_detection_rate(self):
        pulses = prepare_pulses(100_000, rng_seed=5)
        records = transmit_and_measure(pulses, 0.5, 0.0, rng_seed=6)
        assert abs(len(records) - 50_000) <= six_sigma(100_000, 0.5)

    def test_flip_rate(self):
        pulses = prepare_pulses(100_000, rng_seed=7)
        records = transmit_and_measure(pulses, 1.0, 0.1, rng_seed=8)
        matched = records[records["alice_basis"] == records["bob_basis"]]
        errors = np.count_nonzero(matched["outcome"] != matched["bob_bit"])
        n = len(matched)
        assert abs(errors / n - 0.1) <= 6 * math.sqrt(0.1 * 0.9 / n)

    def test_determinism(self):
        pulses = prepare_pulses(500, rng_seed=9)
        a = transmit_and_measure(pulses, 0.7, 0.05, rng_seed=10)
        b = transmit_and_measure(pulses, 0.7, 0.05, rng_seed=10)
        assert np.array_equal(a, b)

    def test_bob_half_is_the_detected_pulses(self):
        pulses = prepare_pulses(500, rng_seed=9)
        records = transmit_and_measure(pulses, 0.7, 0.05, rng_seed=10)
        # the channel's first draw decides which pulses are detected
        detected = np.random.default_rng(10).random(500) < 0.7
        bob = ["bob_basis", "bob_bit"]
        assert np.array_equal(records[bob], pulses[detected][bob])

    def test_channel_validation(self):
        # the channel's two probabilities are checked where a session's
        # configuration enters, at the bounds the channel needs
        with pytest.raises(ValueError):
            cp.SessionConfig(detection_prob=0.0)
        with pytest.raises(ValueError):
            cp.SessionConfig(flip_prob=0.5)


def _records(alice_bases, outcomes=None):
    """Records measured in ``alice_bases``, Bob's basis and bit matching."""
    n = len(alice_bases)
    outcomes = [0] * n if outcomes is None else outcomes
    records = np.zeros(n, RECORD)
    records["alice_basis"] = records["bob_basis"] = alice_bases
    records["outcome"] = records["bob_bit"] = outcomes
    return records


class TestAssembleFrames:
    def test_partial_group_discarded(self):
        frames = assemble_frames(_records([R] * 9), n_quarter=1)
        assert len(frames) == 2
        assert frames.shape == (2, 4)

    def test_classification(self):
        candidate = assemble_frames(_records([R, R, D, D]), 1)
        assert classify_frame(candidate, 1).tolist() == [True]
        normal = assemble_frames(_records([R, R, R, D]), 1)
        assert classify_frame(normal, 1).tolist() == [False]

    def test_empty(self):
        assert len(assemble_frames(_records([]), 2)) == 0

    def test_candidate_frequency(self):
        pulses = prepare_pulses(8 * 120_000, rng_seed=21)
        records = transmit_and_measure(pulses, 1.0, 0.0, rng_seed=22)
        frames = assemble_frames(records, n_quarter=2)
        m = len(frames)
        assert m >= 100_000
        candidates = np.count_nonzero(classify_frame(frames, 2))
        p = 70 / 256
        assert abs(candidates - m * p) <= six_sigma(m, p)


class TestSiftAndDistill:
    def _key(self, frames, q):
        # every Normal frame's sifted records as one stream, distilled at
        # the final key rate for q
        rate = max(0.0, mc.final_key_rate(q))
        normal = frames[~classify_frame(frames, 1)].reshape(-1)
        return normal["outcome"][distill(sift_records(normal), rate)].tolist()

    def _normal_frames(self, n_sifted):
        # every record matched-basis but frames 3R/1D so they stay Normal
        bases = [D if i % 4 == 3 else R for i in range(n_sifted)]
        return assemble_frames(_records(bases, [i % 2 for i in range(n_sifted)]), 1)

    def test_full_rate(self):
        frames = self._normal_frames(1000)
        assert len(self._key(frames, 0.0)) == 1000

    def test_partial_rate(self):
        frames = self._normal_frames(1000)
        bits = self._key(frames, 0.02)
        assert len(bits) == math.floor(1000 * mc.final_key_rate(0.02))
        assert len(bits) == 567

    def test_zero_rate(self):
        frames = self._normal_frames(1000)
        assert self._key(frames, 0.1) == []

    def test_sift_fraction(self):
        pulses = prepare_pulses(100_000, rng_seed=31)
        records = transmit_and_measure(pulses, 1.0, 0.0, rng_seed=32)
        kept = np.count_nonzero(sift_records(assemble_frames(records, 1)))
        total = 4 * (len(records) // 4)
        assert abs(kept - total / 2) <= six_sigma(total, 0.5)


def _counting(module, name, monkeypatch):
    """Count the calls of ``module.name`` for the rest of the test."""
    calls = []
    original = getattr(module, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


class TestMatchesReference:
    """The array pipeline against the per-object loops it replaced, frame by
    frame, across RNG-batch and pass boundaries and the frame-budget cut."""

    CONFIGS = [
        # 10% detection: every RNG batch ends mid-frame, records carry over
        (cp.SessionConfig(seed=5, detection_prob=0.1, flip_prob=0.05, q_tol=0.02), 600),
        # 512 frames per batch: 700 cuts the second batch, 1024 ends on a
        # batch boundary
        (cp.SessionConfig(seed=6, flip_prob=0.02, q_tol=0.01), 700),
        (cp.SessionConfig(seed=7), 1024),
        (cp.SessionConfig(seed=8, n_quarter=3, x=20, detection_prob=0.3), 300),
        # 5% detection: a pass merges about 20 RNG batches; 1300 cuts the
        # third pass
        (cp.SessionConfig(seed=9, detection_prob=0.05), 1300),
    ]

    @pytest.mark.parametrize("config,budget", CONFIGS)
    def test_per_frame(self, config, budget):
        rate = max(0.0, mc.final_key_rate(config.q_tol))
        expected = list(itertools.islice(ref.frame_stream(config), budget))
        batches = list(cp.frame_batches(config, budget))
        frames = np.concatenate(batches)
        assert len(frames) == budget
        candidate = classify_frame(frames, config.n_quarter)
        sifted = sift_records(frames)
        credited = distill(sifted, rate)
        codes = {ref.Basis.RECTILINEAR: R, ref.Basis.DIAGONAL: D}
        for i, frame in enumerate(expected):
            assert frames[i].tolist() == [
                (codes[r.alice_basis], r.outcome, codes[r.ground_truth[0]], r.ground_truth[1])
                for r in frame.records
            ]
            is_candidate = frame.classification is FrameClass.COMMITMENT_CANDIDATE
            assert candidate[i] == is_candidate
            assert np.count_nonzero(sifted[i]) == len(ref.sift_records(frame))
            assert frames["outcome"][i][credited[i]].tolist() == ref.distill_frame(frame, rate)

    @pytest.mark.parametrize("config,budget", CONFIGS)
    def test_budget_cut_draws_the_same_batches(self, config, budget, monkeypatch):
        # the per-object session stopped on reading frame ``budget``
        expected = _counting(ref, "prepare_pulses", monkeypatch)
        for _ in itertools.islice(ref.frame_stream(config), budget + 1):
            pass
        drawn = _counting(cp, "prepare_pulses", monkeypatch)
        for _ in cp.frame_batches(config, budget):
            pass
        assert drawn == expected

    @pytest.mark.parametrize("config,budget", CONFIGS)
    def test_pass_holds_a_lossless_batch(self, config, budget, monkeypatch):
        # a pass draws RNG batches until it holds batch_pulses records and
        # frames all but fewer than 4N of them, so it ends up with fewer
        # than batch_pulses records plus its last RNG batch's
        drawn = _counting(cp, "prepare_pulses", monkeypatch)
        detected = []
        measure = cp.transmit_and_measure

        def measured(*args):
            records = measure(*args)
            detected.append(len(records))
            return records

        monkeypatch.setattr(cp, "transmit_and_measure", measured)
        framed = [frames.size for frames in cp.frame_batches(config, budget)]
        batch_pulses = drawn[0][0]
        assert min(framed[:-1], default=batch_pulses) >= batch_pulses - (4 * config.n_quarter - 1)
        assert max(framed) < batch_pulses + max(detected)

    @pytest.mark.parametrize("config,budget", [
        *(c for c in CONFIGS if c[0].detection_prob == 1.0),
        # 4096 records are not whole 12-record frames: leftovers carry over
        (cp.SessionConfig(seed=7, n_quarter=3, x=20), 1000),
    ])
    def test_lossless_pass_per_rng_batch(self, config, budget, monkeypatch):
        drawn = _counting(cp, "prepare_pulses", monkeypatch)
        passes = list(cp.frame_batches(config, budget))
        assert len(passes) == len(drawn) > 1
