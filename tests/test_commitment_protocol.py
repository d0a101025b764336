import itertools
import json
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import codebook_reference
import frame_reference as ref
import ledger_reference
from pbc_bb84 import codebook, math_core
from pbc_bb84.bb84_frames import RECORD, FrameClass, distill, sift_records
from pbc_bb84.codebook import Codebook, MODE_COMPRESSED
from pbc_bb84 import commitment_protocol as proto
from pbc_bb84.commitment_protocol import (
    InsufficientKeyError,
    KeyBuffer,
    VERDICTS,
    SessionConfig,
    bob_verify,
    otp_decrypt,
    run_session,
    simulate_cheating_alice,
    try_commit,
)

R, D = 0, 1  # basis codes: rectilinear, diagonal


def make_buffer(bits):
    buf = KeyBuffer()
    buf.extend(bits)
    return buf


def make_frame(alice_bases, outcomes, bob_bases=None, bob_bits=None):
    """One frame as a row of records; Bob's bases and bits default to
    Alice's bases and outcomes."""
    row = np.zeros(len(alice_bases), RECORD)
    row["alice_basis"], row["outcome"] = alice_bases, outcomes
    row["bob_basis"] = alice_bases if bob_bases is None else bob_bases
    row["bob_bit"] = outcomes if bob_bits is None else bob_bits
    return row


def verify_one(frame, payload, claimed_bit, n_tol, e_tol, disclosure=None):
    """``bob_verify`` on one frame, disclosing Alice's bases unless told
    otherwise; returns the verdict's name and the counts by name."""
    if disclosure is None:
        disclosure = frame["alice_basis"]
    codes, counts = bob_verify(
        frame[None], [disclosure], [payload], n_tol, e_tol, claimed_bit
    )
    return VERDICTS[codes[0]], dict(zip(proto.COUNT_FIELDS, counts[0].tolist()))


class TestKeyBuffer:
    def test_fifo_offsets(self):
        buf = make_buffer([1, 0, 1, 1, 0, 0, 1, 0])
        assert (buf.consume(4), buf.consume(4)) == (0, 4)
        assert buf.consume(0) == 8
        with pytest.raises(InsufficientKeyError):
            buf.consume(1)

    def test_zero_key(self):
        buf = make_buffer([0, 0, 0, 0])
        payloads = np.array([[0, 1, 1, 0], [1, 1, 0, 0]])
        assert (otp_decrypt(payloads, buf, [0, 0]) == payloads).all()

    def test_xor_involution(self):
        buf = make_buffer([1, 0, 1, 1, 0, 1, 1, 1, 0, 0])
        payloads = np.array([[1, 1, 0, 1, 0], [0, 0, 0, 1, 1]])
        offsets = [buf.consume(5), buf.consume(5)]
        ciphertexts = payloads ^ buf.peek(offsets, 5)
        assert ciphertexts.tolist() == [[0, 1, 1, 0, 0], [1, 1, 1, 1, 1]]
        assert otp_decrypt(ciphertexts, buf, offsets).tolist() == payloads.tolist()

    def test_insufficient_key_no_partial_consumption(self):
        buf = make_buffer([1, 0])
        with pytest.raises(InsufficientKeyError):
            buf.consume(3)
        assert buf.consumed == 0
        assert buf.consume(2) == 0

    def test_one_byte_per_bit(self):
        buf = KeyBuffer()
        buf.extend(np.array([3, 0, 1, 2, 1], dtype=np.int64))
        buf.extend(np.array([1, 1, 0], dtype=np.int8))
        assert buf.total == 8
        assert buf._bits.nbytes == 8
        assert buf.peek([0], 8).tolist() == [[1, 0, 1, 0, 1, 1, 1, 0]]

    def test_peek_does_not_consume(self):
        buf = make_buffer([1, 0, 1])
        assert buf.peek([0], 3).tolist() == [[1, 0, 1]]
        assert buf.peek([0, 1], 2).tolist() == [[1, 0], [0, 1]]
        assert buf.consumed == 0
        for offsets, length in (([1], 3), ([0, 1], 3), ([-1, 0], 1)):
            with pytest.raises(ValueError):
                buf.peek(offsets, length)


def ledger_step(credits, eligible, countable=None, dealt=0, made=0, length=4,
                commit_all=True):
    """``try_commit`` on one pass given as lists: each frame's credited
    bits, and the indices of its eligible and (by default all) countable
    frames."""
    mask = np.zeros(len(credits), bool)
    mask[range(len(credits)) if countable is None else countable] = True
    return try_commit(np.array(eligible, np.intp), mask, np.array(credits),
                      dealt, made, length, commit_all)


class TestTryCommit:
    def test_commit_produced(self):
        # 8 bits dealt before frame 1 leave P1 4, one pad of 4; frame 1
        # credits nothing, so frame 3 finds P1 holding 8, two pads
        assert ledger_step([8, 0, 8, 0], [1, 3]) == ([1, 3], 0, 0)
        # the committing frames' own credits are never dealt
        assert ledger_step([8, 5, 3, 0], [1, 3]) == ([1], 0, 1)
        # dealt bits and commitments carry in from earlier passes
        assert ledger_step([0, 0], [0], dealt=16, made=1) == ([0], 0, 0)
        assert ledger_step([0, 0], [0], dealt=15, made=1) == ([], 0, 1)

    def test_insufficient_key_leaves_both_buffers(self):
        # 2L - 1 = 7 dealt bits give P0 4 and P1 3: the attempt aborts and
        # spends nothing, so one more bit (the aborted frame's own) lets
        # the next eligible frame commit with the first pad
        assert ledger_step([7, 1, 0, 0], [1, 3]) == ([3], 0, 1)
        assert ledger_step([7, 0, 0, 0], [1, 3]) == ([], 0, 2)

    def test_threshold_skips_and_first_commitment(self):
        # a frame that is not countable is skipped, whatever the key
        assert ledger_step([8, 0, 0, 8, 0], [1, 2, 4], countable=[0, 2, 3]) == ([2], 2, 0)
        # without commit_all the first commitment ends the visit, and a
        # later pass counts nothing
        assert ledger_step([9, 0, 0, 0], [1, 2, 3], countable=[1, 3],
                           commit_all=False) == ([1], 0, 0)
        assert ledger_step([9, 0], [0, 1], made=1, commit_all=False) == ([], 0, 0)


def counter_ledger(passes, length, commit_all):
    """The counter ledger over the passes of ``ledger_reference.run_ledger``,
    the way ``run_session`` keeps it: one ``try_commit`` per pass, then one
    ``extend`` per channel and one ``consume`` of every pad."""
    frame_ids, keys, dealt, skipped, aborts, first_id = [], [], 0, 0, 0, 0
    for outcome, credited, eligible, countable in passes:
        picked, s, a = try_commit(
            np.flatnonzero(eligible), countable, np.count_nonzero(credited, axis=1),
            dealt, len(frame_ids), length, commit_all,
        )
        commits = np.zeros(len(outcome), bool)
        commits[picked] = True
        keys.append(outcome[credited & ~commits[:, None]])
        dealt += len(keys[-1])
        frame_ids += [first_id + i for i in picked]
        skipped, aborts, first_id = skipped + s, aborts + a, first_id + len(outcome)
    key = np.concatenate(keys)
    buffers = (KeyBuffer(), KeyBuffer())
    spend = len(frame_ids) * length
    records = []
    for buffer, bits in zip(buffers, (key[0::2], key[1::2])):
        buffer.extend(bits)
        records.append(range(buffer.consume(spend), spend, length))
    return list(zip(frame_ids, *records)), skipped, aborts, buffers


def assert_same_ledger(ours, theirs, length):
    records, skipped, aborts, buffers = ours
    ref_records, ref_skipped, ref_aborts, ref_buffers = theirs
    assert records == ref_records
    assert (skipped, aborts) == (ref_skipped, ref_aborts)
    for channel, (buffer, ref_buffer) in enumerate(zip(buffers, ref_buffers.values())):
        assert (buffer.total, buffer.consumed) == (ref_buffer.total, ref_buffer.consumed)
        offsets = [record[1 + channel] for record in records]
        assert buffer.peek(offsets, length).tolist() == ref_buffer.peek(offsets, length).tolist()


@st.composite
def ledger_passes(draw):
    """Passes of frames with random outcomes, credited bits (odd counts
    included), eligible frames and countable gaps."""
    width = draw(st.integers(1, 6))
    passes = []
    for _ in range(draw(st.integers(1, 4))):
        n = draw(st.integers(0, 12))
        bits = st.lists(st.booleans(), min_size=n * width, max_size=n * width)
        outcome = np.array(draw(bits), np.int8).reshape(n, width)
        credited = np.array(draw(bits), bool).reshape(n, width)
        masks = st.lists(st.booleans(), min_size=n, max_size=n)
        passes.append((outcome, credited, np.array(draw(masks), bool),
                       np.array(draw(masks), bool)))
    return passes


class TestMatchesLedgerReference:
    """The counter ledger against the per-commit one it replaced
    (``tests/ledger_reference.py``): the same commitments, offsets, pads,
    skips, aborts and key ledger."""

    @settings(max_examples=300, deadline=None)
    @given(ledger_passes(), st.integers(1, 5), st.booleans())
    def test_random_passes(self, passes, length, commit_all):
        assert_same_ledger(
            counter_ledger(passes, length, commit_all),
            ledger_reference.run_ledger(passes, length, commit_all),
            length,
        )

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        detection_prob=st.sampled_from([1.0, 0.3, 0.05]),
        flip_prob=st.sampled_from([0.0, 0.02]),
        q_tol=st.sampled_from([0.0, 0.03, 0.06]),
        n_tol=st.integers(1, 3),
        commit_all=st.booleans(),
        frame_budget=st.integers(1, 700),
    )
    def test_sessions(self, **fields):
        config = SessionConfig(**fields)
        rate = max(0.0, math_core.final_key_rate(config.q_tol))
        cb = Codebook(config.n_quarter, config.x)
        passes = []
        for frames in proto.frame_batches(config, config.frame_budget):
            sifted = sift_records(frames)
            _, eligible, countable = proto.commit_masks(frames, sifted, config, cb)
            passes.append((frames["outcome"], distill(sifted, rate), eligible, countable))
        length = proto.payload_length(cb, config.payload_mode)
        records, skipped, aborts, buffers = ledger_reference.run_ledger(
            passes, length, config.commit_all)

        transcript = run_session(config)
        assert [
            (c["frame_id"], *(m["key_offset"] for m in c["messages"]))
            for c in transcript["commitments"]
        ] == records
        assert transcript["threshold_skipped"] == skipped
        assert transcript["insufficient_key_aborts"] == aborts
        assert transcript["key_ledger"] == {
            ch: {"generated": b.total, "consumed": b.consumed} for ch, b in buffers.items()
        }


class TestCommitMaskFrames:
    """The codeword decision on hand-made frames: rectilinear outcomes of a
    candidate frame in record order, at N = 2."""

    def masks(self, frame, x):
        config = SessionConfig(n_quarter=2, x=x)
        frames = frame[None]
        masks = proto.commit_masks(frames, sift_records(frames), config, Codebook(2, x))
        return [bool(mask[0]) for mask in masks]

    def test_codeword_is_eligible(self):
        # rect outcomes 0,1,1,0: balanced, rank 2
        frame = make_frame([R, R, D, R, D, R, D, D], [0, 1, 0, 1, 1, 0, 0, 1])
        assert self.masks(frame, 6) == [True, True, True]

    def test_unbalanced_substring_not_eligible(self):
        frame = make_frame([R, R, D, R, D, R, D, D], [0, 1, 0, 1, 1, 1, 0, 1])
        assert self.masks(frame, 6) == [True, False, True]

    def test_rank_cutoff(self):
        frame = make_frame([R, R, D, R, D, R, D, D], [0, 1, 0, 1, 1, 0, 0, 1])
        assert self.masks(frame, 2) == [True, False, True]  # rank(0110)=2 >= x
        assert self.masks(frame, 3) == [True, True, True]

    def test_normal_frame_not_a_candidate(self):
        frame = make_frame([R, R, R, R, D, R, D, D], [0] * 8)
        candidate, eligible, _ = self.masks(frame, 6)
        assert not candidate and not eligible


class TestRelayConsistency:
    """Bob's cross-check of the two relays' decrypted payloads, made
    inside ``run_session`` on every commitment."""

    CONFIG = dict(seed=9, frame_budget=500, commit_all=True)

    def test_identical(self):
        transcript = run_session(SessionConfig(**self.CONFIG))
        assert len(transcript["commitments"]) > 1
        assert all(c["relay_consistent"] for c in transcript["commitments"])

    def test_one_bit_differs(self):
        # a flip at any payload position splits the relays on the first
        # commitment only, the one tampered
        for bit in range(4):
            transcript = run_session(SessionConfig(**self.CONFIG, tamper_p1_bit=bit))
            flags = [c["relay_consistent"] for c in transcript["commitments"]]
            assert flags[0] is False and all(flags[1:]), bit


class TestBobVerify:
    def test_honest_accept0(self):
        frame = make_frame(
            [R, R, D, R, D, R, D, D],
            [0, 1, 0, 1, 1, 0, 0, 1],
        )  # bob mirrors alice: all same-basis, no errors
        verdict, counts = verify_one(frame, (0, 1, 1, 0), 0, n_tol=2, e_tol=0.25)
        assert verdict == "accept0"
        assert counts["n_rect"] == 4 and counts["n_diag"] == 4
        assert counts["n_err_rect"] == 0

    def test_honest_accept1(self):
        frame = make_frame([D, D, R, D, R, D, R, R], [0, 1, 0, 1, 1, 0, 0, 1])
        verdict, _ = verify_one(frame, (0, 1, 1, 0), 1, n_tol=2, e_tol=0.25)
        assert verdict == "accept1"

    def test_error_threshold(self):
        frame = make_frame([R, R, D, R, D, R, D, D], [0, 1, 0, 1, 1, 0, 0, 1])
        # floor(e_tol * n_tol) = 0, so one injected error must reject
        verdict, counts = verify_one(frame, (1, 1, 1, 0), 0, n_tol=2, e_tol=0.25)
        assert verdict == "reject"
        assert counts["n_err_rect"] == 1

    def test_count_threshold(self):
        # only 1 same-basis rect record: n_rect = 1 < n_tol regardless of errors
        frame = make_frame(
            [R, R, D, R, D, R, D, D],
            [0, 1, 0, 1, 1, 0, 0, 1],
            bob_bases=[R, D, D, D, D, D, D, D],
        )
        verdict, counts = verify_one(frame, (0, 1, 1, 0), 0, n_tol=2, e_tol=0.25)
        assert verdict == "reject"
        assert counts["n_rect"] == 1

    def test_claimed_bit_restricts_branch(self):
        frame = make_frame([R, R, D, R, D, R, D, D], [0, 1, 0, 1, 1, 0, 0, 1])
        # the frame accepts 0; claiming 1 checks the diagonal side only
        verdict, _ = verify_one(frame, (0, 1, 1, 0), 1, 2, 0.25)
        assert verdict == "reject"

    def test_misaligned_basis_is_all_errors(self):
        # five positions disclosed rectilinear for a 4-bit payload: every
        # same-basis rect position counts as an error, and branch 0 is
        # skipped; branch 1 has three diagonal positions and is skipped too
        frame = make_frame([R, R, D, R, D, R, D, D], [0, 1, 0, 1, 1, 0, 0, 1])
        disclosure = [R, R, D, R, D, R, D, R]
        for bit in (0, 1):
            verdict, counts = verify_one(
                frame, (0, 1, 1, 0), bit, 1, 0.45, disclosure=disclosure
            )
            assert verdict == "reject"
        assert counts["n_err_rect"] == counts["n_rect"] == 4
        assert counts["n_err_diag"] == counts["n_diag"] == 3

    def test_rows_verified_independently(self):
        frames = [
            make_frame([R, R, D, R, D, R, D, D], [0, 1, 0, 1, 1, 0, 0, 1]),
            make_frame([D, D, R, D, R, D, R, R], [0, 1, 0, 1, 1, 0, 0, 1]),
            make_frame([R, R, D, R, D, R, D, D], [0, 1, 0, 1, 1, 0, 0, 1],
                       bob_bases=[R, D, D, D, D, D, D, D]),
        ]
        payloads = [(0, 1, 1, 0), (0, 1, 1, 0), (1, 1, 1, 0)]
        rows = np.stack(frames)
        # code b accepts bit b, 2 rejects
        expected = {0: [0, 2, 2], 1: [2, 1, 2]}
        for bit, wanted in expected.items():
            codes, counts = bob_verify(rows, rows["alice_basis"], payloads, 2, 0.25, bit)
            for i, (frame, payload) in enumerate(zip(frames, payloads)):
                verdict, one = verify_one(frame, payload, bit, 2, 0.25)
                assert VERDICTS[codes[i]] == verdict
                assert counts[i].tolist() == list(one.values())
            assert codes.tolist() == wanted


class TestUnveilSchedule:
    def test_epoch_is_global_max(self):
        transcript = run_session(
            SessionConfig(seed=9, frame_budget=500, commit_all=True, wait_p0=7)
        )
        sched = transcript["schedule"]
        assert len(sched["send_times"]) > 2
        assert sched["epoch"] == max(
            t + sched["waits"][key.split(":")[1]]
            for key, t in sched["send_times"].items()
        )


class TestSessionConfig:
    def test_from_dict_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown config fields"):
            SessionConfig.from_dict({"n_quorter": 2})

    def test_field_named_errors(self):
        with pytest.raises(ValueError, match="flip_prob"):
            SessionConfig(flip_prob=0.6)
        with pytest.raises(ValueError, match="x:"):
            SessionConfig(n_quarter=2, x=7)


class TestCommitMasks:
    @pytest.mark.parametrize("n_quarter,x,n_tol,commit_bit", [
        (2, 6, 1, 0), (2, 6, 2, 1), (2, 3, 3, 0), (3, 20, 2, 1),
    ])
    def test_matches_per_frame_predicates(self, n_quarter, x, n_tol, commit_bit):
        config = SessionConfig(
            n_quarter=n_quarter, x=x, n_tol=n_tol, commit_bit=commit_bit,
            seed=14, detection_prob=0.5, flip_prob=0.05,
        )
        cb = Codebook(n_quarter, x)
        frames = next(proto.frame_batches(config))
        candidate, eligible, countable = proto.commit_masks(
            frames, sift_records(frames), config, cb
        )
        basis = (ref.Basis.RECTILINEAR, ref.Basis.DIAGONAL)[commit_bit]
        for i, frame in enumerate(itertools.islice(ref.frame_stream(config), len(frames))):
            is_candidate = frame.classification is FrameClass.COMMITMENT_CANDIDATE
            assert candidate[i] == is_candidate
            assert eligible[i] == (
                is_candidate
                and codebook_reference.is_codeword(cb, frame.outcomes_in_basis(basis))
            )
            assert countable[i] == ref.threshold_ok(frame, n_tol)


class TestRunSession:
    def test_honest_accept(self):
        transcript = run_session(SessionConfig(seed=1, frame_budget=200))
        assert transcript["status"] == "accept"
        assert transcript["verdict"] == "accept0"

    def test_commit_bit_one(self):
        transcript = run_session(
            SessionConfig(seed=1, frame_budget=200, commit_bit=1)
        )
        assert transcript["status"] == "accept"
        assert transcript["verdict"] == "accept1"

    def test_determinism(self):
        cfg = SessionConfig(seed=42, frame_budget=300, commit_all=True)
        a = json.dumps(run_session(cfg), sort_keys=True)
        b = json.dumps(run_session(cfg), sort_keys=True)
        assert a == b

    def test_no_commit_frame(self):
        transcript = run_session(SessionConfig(seed=0, frame_budget=1))
        assert transcript["status"] == "no_commit_frame"
        assert transcript["verdict"] is None
        assert transcript["commitments"] == []

    def test_tamper_rejected_by_relay_check(self):
        transcript = run_session(
            SessionConfig(seed=1, frame_budget=200, tamper_p1_bit=0)
        )
        assert transcript["status"] == "reject"
        assert transcript["commitments"][0]["relay_consistent"] is False

    def test_key_accounting(self):
        transcript = run_session(
            SessionConfig(seed=9, frame_budget=500, commit_all=True)
        )
        n_commits = len(transcript["commitments"])
        assert n_commits > 1
        payload_len = 4  # raw mode, 2N = 4
        consumed = sum(v["consumed"] for v in transcript["key_ledger"].values())
        assert consumed == 2 * payload_len * n_commits
        # per-channel FIFO: offsets are consecutive, never overlapping
        for channel in ("p0", "p1"):
            offsets = [
                m["key_offset"]
                for entry in transcript["commitments"]
                for m in entry["messages"]
                if m["channel"] == channel
            ]
            assert offsets == [payload_len * i for i in range(len(offsets))]

    def test_cutoff_unranked_once(self, monkeypatch):
        calls = []
        unrank = codebook.unrank
        monkeypatch.setattr(codebook, "unrank", lambda *args: calls.append(args) or unrank(*args))
        # 80,000 records: two protocol passes
        config = SessionConfig(x=5, frame_budget=10_000, commit_all=True)
        assert len(list(proto.frame_batches(config, config.frame_budget))) > 1
        assert len(run_session(config)["commitments"]) > 1
        assert calls == [(2, 5)]

    def test_schedule_invariant(self):
        transcript = run_session(
            SessionConfig(seed=9, frame_budget=500, commit_all=True)
        )
        sched = transcript["schedule"]
        for key, t in sched["send_times"].items():
            channel = key.split(":")[1]
            assert sched["epoch"] >= t + sched["waits"][channel]

    def test_compressed_payload_mode(self):
        transcript = run_session(
            SessionConfig(seed=1, frame_budget=200, payload_mode=MODE_COMPRESSED)
        )
        assert transcript["status"] == "accept"
        # ceil(log2 6) + 1 basis bit
        assert transcript["commitments"][0]["messages"][0]["length"] == 4

    def test_eligible_frame_statistics(self):
        transcript = run_session(
            SessionConfig(seed=2, frame_budget=20_000, commit_all=True)
        )
        m = transcript["frames_total"]
        p = 420 / 4096
        import math as _m

        assert abs(transcript["eligible_frames"] - m * p) <= 6 * _m.sqrt(m * p * (1 - p))


class TestCheatingAlice:
    def test_trials_guard(self):
        with pytest.raises(ValueError):
            simulate_cheating_alice(SessionConfig(seed=0), 0)

    @pytest.mark.parametrize("overrides", [{"x": 0}, {"n_tol": 5}])
    def test_no_committable_frame_refused(self, overrides):
        # no frame can commit, so the trials would never be filled
        start = time.perf_counter()
        with pytest.raises(ValueError, match="no frame can commit"):
            simulate_cheating_alice(SessionConfig(**overrides), 10)
        assert time.perf_counter() - start < 1.0

    def test_honest_side_near_one(self):
        p0, p1 = simulate_cheating_alice(SessionConfig(seed=3), 500)
        assert p0 == pytest.approx(1.0, abs=1e-9)  # noiseless honest unveiling
        assert p1 < 0.5  # luck only


class TestConcealment:
    def test_ciphertext_independent_of_bit(self):
        # quick smoke version of the acceptance chi-square: the ciphertext
        # bit distribution to P0 should look uniform for either bit
        from scipy.stats import chisquare

        for bit in (0, 1):
            transcript = run_session(
                SessionConfig(
                    seed=13, frame_budget=30_000, commit_all=True, commit_bit=bit
                )
            )
            ones = zeros = 0
            for entry in transcript["commitments"]:
                msg = entry["messages"][0]
                raw = bytes.fromhex(msg["ciphertext_hex"])
                from pbc_bb84.codebook import unpack_bits

                bits = unpack_bits(raw)
                ones += sum(bits)
                zeros += len(bits) - sum(bits)
            assert ones + zeros >= 4000
            _, p_value = chisquare([zeros, ones])
            assert p_value > 1e-3
