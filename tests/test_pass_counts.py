"""One sifted count per pass against the forms it replaced.

A protocol pass takes its frames' sifted counts once, ``row_counts`` of the
sift mask: ``commit_masks``, ``distill``, ``try_commit`` and the
transcript's ``sifted_bits`` all read them, and ``bob_verify`` judges
alignment by the verification counts alone.  The references below are the
earlier forms: each pass counts with ``count_nonzero``, ranks every row
with int64 ``cumsum``, gives ``try_commit`` the credited mask's row counts
and takes ``sifted_bits`` by clearing the committing rows of the sift mask;
``bob_verify`` tests the claimed basis's alignment itself.  Sessions cover
N = 1-3, ``commit_all`` on and off, lossy channels, ``q_tol`` > 0 and
sessions with no commitment; hand-made passes cover rows with no sifted
record and passes whose every row is full at rate 1.
"""

import math
from unittest import mock

import numpy as np
from hypothesis import example, given, settings, strategies as st

from pbc_bb84 import commitment_protocol as cp
from pbc_bb84 import math_core
from pbc_bb84.bb84_frames import RECORD, row_counts, sift_records
from pbc_bb84.codebook import Codebook
from pbc_bb84.commitment_protocol import SessionConfig, bob_verify, compute_verification_counts
from test_index_gathers import reference_distill, reference_masks


def reference_pass_counts(passes, config):
    """The pass loop's counts as ``run_session`` took them before one count
    per pass: (frames_total, candidate, eligible, threshold_skipped,
    insufficient_key_aborts, sifted_bits, dealt key bits, frame ids)."""
    cb = Codebook(config.n_quarter, config.x)
    rate = max(0.0, math_core.final_key_rate(config.q_tol))
    length = cp.payload_length(cb, config.payload_mode)
    totals, dealt, frame_ids = [0] * 6, 0, []
    for frames in passes:
        sifted = sift_records(frames)
        candidate, eligible, countable = reference_masks(frames, sifted, config, cb)
        credited = reference_distill(sifted, rate)
        picked, skipped, aborts = cp.try_commit(
            np.flatnonzero(eligible), countable, row_counts(credited),
            dealt, len(frame_ids), length, config.commit_all,
        )
        sifted[picked] = credited[picked] = False
        dealt += int(np.count_nonzero(credited))
        frame_ids += [totals[0] + i for i in picked]
        for k, n in enumerate((len(frames), np.count_nonzero(candidate),
                               np.count_nonzero(eligible), skipped, aborts,
                               np.count_nonzero(sifted))):
            totals[k] += int(n)
    return (*totals, dealt, frame_ids)


def session_counts(transcript):
    """The same counts read from a ``run_session`` transcript."""
    ledger = transcript["key_ledger"]
    return (
        *(transcript[key] for key in (
            "frames_total", "candidate_frames", "eligible_frames", "threshold_skipped",
            "insufficient_key_aborts", "sifted_bits")),
        ledger["p0"]["generated"] + ledger["p1"]["generated"],
        transcript["commitments"].frame_id.tolist(),
    )


@st.composite
def session_configs(draw):
    n = draw(st.integers(1, 3))
    return SessionConfig(
        n_quarter=n,
        # x = 0 and n_tol = 2N + 1 give sessions with no commitment
        x=draw(st.integers(0, math.comb(2 * n, n))),
        commit_bit=draw(st.integers(0, 1)),
        n_tol=draw(st.integers(1, 2 * n + 1)),
        seed=draw(st.integers(0, 2**16)),
        detection_prob=draw(st.sampled_from([1.0, 0.3, 0.05])),
        flip_prob=draw(st.sampled_from([0.0, 0.02])),
        # rate 1, two rates below 1 and rate 0 (h(0.1) is past the zero)
        q_tol=draw(st.sampled_from([0.0, 0.03, 0.06, 0.1])),
        commit_all=draw(st.booleans()),
        frame_budget=draw(st.integers(1, 1500)),
    )


class TestSessionCounts:
    @settings(max_examples=60, deadline=None)
    @given(session_configs())
    @example(SessionConfig(n_quarter=1, x=0, frame_budget=400, commit_all=True))
    @example(SessionConfig(n_quarter=3, x=20, n_tol=7, frame_budget=400))
    def test_match_reference_counts(self, config):
        expected = reference_pass_counts(cp.frame_batches(config, config.frame_budget), config)
        assert session_counts(cp.run_session(config)) == expected

    def test_multi_pass_sessions(self):
        # 2^16 records end the first pass: counts carry across passes
        for config in (SessionConfig(seed=3, n_quarter=1, x=2, frame_budget=20_000,
                                     commit_all=True),
                       SessionConfig(seed=13, n_quarter=1, x=2, detection_prob=0.4,
                                     flip_prob=0.03, q_tol=0.03, frame_budget=20_000,
                                     commit_all=True)):
            passes = list(cp.frame_batches(config, config.frame_budget))
            assert len(passes) > 1
            assert session_counts(cp.run_session(config)) == reference_pass_counts(passes, config)


def hand_made_passes(n_quarter, sizes, sift, seed):
    """Contiguous passes of frames whose fields are fair coins but Bob's
    basis, which matches Alice's with chance ``sift``: at 1 every row is
    full, at 0 no row holds a sifted record."""
    rng = np.random.default_rng(seed)
    passes = []
    for size in sizes:
        frames = np.zeros((size, 4 * n_quarter), RECORD)
        for field in ("alice_basis", "outcome", "bob_bit"):
            frames[field] = rng.integers(0, 2, frames.shape)
        frames["bob_basis"] = frames["alice_basis"] ^ (rng.random(frames.shape) >= sift)
        passes.append(frames)
    return passes


class TestHandMadePasses:
    @settings(max_examples=80, deadline=None)
    @given(n=st.integers(1, 3), sizes=st.lists(st.integers(0, 300), min_size=1, max_size=3),
           sift=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
           q_tol=st.sampled_from([0.0, 0.03, 0.1]), commit_all=st.booleans(),
           n_tol=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
    # every row full at rate 1; no sifted record; a pass with no frame
    @example(n=2, sizes=[200, 200], sift=1.0, q_tol=0.0, commit_all=True, n_tol=2, seed=0)
    @example(n=1, sizes=[300], sift=0.0, q_tol=0.0, commit_all=True, n_tol=1, seed=0)
    @example(n=3, sizes=[0, 100], sift=0.5, q_tol=0.03, commit_all=False, n_tol=3, seed=0)
    def test_match_reference_counts(self, n, sizes, sift, q_tol, commit_all, n_tol, seed):
        config = SessionConfig(n_quarter=n, x=math.comb(2 * n, n), n_tol=n_tol, q_tol=q_tol,
                               commit_all=commit_all, frame_budget=sum(sizes) or 1)
        passes = hand_made_passes(n, sizes, sift, seed)
        expected = reference_pass_counts(passes, config)
        with mock.patch.object(cp, "frame_batches", lambda *_: iter(passes)):
            assert session_counts(cp.run_session(config)) == expected


def reference_bob_verify(rows, disclosure, payloads, n_tol, e_tol, claimed_bit):
    """``bob_verify`` with its own test that the claimed basis holds
    exactly L disclosed positions."""
    disclosure, payloads = np.asarray(disclosure), np.asarray(payloads)
    counts = compute_verification_counts(rows, disclosure, payloads)
    aligned = np.count_nonzero(disclosure == claimed_bit, axis=1) == payloads.shape[1]
    passes = (
        aligned
        & (counts[:, 2 + claimed_bit] <= e_tol * n_tol)
        & (counts[:, :2].min(axis=1) >= n_tol)
    )
    return np.where(passes, claimed_bit, 2), counts


@st.composite
def unveilings(draw):
    """Rows of N = 1-3 with a disclosure and payloads: honest, every basis
    flipped, or honest with some positions flipped (misaligned unless the
    flips balance), and payloads read off the claimed basis's disclosed
    outcomes where that basis holds L positions, with some bits flipped."""
    n = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    size, width = draw(st.integers(0, 30)), 4 * n
    rows = np.zeros((size, width), RECORD)
    # candidate rows (2N positions per basis) and rows of any bases
    bases = np.argsort(rng.random((size, width)), axis=1) % 2
    free = rng.random(size) < draw(st.sampled_from([0.0, 0.3]))
    bases[free] = rng.integers(0, 2, (np.count_nonzero(free), width))
    rows["alice_basis"] = bases
    rows["outcome"] = rng.integers(0, 2, rows.shape)
    sift = draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0))
    rows["bob_basis"] = bases ^ (rng.random(rows.shape) >= sift)
    rows["bob_bit"] = rows["outcome"] ^ (rng.random(rows.shape) < draw(st.sampled_from([0.0, 0.1])))
    mode = draw(st.sampled_from(["honest", "flipped", "partly flipped"]))
    disclosure = bases if mode == "honest" else 1 - bases
    if mode == "partly flipped":
        disclosure = bases ^ (rng.random(rows.shape) < 0.2)
    claimed_bit = draw(st.integers(0, 1))
    payloads = rng.integers(0, 2, (size, 2 * n)).astype(np.int8)
    for i in range(size):
        at = disclosure[i] == claimed_bit
        if np.count_nonzero(at) == 2 * n:
            payloads[i] = rows["outcome"][i][at]
    payloads ^= rng.random(payloads.shape) < draw(st.sampled_from([0.0, 0.1]))
    return (rows, disclosure.astype(np.int8), payloads, draw(st.integers(1, 2 * n + 1)),
            draw(st.sampled_from([0.0, 0.25]) | st.floats(0.0, 0.5, exclude_max=True)),
            claimed_bit)


class TestBobVerify:
    @settings(max_examples=300, deadline=None)
    @given(unveilings())
    def test_match_explicit_alignment(self, case):
        rows, disclosure, payloads, n_tol, e_tol, claimed_bit = case
        codes, counts = bob_verify(*case)
        expected_codes, expected_counts = reference_bob_verify(*case)
        assert codes.tolist() == expected_codes.tolist()
        assert np.array_equal(counts, expected_counts)
        aligned = np.count_nonzero(disclosure == claimed_bit, axis=1) == payloads.shape[1]
        assert not (codes[~aligned] == claimed_bit).any()

    def test_misaligned_rows_with_no_error_elsewhere(self):
        # a claim whose basis holds 2N + 1 disclosed positions: every record
        # sifted and Bob's bits equal to the outcomes, so only alignment
        # can reject it
        n, rows = 2, np.zeros((1, 8), RECORD)
        rows["alice_basis"] = rows["bob_basis"] = [0, 0, 0, 0, 0, 1, 1, 1]
        payloads = np.zeros((1, 4), np.int8)
        for e_tol in (0.0, 0.25, 0.49):
            for n_tol in range(1, 2 * n + 2):
                case = (rows, rows["alice_basis"], payloads, n_tol, e_tol, 0)
                assert bob_verify(*case)[0].tolist() == [2]
                assert reference_bob_verify(*case)[0].tolist() == [2]
