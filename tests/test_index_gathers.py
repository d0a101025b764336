"""Row and field gathers by index against the mask formulation.

``commit_masks``, ``_commit_substrings`` and the cheating simulator take
rows of ``RECORD`` frames as their ``<u4`` words and fields by index, and
``distill`` ranks every row, or none when no row credits fewer bits than
it sifted.
The references below are the structured-row, boolean-mask forms they
replace; every result must be equal, on frames of N = 1-3 with any field
values, including passes with no frame, no candidate, no credited bit, and
every row full at rate 1.
"""

import math

import numpy as np
from hypothesis import example, given, settings, strategies as st

from pbc_bb84 import bb84_frames
from pbc_bb84 import commitment_protocol as cp
from pbc_bb84.bb84_frames import RECORD, distill, row_counts, sift_records
from pbc_bb84.codebook import Codebook, is_codeword
from pbc_bb84.commitment_protocol import SessionConfig, bob_verify, frame_batches


def reference_substrings(rows, bit):
    return rows["outcome"][rows["alice_basis"] == bit].reshape(-1, rows.shape[-1] // 2)


def reference_masks(frames, sifted, config, cb):
    alice = frames["alice_basis"]
    candidate = bb84_frames.classify_frame(frames, config.n_quarter)
    eligible = candidate.copy()
    eligible[candidate] = is_codeword(cb, reference_substrings(frames[candidate], config.commit_bit))
    n_rect = np.count_nonzero(sifted & (alice == 0), axis=-1)
    n_diag = np.count_nonzero(sifted & (alice == 1), axis=-1)
    countable = (n_rect >= config.n_tol) & (n_diag >= config.n_tol)
    return candidate, eligible, countable


def reference_distill(sifted, rate):
    rank = np.cumsum(sifted, axis=-1, dtype=np.int64)
    return sifted & (rank <= np.floor(rank[..., -1:] * rate))


def random_frames(n_frames, n_quarter, seed, rect, step):
    """``(n_frames, 4N)`` frames whose fields are fair coins but Alice's
    basis, rectilinear with chance ``rect``; every ``step``-th row of a
    taller array, so the rows need not be adjacent."""
    rng = np.random.default_rng(seed)
    shape = (n_frames * step, 4 * n_quarter)
    records = np.zeros(shape, RECORD)
    records["alice_basis"] = rng.random(shape) >= rect
    for field in ("outcome", "bob_basis", "bob_bit"):
        records[field] = rng.integers(0, 2, shape)
    return records[::step]


@st.composite
def passes(draw):
    """A pass of frames with a config and codebook: N = 1-3, any x, either
    commit bit, n_tol up to 2N + 1, and Alice's bases from all diagonal
    (no candidate) to all rectilinear."""
    n = draw(st.integers(1, 3))
    frames = random_frames(
        draw(st.integers(0, 60)), n, draw(st.integers(0, 2**32 - 1)),
        draw(st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 1.0)),
        draw(st.integers(1, 3)))
    config = SessionConfig(
        n_quarter=n, x=draw(st.integers(0, math.comb(2 * n, n))),
        commit_bit=draw(st.integers(0, 1)), n_tol=draw(st.integers(1, 2 * n + 1)))
    return frames, config, Codebook(n, config.x)


class TestCommitSubstrings:
    @settings(max_examples=200, deadline=None)
    @given(passes())
    def test_match_mask_gather(self, case):
        frames, config, _ = case
        candidate = bb84_frames.classify_frame(frames, config.n_quarter)
        rows = frames[candidate]
        for bit in (0, 1):
            got = cp._commit_substrings(rows, bit)
            assert got.dtype == np.int8
            assert np.array_equal(got, reference_substrings(rows, bit))
            assert got.shape == (len(rows), 2 * config.n_quarter)


class TestCommitMasks:
    @settings(max_examples=200, deadline=None)
    @given(passes())
    def test_match_mask_formulation(self, case):
        frames, config, cb = case
        sifted = sift_records(frames)
        got = cp.commit_masks(frames, sifted, row_counts(sifted), config, cb)
        for mask, expected in zip(got, reference_masks(frames, sifted, config, cb)):
            assert mask.dtype == bool
            assert np.array_equal(mask, expected)

    def test_session_passes(self):
        # lossless and lossy passes of a session, with and without
        # candidates committing
        for config in (SessionConfig(seed=1, frame_budget=3000),
                       SessionConfig(seed=2, n_quarter=3, x=20, detection_prob=0.3,
                                     flip_prob=0.05, frame_budget=3000),
                       SessionConfig(seed=3, n_quarter=1, x=1, n_tol=1, frame_budget=3000)):
            cb = Codebook(config.n_quarter, config.x)
            for frames in frame_batches(config, config.frame_budget):
                sifted = sift_records(frames)
                got = cp.commit_masks(frames, sifted, row_counts(sifted), config, cb)
                for mask, expected in zip(got, reference_masks(frames, sifted, config, cb)):
                    assert np.array_equal(mask, expected)


class TestDistill:
    @settings(max_examples=300, deadline=None)
    @given(shape=st.one_of(
               st.tuples(st.integers(0, 40), st.sampled_from([4, 8, 12])),
               st.tuples(st.sampled_from([4, 8, 12]))),
           density=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
           rate=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
           seed=st.integers(0, 2**32 - 1))
    # no frame; no credited bit; every row full at rate 1; 1-D rows
    @example(shape=(0, 8), density=1.0, rate=0.5, seed=0)
    @example(shape=(5, 8), density=1.0, rate=0.0, seed=0)
    @example(shape=(5, 8), density=0.0, rate=1.0, seed=0)
    @example(shape=(5, 12), density=1.0, rate=1.0, seed=0)
    @example(shape=(8,), density=1.0, rate=1.0, seed=0)
    @example(shape=(8,), density=0.7, rate=0.4, seed=1)
    def test_match_ranks_of_every_row(self, shape, density, rate, seed):
        sifted = np.random.default_rng(seed).random(shape) < density
        before = sifted.copy()
        count = np.count_nonzero(sifted, axis=-1).astype(np.int16)
        credited, credit = distill(sifted, count, rate)
        assert credited.dtype == bool and credited.shape == sifted.shape
        assert np.array_equal(credited, reference_distill(sifted, rate))
        assert credit.dtype == np.int16
        assert credit.tolist() == np.count_nonzero(credited, axis=-1).tolist()
        # a new mask: the caller's sift mask is neither changed nor shared
        assert np.array_equal(sifted, before) and not np.shares_memory(credited, sifted)

    def test_full_rows_at_rate_one(self):
        sifted = random_frames(50, 2, 4, 0.5, 1)["alice_basis"] == 0
        count = row_counts(sifted)
        assert np.array_equal(distill(sifted, count, 1.0)[0], sifted)
        credited, credit = distill(sifted, count, 0.0)
        assert row_counts(credited).tolist() == credit.tolist() == [0] * 50


def reference_cheating_alice(config, trials):
    """``simulate_cheating_alice`` with rows taken by a mask, as structured
    rows."""
    cb = Codebook(config.n_quarter, config.x)
    succ, done = [0, 0], 0
    for frames in frame_batches(config):
        _, eligible, countable = reference_masks(frames, sift_records(frames), config, cb)
        rows = frames[eligible & countable][: trials - done]
        honest = rows["alice_basis"]
        substrings = reference_substrings(rows, config.commit_bit)
        for target in (0, 1):
            disclosure = honest if target == config.commit_bit else 1 - honest
            codes, _ = bob_verify(rows, disclosure, substrings, config.n_tol, config.e_tol, target)
            succ[target] += int(np.count_nonzero(codes == target))
        done += len(rows)
        if done >= trials:
            return succ[0] / trials, succ[1] / trials


def test_cheating_alice_matches_mask_rows():
    for config, trials in ((SessionConfig(seed=10, n_tol=1, e_tol=0.3), 3000),
                           (SessionConfig(seed=11, n_quarter=1, x=1, n_tol=1, commit_bit=1), 500),
                           (SessionConfig(seed=12, n_quarter=3, x=20, flip_prob=0.05), 200)):
        assert cp.simulate_cheating_alice(config, trials) == reference_cheating_alice(config, trials)
