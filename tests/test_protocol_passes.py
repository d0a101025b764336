"""Protocol passes of 2^16 records and per-row counts as dot products.

``row_counts`` against ``np.count_nonzero(axis=1)`` and the int16 ranks of
``distill`` against int64 ones, over every frame width up to
4 * ``MAX_N_QUARTER``; sessions whose transcripts must not depend on where
the passes end; and the memory a pass holds however long the session.
"""

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from pbc_bb84 import commitment_protocol as cp
from pbc_bb84.bb84_frames import distill, row_counts
from pbc_bb84.commitment_protocol import SessionConfig, run_session, simulate_cheating_alice
from transcript_reference import document

WIDEST = 4 * cp.MAX_N_QUARTER

WIDTHS = st.one_of(st.integers(1, 16), st.integers(1, WIDEST), st.just(WIDEST))


def random_mask(n, width, density, seed, step=1):
    """An ``(n, width)`` bool mask, every ``step``-th column of a wider one."""
    return (np.random.default_rng(seed).random((n, width * step)) < density)[:, ::step]


class TestRowCounts:
    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(0, 6), width=WIDTHS, density=st.floats(0.0, 1.0),
           seed=st.integers(0, 2**32 - 1), step=st.integers(1, 3), as_int8=st.booleans())
    @example(n=3, width=WIDEST, density=1.0, seed=0, step=1, as_int8=False)
    @example(n=3, width=WIDEST, density=1.0, seed=0, step=1, as_int8=True)
    @example(n=0, width=WIDEST, density=1.0, seed=0, step=1, as_int8=False)
    def test_match_count_nonzero(self, n, width, density, seed, step, as_int8):
        mask = random_mask(n, width, density, seed, step)
        expected = np.count_nonzero(mask, axis=1)
        counts = row_counts(mask.astype(np.int8) if as_int8 else mask)
        assert counts.dtype == np.int16
        assert counts.shape == (n,)
        assert counts.tolist() == expected.tolist()

    def test_int16_range(self):
        assert row_counts(np.ones((1, 2**15 - 1), bool)).tolist() == [2**15 - 1]
        with pytest.raises(ValueError):
            row_counts(np.ones((1, 2**15), bool))


class TestDistill:
    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(0, 6), width=WIDTHS, density=st.floats(0.0, 1.0),
           seed=st.integers(0, 2**32 - 1), rate=st.floats(0.0, 1.0))
    # every record sifted: the last rank is 4096, the largest a row holds
    @example(n=2, width=WIDEST, density=1.0, seed=0, rate=1.0)
    @example(n=0, width=WIDEST, density=1.0, seed=0, rate=0.5)
    def test_matches_int64_ranks(self, n, width, density, seed, rate):
        sifted = random_mask(n, width, density, seed)
        rank = np.cumsum(sifted, axis=-1, dtype=np.int64)
        expected = sifted & (rank <= np.floor(rank[..., -1:] * rate))
        assert np.array_equal(distill(sifted, rate), expected)


def _one_batch_passes(monkeypatch):
    """The pass target below every RNG batch: one pass per lossless batch."""
    monkeypatch.setattr(cp, "_PASS_RECORDS", 1)


SESSIONS = [
    # 80,000 records: the budget cuts the second of two passes
    SessionConfig(seed=3, n_quarter=1, x=2, frame_budget=20_000, commit_all=True),
    # three one-batch passes, the third cut, against one pass
    SessionConfig(seed=4, frame_budget=1500),
    SessionConfig(seed=5, frame_budget=1500, commit_all=True, tamper_p1_bit=3),
    SessionConfig(seed=6, n_quarter=3, x=20, frame_budget=6000, commit_all=True,
                  tamper_p1_bit=5),
    SessionConfig(seed=7, detection_prob=0.1, flip_prob=0.02, q_tol=0.02,
                  frame_budget=2000, commit_all=True),
    SessionConfig(seed=8, n_quarter=1, x=1, detection_prob=0.3, flip_prob=0.03,
                  q_tol=0.03, n_tol=1, frame_budget=20_000, tamper_p1_bit=1),
    SessionConfig(seed=9, n_quarter=3, x=10, detection_prob=0.5, flip_prob=0.01,
                  q_tol=0.01, frame_budget=7000, commit_all=True),
]


class TestPassBoundaries:
    @pytest.mark.parametrize("config", SESSIONS)
    def test_transcript_bytes_match_one_batch_passes(self, config, monkeypatch):
        default = json.dumps(document(run_session(config)), indent=2, sort_keys=True)
        passes = len(list(cp.frame_batches(config, config.frame_budget)))
        _one_batch_passes(monkeypatch)
        assert len(list(cp.frame_batches(config, config.frame_budget))) > passes
        assert json.dumps(document(run_session(config)), indent=2, sort_keys=True) == default

    def test_cheating_alice_matches_one_batch_passes(self, monkeypatch):
        config = SessionConfig(seed=10, n_tol=1, e_tol=0.3)
        default = simulate_cheating_alice(config, 3000)
        _one_batch_passes(monkeypatch)
        assert simulate_cheating_alice(config, 3000) == default

    def test_pass_memory_bounded(self):
        # 200,000 frames of 16 records frame 12.8 MB; each pass holds about
        # 2^16 records (256 KiB) and the RNG batch being joined to them
        config = SessionConfig(n_quarter=4, x=1)
        framed = 0
        tracemalloc.start()
        try:
            for frames in cp.frame_batches(config, 200_000):
                framed += frames.nbytes
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert framed == 200_000 * 16 * 4
        assert peak < 2**22
