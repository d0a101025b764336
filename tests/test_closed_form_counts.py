"""A session's frame counts against their closed-form distributions.

Over F frames of a ``commit_all`` session, each frame's records are i.i.d.
(loss is an erasure independent of every field), Alice's and Bob's bases
are fair coins, and a frame's outcomes are fair coins independent of which
records are sifted.  So, with B ~ Bin(2N, 1/2) the same-basis count of one
basis of a candidate frame:

- ``candidate_frames`` ~ Bin(F, C(4N, 2N) / 2^(4N));
- ``eligible_frames`` ~ Bin(F, ``math_core.commit_probability(N, x)``);
- ``threshold_skipped`` ~ Bin(``eligible_frames``, 1 - P(B >= N_tol)^2),
  since under ``commit_all`` every eligible frame is counted, and an
  eligible frame is skipped exactly when it is not countable;
- ``sifted_bits`` plus the committed rows' ``n_rect + n_diag`` ~
  Bin(4N F, 1/2): every record, committed or not, is sifted with chance
  1/2.  The sessions are untampered, so every committed row's counts are
  present.

Each check is a z-score against a normal approximation of its binomial.
The 16 sessions below make 64 checks; at |z| <= 4.3 each fails by chance
with probability 1.7e-5, so the family fails by chance with probability
at most 64 * 1.7e-5 = 1.1e-3 (Bonferroni).  At ``q_tol`` 0 the rate is 1
per sifted record, so each non-committing frame credits every sifted
record and the key ledger's generated bits equal ``sifted_bits`` exactly.
"""

import math

import pytest

from pbc_bb84 import math_core
from pbc_bb84.commitment_protocol import SessionConfig, run_session

Z_MAX = 4.3
FRAMES = 30_000

#: (N, x, N_tol): N = 1-3, x from 1 to C(2N, N), N_tol = 1-3
PARAMETERS = [(1, 1, 1), (1, 2, 2), (2, 1, 1), (2, 3, 2), (2, 6, 3),
              (3, 5, 1), (3, 20, 2), (3, 12, 3)]
CHANNELS = [{}, {"detection_prob": 0.3, "flip_prob": 0.02, "q_tol": 0.02}]
CONFIGS = [
    SessionConfig(n_quarter=n, x=x, n_tol=n_tol, frame_budget=FRAMES, commit_all=True,
                  seed=seed, **channel)
    for seed, ((n, x, n_tol), channel) in enumerate(
        (params, channel) for channel in CHANNELS for params in PARAMETERS)
]


def z_score(k, n, p):
    """(k - np) / sqrt(np(1 - p)), the z-score of k draws of Bin(n, p)."""
    return (k - n * p) / math.sqrt(n * p * (1 - p))


def tail(n_tol, n_quarter):
    """P(B >= n_tol), B ~ Bin(2N, 1/2)."""
    two_n = 2 * n_quarter
    return sum(math.comb(two_n, k) for k in range(n_tol, two_n + 1)) / 2**two_n


def test_grid_makes_64_checks():
    # the stated family-wise rate counts 4 checks per session
    assert len(CONFIGS) * 4 == 64
    assert all(0 < tail(c.n_tol, c.n_quarter) < 1 for c in CONFIGS)


@pytest.mark.parametrize("config", CONFIGS, ids=lambda c: (
    f"N{c.n_quarter}-x{c.x}-tol{c.n_tol}-det{c.detection_prob}"))
def test_counts_match_closed_forms(config):
    t = run_session(config)
    n, frames = config.n_quarter, t["frames_total"]
    assert frames == FRAMES
    columns = t["commitments"]
    assert columns.consistent.all()
    committed_sifted = int(columns.counts[:, :2].sum())
    z = {
        "candidate_frames": z_score(
            t["candidate_frames"], frames, math.comb(4 * n, 2 * n) / 2 ** (4 * n)),
        "eligible_frames": z_score(
            t["eligible_frames"], frames, math_core.commit_probability(n, config.x)),
        "threshold_skipped": z_score(
            t["threshold_skipped"], t["eligible_frames"], 1 - tail(config.n_tol, n) ** 2),
        "sifted records": z_score(
            t["sifted_bits"] + committed_sifted, 4 * n * frames, 0.5),
    }
    assert all(abs(v) <= Z_MAX for v in z.values()), z
    if config.q_tol == 0.0:
        ledger = t["key_ledger"]
        assert ledger["p0"]["generated"] + ledger["p1"]["generated"] == t["sifted_bits"]
