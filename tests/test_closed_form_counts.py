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

- the key credited at rate r < 1, the ledger's generated bits (P0 plus
  P1) plus floor((n_rect + n_diag) * r) over the committed rows, is a sum
  of F i.i.d. floor(S * r), S ~ Bin(4N, 1/2) a frame's sifted count: a
  non-committing frame deals floor(s * r) key bits, and a committing
  frame's counts are its sifted records.  It is checked at ``q_tol`` > 0,
  unless floor(s * r) is 0 for every s <= 4N.

Each check is a z-score against a normal approximation of its binomial,
or of the credited sum (mean and variance F times those of floor(S * r)).
The 16 sessions below make 72 checks; at |z| <= 4.3 each fails by chance
with probability 1.7e-5, so the family fails by chance with probability
at most 72 * 1.7e-5 = 1.2e-3 (Bonferroni).  At ``q_tol`` 0 the rate is 1
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


def rate(config):
    return max(0.0, math_core.final_key_rate(config.q_tol))


def credit_moments(n_quarter, r):
    """Mean and variance of floor(S * r), S ~ Bin(4N, 1/2); the product is
    the float64 one the session takes."""
    signals = 4 * n_quarter
    credit = [(math.comb(signals, s) / 2**signals, math.floor(s * r))
              for s in range(signals + 1)]
    mean = sum(p * c for p, c in credit)
    return mean, sum(p * c * c for p, c in credit) - mean**2


def credited_at_rate(config):
    """Whether the session's credited key is checked against its closed
    form: the rate is below 1 and some sifted count credits a bit."""
    return config.q_tol > 0 and math.floor(4 * config.n_quarter * rate(config)) > 0


def test_grid_makes_72_checks():
    # the stated family-wise rate counts 4 checks per session and one per
    # session credited at a rate below 1
    assert len(CONFIGS) * 4 + sum(map(credited_at_rate, CONFIGS)) == 72
    assert all(0 < tail(c.n_tol, c.n_quarter) < 1 for c in CONFIGS)
    assert all(0 < rate(c) < 1 for c in CONFIGS if c.q_tol > 0)


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
    ledger = t["key_ledger"]
    dealt = ledger["p0"]["generated"] + ledger["p1"]["generated"]
    if credited_at_rate(config):
        r = rate(config)
        mean, var = credit_moments(n, r)
        committed = columns.counts[:, :2].sum(axis=1).tolist()
        credited = dealt + sum(math.floor(s * r) for s in committed)
        z["key credited"] = (credited - frames * mean) / math.sqrt(frames * var)
    assert all(abs(v) <= Z_MAX for v in z.values()), z
    if config.q_tol == 0.0:
        assert dealt == t["sifted_bits"]
