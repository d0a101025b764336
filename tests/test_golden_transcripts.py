"""Golden transcripts: sha256 of ``pbc-bb84 simulate`` output per config.

The digests pin every byte of the transcript, so any change to the RNG
draw order, the batching of pulses, the carry-over of detected records
between RNG batches and protocol passes, the frame-budget cut, the key
ledger or the JSON encoding shows up here.  The configs cover both
benchmark sessions, every payload mode and commit bit, tampering, other
frame sizes, threshold skips, insufficient-key aborts and low-detection
runs where one protocol pass merges many RNG batches, one of them with
insufficient-key aborts.  Regenerate a digest only for a change that alters
transcripts on purpose, and say so where the change is recorded.
"""

import hashlib
import json

import pytest

from pbc_bb84 import cli

# The two session configs of bench/workloads.py at benchmark seed 0.
SESSION_IDEAL = {
    "n_quarter": 2, "x": 6, "commit_all": True, "frame_budget": 5000,
    "seed": 1078902105,
}
SESSION_LOSSY = dict(
    SESSION_IDEAL, frame_budget=2000, detection_prob=0.1, flip_prob=0.02,
    q_tol=0.02, seed=4120014949,
)

# name: (config, exit code, sha256 of the output file).  The digests were
# computed with the per-object frame pipeline, before the array pipeline
# replaced it.
GOLDEN = {
    "session_ideal": (
        SESSION_IDEAL, 0,
        "86ab5eed8445ce6df10abdd417491c4e4f6f02cbc873cc0e662e4a3c231c5a11",
    ),
    "session_lossy": (
        SESSION_LOSSY, 0,
        "38c918c2d1ee17990435a796b34bebdd53c277a511486b1705346282a31f74f9",
    ),
    "default": (
        {}, 0,
        "402ab5ccb44f6ad9610d9365622aa93c7ab09f7ef4853f1e43a15cef94539b01",
    ),
    "commit_all": (
        {"seed": 3, "frame_budget": 1500, "commit_all": True}, 0,
        "10302301fc7a99c8353eb534199427bf0a41f8c7adc2694eb88e4f07f34f89d6",
    ),
    "compressed": (
        {"seed": 1, "frame_budget": 600, "commit_all": True,
         "payload_mode": "compressed"}, 0,
        "6d3556cddc1d6e6e9d23f52f03a80bbe964abc39fa927349745a037a8defead1",
    ),
    # rank width 5, the basis bit of bit 1 and a tamper on a compressed
    # payload; computed before the codebook steps took arrays
    "compressed_n_quarter_3": (
        {"seed": 15, "n_quarter": 3, "x": 20, "frame_budget": 800,
         "commit_all": True, "payload_mode": "compressed", "commit_bit": 1,
         "tamper_p1_bit": 2}, 2,
        "dcd5d2f79586264fa463dc5bac574c2f2107564c09410e8bc75405cda12edc3a",
    ),
    "commit_bit_1": (
        {"seed": 5, "frame_budget": 600, "commit_all": True, "commit_bit": 1}, 0,
        "d360727b21b5d5ed95b9e2cff13d8e4b4102defc00d4385be8a7827a2f3883eb",
    ),
    "tamper": (
        {"seed": 1, "frame_budget": 200, "tamper_p1_bit": 2}, 2,
        "053a67ab277b6bee6270ffd5b8bc5229b8be166299f90580bd7be3913756b7d9",
    ),
    "n_quarter_1": (
        {"seed": 6, "n_quarter": 1, "x": 2, "frame_budget": 800,
         "commit_all": True}, 0,
        "ad60bfd850a2b423ddc34982f17d65e6dea1c25fff9d4761ff2abbb0fb792e78",
    ),
    "n_quarter_3": (
        {"seed": 7, "n_quarter": 3, "x": 20, "frame_budget": 800,
         "commit_all": True, "n_tol": 3}, 0,
        "61eded871b6a17540605c98628cf4b447c7636e5ddb07dec32a83b022d01c6dd",
    ),
    "n_tol_4": (
        {"seed": 8, "frame_budget": 800, "commit_all": True, "n_tol": 4}, 3,
        "bea8977a1f5e65ef4c90e86feec6407c35460441c46ec848ec63e4de129a8a16",
    ),
    "q_tol_insufficient": (
        {"seed": 9, "frame_budget": 400, "commit_all": True, "q_tol": 0.11}, 3,
        "74b2ea4ba49204710f794feefa42c2142c27f6d729769808b80863b7475aadec",
    ),
    "frame_budget_1": (
        {"seed": 0, "frame_budget": 1}, 3,
        "ce9772b1be88bb8a4fe3a5d09e30a5cae03f8c74c7e22522bbe6b970019239c8",
    ),
    "detection_low": (
        {"seed": 10, "frame_budget": 300, "commit_all": True,
         "detection_prob": 0.03, "flip_prob": 0.01}, 0,
        "360a7b9fe80753a94002ffb4ca9650284f71b4bc512f73372eb3c62fad330069",
    ),
    "single_lossy": (
        {"seed": 11, "frame_budget": 300, "detection_prob": 0.1, "flip_prob": 0.05,
         "q_tol": 0.03, "e_tol": 0.3, "wait_p0": 0, "wait_p1": 9}, 0,
        "f95f2c5230e81b0a4cc75bf9242aa4c5d34fd5788b0145f372e2aceaa3b3b03d",
    ),
    "single_threshold": (
        {"seed": 12, "frame_budget": 300, "n_tol": 3}, 0,
        "55fd8c23a7ea12eb42498e496f6ff4db48c6b12acf6914960f3a0acb7c0a8bc1",
    ),
    # 24 RNG batches in one protocol pass, with 7 insufficient-key aborts
    # and 40 threshold skips among them; computed with one pass per RNG batch
    "lossy_key_aborts": (
        {"seed": 13, "frame_budget": 600, "commit_all": True,
         "detection_prob": 0.05, "flip_prob": 0.01, "q_tol": 0.045}, 0,
        "7cc409e2dbed19a3a68c40e4afd9979d006fb33a7ec457d386ae5749accf3773",
    ),
}


def simulate(tmp_path, config):
    path = tmp_path / "session.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "transcript.json"
    code = cli.main(["simulate", "--config", str(path), "-o", str(out)])
    data = out.read_bytes()
    return code, hashlib.sha256(data).hexdigest(), json.loads(data)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_transcript_digest(name, tmp_path):
    config, want_code, want_digest = GOLDEN[name]
    code, digest, _ = simulate(tmp_path, config)
    assert (code, digest) == (want_code, want_digest)


# Transcript counters that must be non-zero, so that each config keeps
# exercising the path it was chosen for.
REACHES = {
    "n_tol_4": "threshold_skipped",
    "single_threshold": "threshold_skipped",
    "q_tol_insufficient": "insufficient_key_aborts",
    "frame_budget_1": "insufficient_key_aborts",
    "lossy_key_aborts": "insufficient_key_aborts",
}


@pytest.mark.parametrize("name", sorted(REACHES))
def test_config_reaches_its_path(name, tmp_path):
    _, _, transcript = simulate(tmp_path, GOLDEN[name][0])
    assert transcript[REACHES[name]] > 0
