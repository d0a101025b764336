"""The ``simulate`` transcript writer against ``json.dump``.

``cli`` writes each commitment from a template and ``schedule.send_times``
with json's C encoder, then splices both into the rest of the transcript.
The text must equal ``json.dumps(transcript, indent=2, sort_keys=True)``
plus a newline, byte for byte, for every transcript ``run_session`` can
make, and reach the output in bounded writes.
"""

import io
import json
import math
from importlib import resources

import jsonschema
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from pbc_bb84 import cli
from pbc_bb84.codebook import PAYLOAD_MODES, Codebook, pack_bits, payload_length
from pbc_bb84.commitment_protocol import (
    CHANNEL_P0, CHANNEL_P1, COUNT_FIELDS, VERDICTS, SessionConfig, run_session,
)
from test_golden_transcripts import GOLDEN, SESSION_IDEAL
from test_route_trie import WriteSizes

TRANSCRIPT_SCHEMA = jsonschema.Draft202012Validator(json.loads(
    (resources.files("pbc_bb84") / "schemas" / "transcript.schema.json").read_text()))

# past 64 bits, so no fixed-width integer could hold them
LARGE = st.integers(0, 2**70)


def written(transcript) -> str:
    stream = io.StringIO()
    cli._write_transcript(stream, transcript)
    return stream.getvalue()


def expected(transcript) -> str:
    return json.dumps(transcript, indent=2, sort_keys=True) + "\n"


@st.composite
def transcripts(draw):
    """Schema-valid transcripts of the shape ``run_session`` makes, with
    every field drawn on its own: counts or None whatever the relays did,
    any verdict, large frame ids, offsets and counters, and ciphertexts of
    either payload mode's length."""
    n = draw(st.sampled_from([1, 2, 3, 40]))
    config = SessionConfig(
        n_quarter=n, x=draw(st.integers(1, math.comb(2 * n, n))),
        commit_bit=draw(st.integers(0, 1)), seed=draw(LARGE),
        wait_p0=draw(LARGE), wait_p1=draw(LARGE),
        payload_mode=draw(st.sampled_from(PAYLOAD_MODES)),
        commit_all=draw(st.booleans()),
    )
    length = payload_length(Codebook(n, config.x), config.payload_mode)

    def ciphertext_hex():
        value = draw(st.integers(0, 2**length - 1))
        bits = [(value >> i) & 1 for i in range(length)]
        return pack_bits(np.array([bits], np.uint8))[0].hex()

    commitments = []
    for _ in range(draw(st.integers(0, 4))):
        counts = draw(st.one_of(st.none(), st.fixed_dictionaries(
            {field: LARGE for field in COUNT_FIELDS})))
        commitments.append({
            "frame_id": draw(LARGE),
            "messages": [
                {"channel": ch, "key_offset": draw(LARGE), "length": length,
                 "ciphertext_hex": ciphertext_hex()}
                for ch in (CHANNEL_P0, CHANNEL_P1)
            ],
            "relay_consistent": draw(st.booleans()),
            "verdict": draw(st.sampled_from(VERDICTS)),
            "counts": counts,
        })
    transcript = {
        "config": config.to_dict(),
        **{key: draw(LARGE) for key in (
            "frames_total", "candidate_frames", "eligible_frames",
            "threshold_skipped", "insufficient_key_aborts", "sifted_bits")},
        "commitments": commitments,
        "schedule": None,
        "status": "no_commit_frame",
        "verdict": None,
        "key_ledger": {ch: {"generated": draw(LARGE), "consumed": draw(LARGE)}
                       for ch in (CHANNEL_P0, CHANNEL_P1)},
    }
    if commitments:
        waits = {CHANNEL_P0: config.wait_p0, CHANNEL_P1: config.wait_p1}
        frame_ids = [c["frame_id"] for c in commitments]
        transcript["schedule"] = {
            "waits": waits,
            "send_times": {f"{fid}:{ch}": fid for fid in frame_ids for ch in waits},
            "epoch": frame_ids[-1] + max(waits.values()),
        }
        transcript["status"] = draw(st.sampled_from(["accept", "reject"]))
        transcript["verdict"] = commitments[0]["verdict"]
    return transcript


@settings(max_examples=300, deadline=None)
@given(transcripts())
def test_writer_matches_json_dump(transcript):
    TRANSCRIPT_SCHEMA.validate(transcript)
    assert written(transcript) == expected(transcript)


def test_writer_matches_json_dump_on_golden_configs():
    for config, _, _ in GOLDEN.values():
        transcript = run_session(SessionConfig.from_dict(config))
        assert written(transcript) == expected(transcript)


def test_transcript_written_in_bounded_chunks(tmp_path, monkeypatch):
    config, out = tmp_path / "session.json", tmp_path / "transcript.json"
    config.write_text(json.dumps(SESSION_IDEAL))
    argv = ["simulate", "--config", str(config)]
    assert cli.main([*argv, "-o", str(out)]) == 0
    stream = WriteSizes()
    monkeypatch.setattr("sys.stdout", stream)
    assert cli.main([*argv, "-o", "-"]) == 0
    transcript = out.read_text()
    assert len(transcript) > 100_000
    assert "".join(stream.parts) == transcript
    assert max(stream.sizes) <= min(2**20, len(transcript) // 2)
