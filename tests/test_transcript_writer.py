"""The ``simulate`` transcript writer against ``json.dump``.

``run_session`` returns a session's commitments as columns, and ``cli``
writes each commitment from a template and ``schedule.send_times`` from
the frame ids, then splices both into the rest of the transcript.  The
text must equal ``json.dumps(document, indent=2, sort_keys=True)`` plus a
newline, byte for byte, where ``document`` is the dict
``transcript_reference`` builds from the same result, for every result
``run_session`` can make, and reach the output in bounded writes.
"""

import io
import json
import math
from importlib import resources
from unittest import mock

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pbc_bb84 import cli
from pbc_bb84.codebook import PAYLOAD_MODES, Codebook, pack_bits, payload_length
from pbc_bb84.commitment_protocol import (
    CHANNEL_P0, CHANNEL_P1, VERDICTS, Commitments, SessionConfig, run_session,
)
from test_golden_transcripts import GOLDEN, SESSION_IDEAL
from test_route_trie import WriteSizes
from transcript_reference import document

TRANSCRIPT_SCHEMA = jsonschema.Draft202012Validator(json.loads(
    (resources.files("pbc_bb84") / "schemas" / "transcript.schema.json").read_text()))

# past 64 bits, so no fixed-width integer could hold them
LARGE = st.integers(0, 2**70)
# frame ids and counts are int64 columns
INT64 = st.integers(0, 2**63 - 1)
# small frame ids too, whose send_times keys sort as strings: "10:p0"
# before "1:p0", and "1:p1" before "2:p0"
FRAME_IDS = st.integers(0, 30) | INT64


def written(transcript) -> str:
    stream = io.StringIO()
    cli._write_transcript(stream, transcript)
    return stream.getvalue()


def expected(transcript) -> str:
    return json.dumps(document(transcript), indent=2, sort_keys=True) + "\n"


@st.composite
def transcripts(draw):
    """``run_session`` results with every field drawn on its own: a config
    with or without ``commit_all`` and a tamper, in either payload mode;
    zero or more commitments (at most one without ``commit_all``), with
    increasing frame ids, any verdict, relays that agree or not, counts
    below 2^63, and ciphertexts of the payload's length; large counters."""
    n = draw(st.sampled_from([1, 2, 3, 40]))
    x = draw(st.integers(1, math.comb(2 * n, n)))
    mode = draw(st.sampled_from(PAYLOAD_MODES))
    length = payload_length(Codebook(n, x), mode)
    config = SessionConfig(
        n_quarter=n, x=x, commit_bit=draw(st.integers(0, 1)), seed=draw(LARGE),
        wait_p0=draw(LARGE), wait_p1=draw(LARGE), payload_mode=mode,
        commit_all=draw(st.booleans()),
        tamper_p1_bit=draw(st.none() | st.integers(0, length - 1)),
    )
    frame_ids = sorted(draw(st.sets(FRAME_IDS, max_size=6 if config.commit_all else 1)))
    k = len(frame_ids)
    bits = st.lists(st.integers(0, 1), min_size=k * length, max_size=k * length)
    commitments = Commitments(
        np.array(frame_ids, np.int64),
        np.array(draw(st.lists(st.booleans(), min_size=k, max_size=k)), bool),
        np.array(draw(st.lists(st.integers(0, len(VERDICTS) - 1), min_size=k,
                               max_size=k)), np.int64),
        np.array(draw(st.lists(INT64, min_size=4 * k, max_size=4 * k)),
                 np.int64).reshape(k, 4),
        tuple(pack_bits(np.array(draw(bits), np.uint8).reshape(k, length))
              for _ in (CHANNEL_P0, CHANNEL_P1)),
        length,
    )
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
    if k:
        waits = {CHANNEL_P0: config.wait_p0, CHANNEL_P1: config.wait_p1}
        transcript["schedule"] = {
            "waits": waits, "epoch": frame_ids[-1] + max(waits.values())}
        transcript["status"] = draw(st.sampled_from(["accept", "reject"]))
        transcript["verdict"] = VERDICTS[commitments.code[0]]
    return transcript


@settings(max_examples=300, deadline=None)
@given(transcripts())
def test_writer_matches_json_dump(transcript):
    TRANSCRIPT_SCHEMA.validate(document(transcript))
    assert written(transcript) == expected(transcript)


@settings(max_examples=100, deadline=None)
@given(transcripts(), st.integers(1, 2**11))
def test_writer_matches_json_dump_in_small_chunks(transcript, chunk):
    # a chunk of one row to a few: each chunk's key offsets start at its
    # first row, and only the first has no comma before it
    with mock.patch.object(cli, "_CHUNK", chunk):
        assert written(transcript) == expected(transcript)


def test_writer_matches_json_dump_on_golden_configs():
    for config, _, _ in GOLDEN.values():
        transcript = run_session(SessionConfig.from_dict(config))
        assert written(transcript) == expected(transcript)


@pytest.mark.parametrize("payload_mode", PAYLOAD_MODES)
def test_writer_matches_json_dump_at_n_quarter_40(payload_mode):
    # frames of 160 records, a ciphertext of 80 bits raw and 76 compressed,
    # and a tampered first commitment among others
    config = SessionConfig(n_quarter=40, x=math.comb(80, 40) // 3, frame_budget=3000,
                           commit_all=True, payload_mode=payload_mode, tamper_p1_bit=0)
    transcript = run_session(config)
    consistent = transcript["commitments"].consistent
    assert len(consistent) > 1 and not consistent[0] and consistent[1:].all()
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


def test_send_times_written_in_bounded_chunks():
    # 10,769 commitments: their send_times entries are about 560,000
    # characters, written a chunk of about _CHUNK characters at a time, as
    # are the commitments; the rest of the transcript is under 2**12
    transcript = run_session(SessionConfig(commit_all=True, frame_budget=220_000, seed=11))
    assert len(transcript["commitments"].frame_id) > 10_000
    text = expected(transcript)
    for chunk, bound in ((cli._CHUNK, 2**17), (2**12, 2**13)):
        stream = WriteSizes()
        with mock.patch.object(cli, "_CHUNK", chunk):
            cli._write_transcript(stream, transcript)
        assert "".join(stream.parts) == text
        assert max(stream.sizes) <= bound
