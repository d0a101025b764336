"""The transcript document of a ``run_session`` result, built as
``run_session`` built it before it returned its commitments as columns.

``document`` makes one dict per commitment, with a list of its two message
dicts (channel, key offset ``k * L``, length ``L``, the ``pack_bits`` row
as hex) and its counts or None, and ``schedule.send_times`` with one key
per commitment and relay.  ``json.dumps(document(t), indent=2,
sort_keys=True)`` plus a newline is the text ``pbc-bb84 simulate`` must
write for ``t``; tests read commitments from this document.
"""

from pbc_bb84.commitment_protocol import CHANNELS, COUNT_FIELDS, VERDICTS


def document(transcript: dict) -> dict:
    """The ``transcript.schema.json`` document of a ``run_session`` result."""
    columns = transcript["commitments"]
    length = columns.length
    hexes = [[row.tobytes().hex() for row in packed] for packed in columns.ciphertexts]
    commitments = []
    for k, ok in enumerate(columns.consistent.tolist()):
        commitments.append({
            "frame_id": int(columns.frame_id[k]),
            "messages": [
                {
                    "channel": ch,
                    "key_offset": k * length,
                    "length": length,
                    "ciphertext_hex": hx[k],
                }
                for ch, hx in zip(CHANNELS, hexes)
            ],
            "relay_consistent": ok,
            "verdict": VERDICTS[columns.code[k]],
            "counts": dict(zip(COUNT_FIELDS, columns.counts[k].tolist())) if ok else None,
        })
    doc = dict(transcript, commitments=commitments)
    if transcript["schedule"] is not None:
        frame_ids = [c["frame_id"] for c in commitments]
        doc["schedule"] = dict(
            transcript["schedule"],
            # each commitment goes to both relays in its own frame
            send_times={f"{fid}:{ch}": fid for fid in frame_ids for ch in CHANNELS},
        )
    return doc
