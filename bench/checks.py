"""Correctness checks on the artifacts of one benchmark run.

They run after the worker has exited, so none of them is timed and none
adds to the worker's peak RSS.  Each check returns a list of problems; an
empty list means the artifact passed.  Repeated invocations of one call are
compared by digest in ``run.py``, so the content checks here run on the
first copy only.
"""

from __future__ import annotations

import csv
import json
import math
import os

import jsonschema

import workloads


def load_schemas(src: str) -> dict:
    schemas = {}
    for name in ("transcript", "reservation_report"):
        with open(os.path.join(src, "pbc_bb84", "schemas", f"{name}.schema.json")) as fh:
            schemas[name] = json.load(fh)
    return schemas


def _load_json(path: str) -> tuple[object, list[str]]:
    try:
        with open(path) as fh:
            return json.load(fh), []
    except (OSError, ValueError) as exc:
        return None, [f"unreadable JSON: {exc}"]


def _schema_problems(doc, schema) -> list[str]:
    validator = jsonschema.Draft202012Validator(schema)
    return [f"schema: {e.message[:200]}" for e in validator.iter_errors(doc)][:5]


def check_csv(path: str, header: list[str], rows: int, numeric: list[str]) -> tuple[list, dict]:
    with open(path, newline="") as fh:
        table = list(csv.reader(fh))
    problems = []
    if not table or table[0] != header:
        return [f"header {table[:1]} != {header}"], {}
    body = table[1:]
    if len(body) != rows:
        problems.append(f"{len(body)} rows, expected {rows}")
    for line in body:
        record = dict(zip(header, line))
        for column in numeric:
            try:
                value = float(record[column])
            except (KeyError, ValueError):
                problems.append(f"row {line}: {column} is not a number")
                break
            if not math.isfinite(value):
                problems.append(f"row {line}: {column}={value} is not finite")
                break
    return problems[:5], {"rows": len(body)}


def check_transcript(path: str, config: dict, code, schema: dict) -> tuple[list, dict]:
    """Schema, exit code, and the key-ledger invariants that hold at any seed."""
    doc, problems = _load_json(path)
    problems = problems or _schema_problems(doc, schema)
    if problems:
        return problems, {}
    if doc["config"].get("seed") != config["seed"]:
        problems.append("transcript config seed differs from the input")
    if doc["frames_total"] != config["frame_budget"]:
        problems.append(f"frames_total {doc['frames_total']} != {config['frame_budget']}")
    expected_code = {"accept": 0, "reject": 2, "no_commit_frame": 3}[doc["status"]]
    if code != expected_code:
        problems.append(f"exit code {code} but status {doc['status']}")
    commits = doc["commitments"]
    payload_len = 2 * config["n_quarter"]  # raw payload mode: the codeword itself
    wanted = "accept1" if config.get("commit_bit", 0) else "accept0"
    noiseless = config.get("flip_prob", 0.0) == 0.0
    for entry in commits:
        if not entry["relay_consistent"]:
            problems.append(f"frame {entry['frame_id']}: relays disagree without tampering")
        if noiseless and entry["verdict"] != wanted:
            problems.append(f"frame {entry['frame_id']}: honest noiseless commit got {entry['verdict']}")
    for channel, ledger in doc["key_ledger"].items():
        intervals = sorted(
            (m["key_offset"], m["key_offset"] + m["length"])
            for entry in commits for m in entry["messages"] if m["channel"] == channel
        )
        if any(m["length"] != payload_len
               for entry in commits for m in entry["messages"]):
            problems.append(f"{channel}: a message length differs from {payload_len}")
        if ledger["consumed"] != payload_len * len(commits):
            problems.append(
                f"{channel}: consumed {ledger['consumed']} != {payload_len} x {len(commits)} commits")
        if any(a[1] > b[0] for a, b in zip(intervals, intervals[1:])):
            problems.append(f"{channel}: key intervals overlap")
        if intervals and intervals[-1][1] > ledger["generated"]:
            problems.append(f"{channel}: key used beyond the {ledger['generated']} bits generated")
    counts = {
        "frames": doc["frames_total"],
        "candidates": doc["candidate_frames"],
        "eligible": doc["eligible_frames"],
        "commits": len(commits),
        "accepted": sum(e["verdict"] == wanted for e in commits),
        "key_bits_generated": sum(v["generated"] for v in doc["key_ledger"].values()),
        "key_bits_consumed": sum(v["consumed"] for v in doc["key_ledger"].values()),
    }
    return problems[:5], counts


def check_route(path: str, mode: str, schema: dict) -> tuple[list, dict, list]:
    """Schema plus: the chosen route is one of the candidates, as reported."""
    doc, problems = _load_json(path)
    problems = problems or _schema_problems(doc, schema)
    if problems:
        return problems, {}, []
    candidates = doc.get("candidates", [])
    if doc["mode"] != mode or doc["status"] != "ok":
        problems.append(f"mode {doc['mode']} status {doc['status']}, expected {mode} ok")
    chosen = doc.get("chosen") or {}
    match = [c for c in candidates if c["path"] == chosen.get("path")]
    if not match:
        problems.append("chosen route is not among the candidates")
    elif match[0]["edge_probs"] != chosen.get("edge_probs"):
        problems.append("chosen route's edge probabilities differ from its candidate's")
    if mode == "vc" and (doc.get("reservation") or {}).get("path") != chosen.get("path"):
        problems.append("reserved circuit is not the chosen route")
    return problems, {"paths": len(candidates)}, candidates


def check_run(workload: str, seed: int, first: dict, codes: dict, src: str) -> tuple[dict, dict]:
    """Content checks on each call's first artifact.

    Returns (problems per call name, exact counts).  ``first`` maps a call
    name to its kept artifact, ``codes`` to the exit code it was made with.
    """
    schemas = load_schemas(src)
    problems: dict = {}
    counts: dict = {}
    if workload in ("session-ideal", "session-lossy"):
        config = workloads.session_config(workload, seed)
        problems["simulate"], counts = check_transcript(
            first["simulate"], config, codes["simulate"], schemas["transcript"])
        return problems, counts
    problems["binding_grid"], found = check_csv(
        first["binding_grid"], ["p", "n_tol", "e_tol", "variant", "eps_b"],
        workloads.BINDING_ROWS, ["p", "n_tol", "e_tol", "eps_b"])
    counts["delta_points"] = found.get("rows", 0) * workloads.BINDING_DELTA_GRID
    problems["rates_grid"], found = check_csv(
        first["rates_grid"], ["q_tol", "p", "r", "r_prime"],
        workloads.RATES_Q_STEPS * workloads.RATES_P_STEPS, ["q_tol", "p", "r", "r_prime"])
    counts["rate_points"] = found.get("rows", 0)
    problems["route_vc"], found, vc_candidates = check_route(
        first["route_vc"], "vc", schemas["reservation_report"])
    counts["paths"] = found.get("paths", 0)
    problems["route_datagram"], _, datagram_candidates = check_route(
        first["route_datagram"], "datagram", schemas["reservation_report"])
    if vc_candidates != datagram_candidates:
        problems["route_datagram"].append("vc and datagram saw different candidate sets")
    return problems, counts
