"""``pbc-bb84`` command line front end.

Subcommands: ``rates`` (redundant-key-rate sweep), ``binding``
(binding-bound grid), ``simulate`` (one protocol session), ``route``
(flooding discovery plus datagram/vc selection).  Every output is a pure
function of (arguments, seed); CSV column order is fixed and JSON is
emitted with sorted keys so reruns are byte-identical.  Each JSON output
is the text ``json.dump(..., indent=2, sort_keys=True)`` would write, but
its long array, the transcript's ``commitments`` or the report's
``candidates``, is written into its slot from text pieces, in bounded
writes: the commitments from templates, the candidates one block of
paths at a time, gathered with numpy.  The ``rates`` CSV is the text
``csv.writer`` would write, from one array pass over the grid, a block of
lines at a time.

Exit codes: 0 success / Accept, 2 Reject, 3 NoCommitFrame, 64 usage
error, an unwritable output included.  ``PBC_BB84_OUTPUT_DIR``
overrides the directory for relative output paths.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import os
import sys

import numpy as np

from . import math_core, relay_routing
from .commitment_protocol import SessionConfig, run_session

EXIT_OK = 0
EXIT_REJECT = 2
EXIT_NO_COMMIT = 3
EXIT_USAGE = 64

OUTPUT_DIR_ENV = "PBC_BB84_OUTPUT_DIR"


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits with 2
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _output(path: str | None):
    """The output stream as a context manager: stdout, left open, for no
    path or ``-``; else the file, a relative path under
    ``PBC_BB84_OUTPUT_DIR`` when that is set."""
    if path is None or path == "-":
        return contextlib.nullcontext(sys.stdout)
    base = os.environ.get(OUTPUT_DIR_ENV)
    if base and not os.path.isabs(path):
        path = os.path.join(base, path)
    return open(path, "w", newline="")


#: Largest accepted input document, a session config or a network, in
#: bytes.  Parsing a network and building its graph take about 25 times
#: its size in memory, so a larger document is refused before it is
#: parsed; the benchmark's K9 network is about 2 KB.
MAX_DOCUMENT_BYTES = 2**22


def _read_json(path: str):
    """The JSON document in the file at ``path``; ValueError if it is
    larger than ``MAX_DOCUMENT_BYTES``.  At most one byte past the cap is
    read, since a pipe has no size to take before it is read."""
    with open(path, "rb") as fh:
        data = fh.read(MAX_DOCUMENT_BYTES + 1)
    if len(data) > MAX_DOCUMENT_BYTES:
        raise ValueError(f"larger than {MAX_DOCUMENT_BYTES} bytes")
    return json.loads(data.decode())


#: Largest accepted ``q_steps * p_steps``.  2^20 rows take 0.7-2.5 s, by
#: the grid's shape (a q_tol value costs an entropy and two texts, a p
#: value one text), and 63 MB of CSV.
MAX_RATES_ROWS = 2**20

#: Lines of the ``rates`` CSV per write.  A line is at most 75 characters
#: (q and p at ``.10g``, r and r' at ``.12g``), so a write stays under 2**20.
_RATES_BLOCK = 2**13


def _grid(lo: float, hi: float, steps: int) -> list[float]:
    if hi < lo:
        raise ValueError("range is inverted")
    if steps == 1:
        return [lo]
    # hi - lo is rounded, so a step near hi can round past it, and out of
    # the domain that hi is in
    return [min(hi, lo + (hi - lo) * i / (steps - 1)) for i in range(steps)]


def _write_rates(stream, q_grid, p_grid, r, r_prime) -> None:
    """Write the ``rates`` CSV as ``csv.writer`` lays it out: the header,
    then a line ``q,p,r,r'`` per grid cell, q-major, q and p at ``.10g``
    and r and r' at ``.12g``.  No field ever needs quoting, so a line is
    its fields joined with "," and ended with csv's "\\r\\n".

    A write holds whole rows, at most ``_RATES_BLOCK`` lines, or one part
    of a longer row.  Each q and r text is formatted once, and each p text
    once if a row fits in a write.  A longer row (a grid has fewer than
    2**7 of them) formats its p texts anew, a part at a time, so that no
    more than a write's worth of them is held."""
    n_q, n_p = r_prime.shape
    rows, cols = max(1, _RATES_BLOCK // n_p), min(n_p, _RATES_BLOCK)
    held = [f"{p:.10g}" for p in p_grid] if cols == n_p else None
    stream.write("q_tol,p,r,r_prime\r\n")
    for i in range(0, n_q, rows):
        q_text = np.array([f"{q:.10g}" for q in q_grid[i:i + rows]], object)[:, None]
        r_text = np.array([f"{v:.12g}" for v in r[i:i + rows].tolist()], object)[:, None]
        for j in range(0, n_p, cols):
            block = r_prime[i:i + rows, j:j + cols]
            fields = np.empty((*block.shape, 4), object)
            fields[..., 0], fields[..., 2], fields[..., 3] = q_text, r_text, block
            fields[..., 1] = held or [f"{p:.10g}" for p in p_grid[j:j + cols]]
            stream.write(("%s,%s,%s,%.12g\r\n" * block.size)
                         % tuple(fields.ravel().tolist()))


def cmd_rates(args) -> int:
    # the whole grid is computed before the output opens, so a rejected
    # grid leaves no file behind
    try:
        if min(args.q_steps, args.p_steps) < 1:
            raise ValueError("steps must be >= 1")
        if args.q_steps * args.p_steps > MAX_RATES_ROWS:
            raise ValueError(f"q_steps * p_steps must be at most {MAX_RATES_ROWS}")
        q_grid = _grid(args.q_min, args.q_max, args.q_steps)
        p_grid = _grid(args.p_min, args.p_max, args.p_steps)
        r, r_prime = math_core.redundant_key_rate(q_grid, p_grid, args.n_quarter)
    except ValueError as exc:
        print(f"rates: {exc}", file=sys.stderr)
        return EXIT_USAGE

    with _output(args.output) as stream:
        _write_rates(stream, q_grid, p_grid, r, r_prime)
    return EXIT_OK


def cmd_binding(args) -> int:
    variants = (
        list(math_core.BINDING_VARIANTS) if args.variant == "both" else [args.variant]
    )
    # every row is computed before the output opens, so a rejected grid
    # leaves no file behind
    rows = []
    try:
        for p in args.p:
            for n_tol in args.n_tol:
                for e_tol in args.e_tol:
                    bp = math_core.BindingParams(
                        p_commit=p, n_tol=n_tol, e_tol=e_tol,
                        delta_grid=args.delta_grid,
                    )
                    for variant in variants:
                        eps = math_core.binding_bound(bp, variant)
                        rows.append(
                            [f"{p:.10g}", n_tol, f"{e_tol:.10g}", variant, f"{eps:.12g}"]
                        )
    except ValueError as exc:
        print(f"binding: {exc}", file=sys.stderr)
        return EXIT_USAGE

    with _output(args.output) as stream:
        writer = csv.writer(stream)
        writer.writerow(["p", "n_tol", "e_tol", "variant", "eps_b"])
        writer.writerows(rows)
    return EXIT_OK


#: Characters of output text gathered before each write: a transcript or
#: report is never held whole, and each write stays small.
_CHUNK = 2**16


def _write_spliced(stream, text: str, key: str, write_value, value) -> None:
    """Write ``text``, the ``json.dumps(..., indent=2, sort_keys=True)``
    text of a document whose top-level array ``key`` was left empty, and a
    newline, with ``write_value(stream, value)`` writing the array into its
    slot.  Only a top-level key starts a line with two spaces, so the slot
    is found by its text."""
    slot = f'\n  "{key}": '
    head, tail = text.split(slot + "[]")
    stream.write(head + slot)
    write_value(stream, value)
    stream.write(tail + "\n")


#: A commitment of the transcript, one of its messages and its counts, as
#: ``json.dump(..., indent=2, sort_keys=True)`` lays them out in the
#: ``commitments`` array.
_COMMITMENT = (
    '{\n      "counts": %s,\n      "frame_id": %s,\n      "messages": [\n'
    '        %s,\n        %s\n      ],\n      "relay_consistent": %s,\n'
    '      "verdict": "%s"\n    }'
)
_MESSAGE = (
    '{\n          "channel": "%(channel)s",\n'
    '          "ciphertext_hex": "%(ciphertext_hex)s",\n'
    '          "key_offset": %(key_offset)s,\n          "length": %(length)s\n        }'
)
_COUNTS = (
    '{\n        "n_diag": %(n_diag)s,\n        "n_err_diag": %(n_err_diag)s,\n'
    '        "n_err_rect": %(n_err_rect)s,\n        "n_rect": %(n_rect)s\n      }'
)


def _write_commitments(stream, commitments: list) -> None:
    """Write the transcript's ``commitments`` array as ``json.dump(...,
    indent=2, sort_keys=True)`` lays it out, one template per commitment.

    The templates hold the commitments :func:`run_session` makes: integers,
    a boolean, counts or None, and strings that JSON writes as they are (a
    channel, lowercase hex, a verdict name)."""
    if not commitments:
        stream.write("[]")
        return
    lead = "[\n    "
    chunk, size = [], 0
    for c in commitments:
        counts = c["counts"]
        m0, m1 = c["messages"]
        text = lead + _COMMITMENT % (
            "null" if counts is None else _COUNTS % counts,
            c["frame_id"],
            _MESSAGE % m0,
            _MESSAGE % m1,
            "true" if c["relay_consistent"] else "false",
            c["verdict"],
        )
        chunk.append(text)
        size += len(text)
        if size >= _CHUNK:
            stream.write("".join(chunk))
            chunk, size = [], 0
        lead = ",\n    "
    chunk.append("\n  ]")
    stream.write("".join(chunk))


def _write_transcript(stream, transcript: dict) -> None:
    """Write a :func:`run_session` transcript and a newline, byte for byte
    as ``json.dump(..., indent=2, sort_keys=True)`` lays it out: the
    commitments from templates, into their slot, and ``schedule.send_times``
    by json's C encoder."""
    doc = dict(transcript, commitments=[])
    schedule = transcript["schedule"]
    if schedule is None:
        text = json.dumps(doc, indent=2, sort_keys=True)
    else:
        doc["schedule"] = dict(schedule, send_times={})
        # send_times' values are numbers, so the C encoder lays it out with
        # a line break in each separator; only its brackets are moved.  A
        # key of a top-level object starts a line with four spaces.
        flat = json.dumps(schedule["send_times"], separators=(",\n      ", ": "),
                          sort_keys=True)
        text = json.dumps(doc, indent=2, sort_keys=True).replace(
            '\n    "send_times": {}',
            '\n    "send_times": {\n      ' + flat[1:-1] + "\n    }", 1)
    _write_spliced(stream, text, "commitments", _write_commitments,
                   transcript["commitments"])


def cmd_simulate(args) -> int:
    try:
        doc = _read_json(args.config)
    # json.loads raises RecursionError on arrays or objects nested too deep,
    # and ValueError on an integer past Python's int-string digit limit
    except (OSError, RecursionError, ValueError) as exc:
        print(f"simulate: cannot read config: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if not isinstance(doc, dict):
        print("simulate: invalid config: config must be a JSON object", file=sys.stderr)
        return EXIT_USAGE
    if args.seed is not None:
        doc["seed"] = args.seed
    try:
        config = SessionConfig.from_dict(doc)
    except (TypeError, ValueError) as exc:
        print(f"simulate: invalid config: {exc}", file=sys.stderr)
        return EXIT_USAGE

    transcript = run_session(config)
    with _output(args.output) as stream:
        _write_transcript(stream, transcript)
    if transcript["status"] == "accept":
        return EXIT_OK
    if transcript["status"] == "reject":
        return EXIT_REJECT
    return EXIT_NO_COMMIT


def _json_score(score: float):
    if math.isinf(score):
        return "-inf" if score < 0 else "inf"
    return score


def _write_candidates(stream, candidates) -> None:
    """Write the ``candidates`` array as ``json.dump(..., indent=2,
    sort_keys=True)`` lays it out, from the JSON text of each edge's
    serve probability and of each node name.

    Paths are written one block at a time.  A block's (paths x depth)
    matrix of routes is built by walking up ``parent`` from the paths'
    routes, one numpy step per depth; a shallower path's row is padded on
    the left with route 0, the source alone.  Each row maps to ids of text
    pieces: the path's opening, the edge pieces of its routes, the last one
    closing ``edge_probs``, the source, then the node pieces of its routes,
    route 0's being ``""``.  The block's text is those pieces gathered and
    joined, in one write.  A block holds as many paths as ``16 * _CHUNK``
    (2**20) characters hold at the longest piece and the deepest path's
    piece count, and at least one, so only a path longer than that by
    itself makes a longer write."""
    if not len(candidates):
        stream.write("[]")
        return
    node_text = [json.dumps(n) for n in candidates.names]
    source = node_text[candidates.node[0]]
    sep = ",\n        "  # between two items of a candidate's list
    if not candidates.end[0]:
        # route 0, the path from a node to itself: json writes its empty
        # edge_probs as []
        stream.write('[\n    {\n      "edge_probs": [],\n      "path": [\n        '
                     + source + "\n      ]\n    }\n  ]")
        return
    # the pieces of the text: a path's opening, an edge's probability inside
    # and at the end of its edge_probs, a node after the source, a path's close
    opening, close = '\n    {\n      "edge_probs": [\n        ', "\n      ]\n    }"
    prob_text = [json.dumps(p) for p in candidates.serve]
    inner_text, last_text = (
        [p + s for p in prob_text] for s in (sep, '\n      ],\n      "path": [\n        '))
    # piece ids: 0 "", 1 the first opening, 2 the close of a path and the
    # opening of the next, 3 the source, then the edges' inner and last
    # texts and the nodes' texts
    pieces = np.array(["", "[" + opening, close + "," + opening, source,
                       *inner_text, *last_text, *(sep + n for n in node_text)],
                      dtype=object)
    inner, last, after = 4, 4 + len(prob_text), 4 + 2 * len(prob_text)
    # each route's edge and node piece ids; route 0, the source alone, has
    # neither and is its own parent, so a walk up stays there
    edge_ids, node_ids = candidates.edge + inner, candidates.node + after
    up = candidates.parent.copy()
    edge_ids[0] = node_ids[0] = up[0] = 0
    deepest = int(candidates.depth[candidates.end].max())
    # a path of d edges is 2d + 2 pieces, so a write stays under 2**20
    # characters however long the names are; blocks of _CHUNK characters,
    # about 60 K9 paths, would make 16 times the numpy calls
    longest = max(map(len, pieces))
    per_block = max(1, 16 * _CHUNK // (longest * (2 * deepest + 2)))
    opened = 1
    for start in range(0, len(candidates), per_block):
        ends = candidates.end[start:start + per_block]
        deep = int(candidates.depth[ends].max())
        # right-aligned: the last column holds each path's route and each
        # other column the parent of the route to its right
        routes = np.empty((len(ends), deep), np.intp)
        route = routes[:, -1] = ends
        for d in range(deep - 2, -1, -1):
            route = routes[:, d] = up[route]
        ids = np.empty((len(ends), 2 * deep + 2), np.intp)
        ids[:, 0] = 2
        ids[0, 0] = opened
        ids[:, 1:deep + 1] = edge_ids[routes]
        ids[:, deep] += last - inner  # the path's last edge ends edge_probs
        ids[:, deep + 1] = 3
        ids[:, deep + 2:] = node_ids[routes]
        stream.write("".join(pieces[ids.ravel()].tolist()))
        opened = 2
    stream.write(close + "\n  ]")


def _alpha(text: str) -> float:
    alpha = float(text)
    if not 0.0 <= alpha < math.inf:
        raise argparse.ArgumentTypeError(f"alpha must be finite and non-negative: {text!r}")
    return alpha


def cmd_route(args) -> int:
    try:
        doc = _read_json(args.network)
        graph = relay_routing.NetworkGraph.from_json(doc)
        traffic = relay_routing.TrafficSpec.from_json(doc["traffic"])
    # json.loads raises RecursionError on arrays or objects nested too deep
    except (OSError, RecursionError, KeyError, TypeError, ValueError) as exc:
        print(f"route: invalid network document: {exc}", file=sys.stderr)
        return EXIT_USAGE

    try:
        candidates = relay_routing.flood_discover(graph, traffic)
    except ValueError as exc:
        print(f"route: {exc}", file=sys.stderr)
        return EXIT_USAGE

    # the candidates are streamed into their slot, never built as objects
    report: dict = {
        "mode": args.mode,
        "alpha": args.alpha if args.mode == "vc" else None,
        "candidates": [],
    }
    if not len(candidates):
        report["status"] = "unreachable"
        report["chosen"] = None
        report["reservation"] = None
    else:
        report["status"] = "ok"
        if args.mode == "datagram":
            chosen, score = relay_routing.datagram_select(candidates)
            report["reservation"] = None
        else:
            chosen, score = relay_routing.vc_select(candidates, args.alpha)
            report["reservation"] = relay_routing.reserve_circuit(
                graph, candidates, chosen, traffic
            )
        probs = candidates.probs(chosen)
        report["chosen"] = {
            "path": list(candidates.path(chosen)),
            "edge_probs": list(probs),
            "score": _json_score(score),
            # not score > 0: a datagram product can underflow to 0.0
            "viable": all(p > 0.0 for p in probs),
        }

    text = json.dumps(report, indent=2, sort_keys=True)
    with _output(args.output) as stream:
        _write_spliced(stream, text, "candidates", _write_candidates, candidates)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="pbc-bb84", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("rates", help="sweep r and r' over (q_tol, p)")
    p.add_argument("--q-min", type=float, default=0.0)
    p.add_argument("--q-max", type=float, default=0.06)
    p.add_argument("--q-steps", type=int, default=25)
    p.add_argument("--p-min", type=float, default=0.0)
    p.add_argument("--p-max", type=float, default=0.01)
    p.add_argument("--p-steps", type=int, default=25)
    p.add_argument("--n-quarter", type=int, default=100)
    p.add_argument("--output", "-o", default=None)
    p.set_defaults(func=cmd_rates)

    p = sub.add_parser("binding", help="binding-bound grid")
    p.add_argument("--p", type=float, nargs="+", default=[0.1])
    p.add_argument("--n-tol", type=int, nargs="+", default=[10, 20, 40, 80, 160, 320])
    p.add_argument("--e-tol", type=float, nargs="+", default=[0.05])
    p.add_argument(
        "--variant",
        choices=list(math_core.BINDING_VARIANTS) + ["both"],
        default="both",
    )
    p.add_argument("--delta-grid", type=int, default=10_000)
    p.add_argument("--output", "-o", default=None)
    p.set_defaults(func=cmd_binding)

    p = sub.add_parser("simulate", help="run one protocol session")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--output", "-o", default=None)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("route", help="discovery + selection on a network file")
    p.add_argument("--network", required=True)
    p.add_argument("--mode", choices=["datagram", "vc"], default="datagram")
    p.add_argument("--alpha", type=_alpha, default=0.5)
    p.add_argument("--output", "-o", default=None)
    p.set_defaults(func=cmd_route)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    # each command handles the errors of reading its input, so this one
    # came from opening or writing the output
    except OSError as exc:
        print(f"{args.command}: cannot write output: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
