"""The benchmark's span tracer still finds what it wraps.

``bench/tracing.py`` replaces functions on ``commitment_protocol``,
``bb84_frames``, ``codebook`` and the other modules by name, and its
per-layer metrics read 0 without notice when a wrapped name is deleted or
no longer called through its module.  This runs the tracer, unchanged,
over one small ``commit_all`` session, one ``route --mode vc`` and one
``route --mode datagram`` on a diamond graph, the default ``binding`` grid
and a 2 x 2 ``rates`` grid, and checks that every span ``bench/run.py``
reports records a call.
"""

import ast
import importlib.util
import json
from pathlib import Path

from pbc_bb84 import (
    bb84_frames, cli, codebook, commitment_protocol, math_core, relay_routing,
)

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
RUN = TRACING.with_name("run.py")
MODULES = (
    bb84_frames, cli, codebook, commitment_protocol, math_core, relay_routing,
    commitment_protocol.KeyBuffer,
)


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def bench_spans():
    """``SPANS`` of ``bench/run.py``, read from its source: running the
    script's module would import the rest of the benchmark."""
    return next(ast.literal_eval(node.value) for node in ast.parse(RUN.read_text()).body
                if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "SPANS")


def test_spans_recorded_and_attributes_restored(tmp_path):
    tracing = load_tracing()
    before = [dict(vars(owner)) for owner in MODULES]
    config = tmp_path / "session.json"
    config.write_text(json.dumps({"seed": 1, "frame_budget": 300, "commit_all": True}))
    network = tmp_path / "net.json"
    network.write_text(json.dumps({
        "nodes": ["A", "B", "C", "D"],
        "edges": [
            {"a": a, "b": b, "buffer_bits": 50} for a, b in ("AB", "BD", "AC", "CD")
        ],
        "traffic": {"src": "A", "dst": "D", "n_packets": 10, "packet_len": 10},
    }))

    tracer = tracing.Tracer()
    tracing.instrument(tracer)
    try:
        assert cli.main(["simulate", "--config", str(config), "-o", str(tmp_path / "t.json")]) == 0
        assert cli.main(
            ["route", "--network", str(network), "--mode", "vc", "-o", str(tmp_path / "r.json")]
        ) == 0
        assert cli.main(
            ["route", "--network", str(network), "--mode", "datagram",
             "-o", str(tmp_path / "d.json")]
        ) == 0
        assert cli.main(["binding", "--delta-grid", "10", "-o", str(tmp_path / "b.csv")]) == 0
        assert cli.main(
            ["rates", "--q-steps", "2", "--p-steps", "2", "-o", str(tmp_path / "q.csv")]
        ) == 0
    finally:
        tracer.remove()

    calls = tracer.summary()["calls"]
    spans = bench_spans()
    assert spans
    for name in spans:
        assert calls.get(name, 0) > 0, name
    for owner, attrs in zip(MODULES, before):
        assert dict(vars(owner)) == attrs, owner
