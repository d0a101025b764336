"""Benchmark workloads: the CLI invocations of one iteration and their inputs.

Every input is generated from the workload seed; the program only ever sees
the files written here.  Why each workload exists is recorded in
``BENCHMARK.json`` and ``bench/README.md``.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass

#: Seed at which artifacts are compared with ``golden.json``.
DEFAULT_SEED = 0

# Sessions are short (about 0.2 s) so that a run holds many samples, each
# bracketed by the reference loop in worker.py.
SESSION_IDEAL = {"n_quarter": 2, "x": 6, "commit_all": True, "frame_budget": 5_000}
SESSION_LOSSY = dict(
    SESSION_IDEAL,
    detection_prob=0.1, flip_prob=0.02, q_tol=0.02, frame_budget=2_000,
)

ROUTE_NODES = 9
ROUTE_BUFFER_BITS = (1_000, 1_000_000)
ROUTE_TRAFFIC = {"n_packets": 4, "packet_len": 256}

BINDING_ROWS = 6 * 2  # default grid: six N_tol values, both variants
BINDING_DELTA_GRID = 10_000
RATES_Q_STEPS, RATES_P_STEPS, RATES_N_QUARTER = 61, 50, 100


@dataclass(frozen=True)
class Call:
    """One CLI invocation: ``cli.main(argv)`` writes ``output``."""

    name: str
    argv: tuple
    output: str
    ok_codes: tuple


def derived_seed(workload: str, seed: int) -> int:
    """Config seed for ``workload`` at benchmark seed ``seed`` (stable across runs)."""
    return random.Random(f"{workload}/{seed}").randrange(2**32)


def session_config(workload: str, seed: int) -> dict:
    base = SESSION_IDEAL if workload == "session-ideal" else SESSION_LOSSY
    return dict(base, seed=derived_seed(workload, seed))


def network(seed: int) -> dict:
    """Complete relay graph on ``ROUTE_NODES`` nodes with seeded buffer sizes."""
    rng = random.Random(derived_seed("analytics", seed))
    nodes = [f"n{i}" for i in range(ROUTE_NODES)]
    edges = [
        {"a": a, "b": b, "buffer_bits": rng.randint(*ROUTE_BUFFER_BITS)}
        for i, a in enumerate(nodes) for b in nodes[i + 1:]
    ]
    traffic = dict(ROUTE_TRAFFIC, src=nodes[0], dst=nodes[-1])
    return {"nodes": nodes, "edges": edges, "traffic": traffic}


def _write_json(path: str, doc: dict) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)


def write_inputs(workload: str, seed: int, workdir: str) -> list[Call]:
    """Write the workload's input files under ``workdir``; return one iteration."""
    out = os.path.join(workdir, "out")
    os.makedirs(out, exist_ok=True)
    if workload in ("session-ideal", "session-lossy"):
        cfg = os.path.join(workdir, "session.json")
        _write_json(cfg, session_config(workload, seed))
        # a noiseless honest session must accept; a noisy one may reject (exit 2)
        codes = (0,) if workload == "session-ideal" else (0, 2)
        target = os.path.join(out, "transcript.json")
        return [Call("simulate", ("simulate", "--config", cfg, "-o", target), target, codes)]
    if workload == "analytics":
        net = os.path.join(workdir, "network.json")
        _write_json(net, network(seed))
        paths = {n: os.path.join(out, n + ext) for n, ext in (
            ("binding_grid", ".csv"), ("rates_grid", ".csv"),
            ("route_vc", ".json"), ("route_datagram", ".json"))}
        return [
            Call("binding_grid", ("binding", "-o", paths["binding_grid"]),
                 paths["binding_grid"], (0,)),
            Call("rates_grid", (
                "rates", "--q-steps", str(RATES_Q_STEPS), "--p-steps", str(RATES_P_STEPS),
                "--n-quarter", str(RATES_N_QUARTER), "-o", paths["rates_grid"],
            ), paths["rates_grid"], (0,)),
            Call("route_vc", ("route", "--network", net, "--mode", "vc",
                              "-o", paths["route_vc"]), paths["route_vc"], (0,)),
            Call("route_datagram", ("route", "--network", net, "--mode", "datagram",
                                    "-o", paths["route_datagram"]), paths["route_datagram"], (0,)),
        ]
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("session-ideal", "session-lossy", "analytics")
