"""Per-path route discovery: the reference for the trie in ``relay_routing``.

This is discovery, selection and the ``candidates`` writer as they were
written before discovery recorded its search as a trie of routes: a DFS
that stores each path's node tuple and edge-id tuple, a ``Counter`` of
edge loads over those tuples, one score per path and one ``write`` per
path.  The one change is that a vc score's logarithms are added left to
right by an explicit loop: ``sum()`` of floats is compensated from Python
3.12 on, so its last bits would depend on the interpreter.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from itertools import chain

from pbc_bb84.relay_routing import (
    MAX_PATHS,
    NetworkGraph,
    TooManyPathsError,
    TrafficSpec,
    serve_probability,
)


def _neighbours(graph: NetworkGraph) -> dict[str, list[tuple[str, int]]]:
    """Each node's (neighbour, edge id) pairs in sorted order, built from
    the edge list alone."""
    adj = {n: [] for n in graph.nodes}
    for edge, (a, b, _) in enumerate(graph.edges):
        adj[a].append((b, edge))
        adj[b].append((a, edge))
    return {n: sorted(pairs) for n, pairs in adj.items()}


def _reachable(adj: dict, node: str) -> set[str]:
    """Every node joined to ``node`` by some path."""
    reach, todo = {node}, [node]
    while todo:
        for nxt, _ in adj[todo.pop()]:
            if nxt not in reach:
                reach.add(nxt)
                todo.append(nxt)
    return reach


def _simple_paths(adj: dict, src: str, dst: str):
    """Node tuples and edge-id tuples of every simple path, by a DFS that
    visits neighbours in sorted order, so paths come out lexicographic."""
    if src == dst:
        return [(src,)], [()]
    if src not in _reachable(adj, dst):
        return [], []
    paths, edges = [], []
    seen = {src}
    extended = 0
    # one frame per node on the current route: its route, its edges and
    # the neighbours still to try
    stack = [((src,), (), iter(adj[src]))]
    while stack:
        route, route_edges, untried = stack[-1]
        for nxt, edge in untried:
            if nxt in seen:
                continue
            if nxt == dst:
                paths.append(route + (nxt,))
                edges.append(route_edges + (edge,))
                if len(paths) > MAX_PATHS:
                    raise TooManyPathsError(
                        f"more than {MAX_PATHS} simple paths from {src} to {dst}"
                    )
                continue
            extended += 1
            if extended > MAX_PATHS:
                raise TooManyPathsError(
                    f"more than {MAX_PATHS} routes from {src} searched for {dst}"
                )
            seen.add(nxt)
            stack.append((route + (nxt,), route_edges + (edge,), iter(adj[nxt])))
            break
        else:
            stack.pop()
            seen.remove(route[-1])
    return paths, edges


def flood_discover(graph: NetworkGraph, traffic: TrafficSpec):
    """``(paths, edges, serve)``: node tuples, edge-id tuples and each
    edge's serve probability under its load, None where no path crosses."""
    if traffic.source not in graph.nodes or traffic.destination not in graph.nodes:
        raise ValueError("source or destination not in graph")
    adj = _neighbours(graph)
    paths, edges = _simple_paths(adj, traffic.source, traffic.destination)
    serve: list[float | None] = [None] * len(graph.edges)
    for edge, load in Counter(chain.from_iterable(edges)).items():
        serve[edge] = serve_probability(
            graph.edges[edge][2], load * traffic.n_packets, traffic.packet_len
        )
    return paths, edges, serve


def left_sum(values) -> float:
    """0 + v0 + v1 + ..., rounded after each addition, as ``sum()`` adds
    floats before Python 3.12."""
    total = 0
    for value in values:
        total = total + value
    return total


def _pick(paths: list, scores: list) -> tuple[int, float]:
    best = max(scores)
    chosen = min(
        (i for i, s in enumerate(scores) if s == best),
        key=lambda i: (len(paths[i]), paths[i]),
    )
    return chosen, scores[chosen]


def datagram_select(paths, edges, serve) -> tuple[int, float]:
    if not paths:
        raise ValueError("empty path set")
    return _pick(paths, [math.prod(map(serve.__getitem__, row)) for row in edges])


def vc_select(paths, edges, serve, alpha: float) -> tuple[int, float]:
    if not paths:
        raise ValueError("empty path set")
    if not 0.0 <= alpha < math.inf:
        raise ValueError("alpha must be finite and non-negative")
    log2 = [
        None if p is None else math.log2(p) if p > 0.0 else -math.inf
        for p in serve
    ]
    return _pick(paths, [
        left_sum(map(log2.__getitem__, row)) - alpha * len(row) for row in edges
    ])


def write_candidates(stream, paths, edges, serve, nodes) -> None:
    """The ``candidates`` array as ``json.dump(..., indent=2,
    sort_keys=True)`` lays it out, one ``write`` per path."""
    if not paths:
        stream.write("[]")
        return
    prob_text = [json.dumps(p) for p in serve]
    node_text = {n: json.dumps(n) for n in nodes}
    sep = ",\n        "
    lead = "[\n    {\n      "
    for path, row in zip(paths, edges):
        probs = sep.join(map(prob_text.__getitem__, row))
        probs = "[\n        " + probs + "\n      ]" if row else "[]"
        stream.write(
            lead + '"edge_probs": ' + probs + ',\n      "path": [\n        '
            + sep.join(map(node_text.__getitem__, path)) + "\n      ]\n    }"
        )
        lead = ",\n    {\n      "
    stream.write("\n  ]")
