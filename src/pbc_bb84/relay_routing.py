"""Trusted-relay network routing on top of per-edge key buffers.

Serve probabilities come from the edge's one-time-pad buffer versus the
offered load; flooding discovery enumerates every simple path, up to
``MAX_PATHS``, as rows of edge ids over a per-edge table; datagram
selection maximizes the product of edge probabilities; virtual-circuit
selection trades that product against hop count and then pins the chosen
path with per-relay commitment handles.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from itertools import chain

#: Most simple paths a discovery may list, and most routes short of the
#: destination it may extend: K10 has 109,601 paths between two nodes and
#: 109,600 such routes, K11 986,410 and 986,409.  The second count bounds
#: the search where many routes end in a part of the graph that the
#: destination can be reached from only through the route itself.
MAX_PATHS = 2**17


class TooManyPathsError(ValueError):
    """Raised when a discovery finds more than ``MAX_PATHS`` simple paths,
    or extends more than ``MAX_PATHS`` routes short of the destination."""


def _integral(value):
    """A JSON number such as 1.0 read as the integer it is; other values
    are left for the type checks."""
    return int(value) if isinstance(value, float) and value.is_integer() else value


def _is_int(value) -> bool:
    # bool subclasses int, but a JSON boolean is not a number
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class TrafficSpec:
    source: str
    destination: str
    n_packets: int
    packet_len: int

    def __post_init__(self):
        if not isinstance(self.source, str) or not isinstance(self.destination, str):
            raise ValueError("src and dst must be node names")
        if not _is_int(self.n_packets) or not _is_int(self.packet_len):
            raise ValueError("n_packets and packet_len must be integers")
        if self.n_packets < 1:
            raise ValueError("n_packets must be >= 1")
        if self.packet_len < 1:
            raise ValueError("packet_len must be >= 1")

    @classmethod
    def from_json(cls, doc: dict) -> "TrafficSpec":
        return cls(
            doc["src"], doc["dst"],
            _integral(doc["n_packets"]), _integral(doc["packet_len"]),
        )


class NetworkGraph:
    """Undirected relay graph; each edge carries a key-buffer size in bits.

    Edge ids are positions in ``buffers``; ``adj`` lists each node's
    neighbours in sorted order with the id of the edge to each.
    """

    def __init__(self, nodes, edges):
        self.nodes = tuple(nodes)
        if not all(isinstance(n, str) for n in self.nodes):
            raise ValueError("node identifiers must be strings")
        if len(set(self.nodes)) != len(self.nodes):
            raise ValueError("duplicate node identifiers")
        self.buffers: dict[frozenset, int] = {}
        self.adj: dict[str, list[tuple[str, int]]] = {n: [] for n in self.nodes}
        for a, b, buffer_bits in edges:
            if a == b:
                raise ValueError(f"self-loop at {a}")
            if a not in self.adj or b not in self.adj:
                raise ValueError(f"edge ({a}, {b}) references unknown node")
            key = frozenset((a, b))
            if key in self.buffers:
                raise ValueError(f"duplicate edge ({a}, {b})")
            if not _is_int(buffer_bits):
                raise ValueError("buffer_bits must be an integer")
            if buffer_bits < 0:
                raise ValueError("buffer_bits must be non-negative")
            self.adj[a].append((b, len(self.buffers)))
            self.adj[b].append((a, len(self.buffers)))
            self.buffers[key] = buffer_bits
        for n in self.adj:
            self.adj[n].sort()

    @classmethod
    def from_json(cls, doc: dict) -> "NetworkGraph":
        try:
            nodes, edges = doc["nodes"], doc["edges"]
            if not isinstance(nodes, list) or not isinstance(edges, list):
                raise TypeError("nodes and edges must be lists")
            edges = [(e["a"], e["b"], _integral(e["buffer_bits"])) for e in edges]
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed network document: {exc}") from exc
        if not nodes:
            raise ValueError("network has no nodes")
        return cls(nodes, edges)


class Candidates:
    """Every simple path of one discovery, over a per-edge table.

    ``paths[i]`` is path i's node sequence, in lexicographic order, and
    ``edges[i]`` the ids of its edges in order; ``serve[e]`` is edge e's
    serve probability under the discovery's load, or None where no path
    crosses e.
    """

    # a plain class: a dataclass would add about a millisecond to every
    # import of the CLI
    __slots__ = ("paths", "edges", "serve")

    def __init__(
        self,
        paths: list[tuple[str, ...]],
        edges: list[tuple[int, ...]],
        serve: list[float | None],
    ):
        self.paths, self.edges, self.serve = paths, edges, serve

    def __len__(self) -> int:
        return len(self.paths)

    def probs(self, i: int) -> tuple[float, ...]:
        """Path i's serve probabilities, edge by edge."""
        return tuple(map(self.serve.__getitem__, self.edges[i]))


def serve_probability(buffer_bits: int, n_packets: int, packet_len: int) -> float:
    """Chance that one of ``n_packets`` length-L packets finds pad on the
    edge: b/(nL) when b < nL, else 1."""
    if n_packets < 1:
        raise ValueError("n_packets must be >= 1")
    if packet_len < 1:
        raise ValueError("packet_len must be >= 1")
    if buffer_bits < 0:
        raise ValueError("buffer_bits must be non-negative")
    demand = n_packets * packet_len
    if buffer_bits < demand:
        return buffer_bits / demand
    return 1.0


def _reachable(graph: NetworkGraph, node: str) -> set[str]:
    """Every node joined to ``node`` by some path."""
    reach, todo = {node}, [node]
    while todo:
        for nxt, _ in graph.adj[todo.pop()]:
            if nxt not in reach:
                reach.add(nxt)
                todo.append(nxt)
    return reach


def _simple_paths(graph: NetworkGraph, src: str, dst: str):
    """Node tuples and edge-id tuples of every simple path, by a DFS that
    visits neighbours in sorted order, so paths come out lexicographic."""
    if src == dst:
        return [(src,)], [()]
    if src not in _reachable(graph, dst):
        return [], []
    paths, edges = [], []
    seen = {src}
    extended = 0
    # one frame per node on the current route: its route, its edges and
    # the neighbours still to try
    stack = [((src,), (), iter(graph.adj[src]))]
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
            stack.append((route + (nxt,), route_edges + (edge,), iter(graph.adj[nxt])))
            break
        else:
            stack.pop()
            seen.remove(route[-1])
    return paths, edges


def flood_discover(graph: NetworkGraph, traffic: TrafficSpec) -> Candidates:
    """Every simple path from source to destination.

    During discovery each edge's offered load is the number of candidate
    paths crossing it times ``n_packets``; the per-edge serve
    probabilities reflect that load.  The table is empty when no path
    exists.  More than ``MAX_PATHS`` paths, or routes searched, raise
    :class:`TooManyPathsError`.
    """
    if traffic.source not in graph.adj or traffic.destination not in graph.adj:
        raise ValueError("source or destination not in graph")
    paths, edges = _simple_paths(graph, traffic.source, traffic.destination)
    bits = list(graph.buffers.values())
    serve: list[float | None] = [None] * len(bits)
    for edge, load in Counter(chain.from_iterable(edges)).items():
        serve[edge] = serve_probability(
            bits[edge], load * traffic.n_packets, traffic.packet_len
        )
    return Candidates(paths, edges, serve)


def _pick(candidates: Candidates, scores: list) -> tuple[int, float]:
    """Index and score of the path of maximum score; ties go to fewer
    hops, then lexicographic node order."""
    best = max(scores)
    paths = candidates.paths
    chosen = min(
        (i for i, s in enumerate(scores) if s == best),
        key=lambda i: (len(paths[i]), paths[i]),
    )
    return chosen, scores[chosen]


def datagram_select(candidates: Candidates) -> tuple[int, float]:
    """Index and score of the path with the maximum product of edge serve
    probabilities; ties go to fewer hops, then lexicographic node order."""
    if not candidates.paths:
        raise ValueError("empty path set")
    serve = candidates.serve
    # math.prod runs left to right from 1 over the path's probabilities in
    # edge order, so each product is rounded as for the path's own tuple
    return _pick(candidates, [math.prod(map(serve.__getitem__, row)) for row in candidates.edges])


def vc_select(candidates: Candidates, alpha: float) -> tuple[int, float]:
    """Virtual-circuit choice: index and score of the path maximizing
    sum(log2 p_e) - alpha * hops.

    alpha = 0 reduces exactly to :func:`datagram_select`.  Paths with a
    zero-probability edge score -inf; if every candidate does, the
    returned score is -inf (no viable circuit), with the same tie-breaks
    as the datagram rule.
    """
    if not candidates.paths:
        raise ValueError("empty path set")
    if not 0.0 <= alpha < math.inf:
        raise ValueError("alpha must be finite and non-negative")
    # a zero edge's -inf makes its paths' sums -inf, minus any finite penalty
    log2 = [
        None if p is None else math.log2(p) if p > 0.0 else -math.inf
        for p in candidates.serve
    ]
    return _pick(candidates, [
        sum(map(log2.__getitem__, row)) - alpha * len(row) for row in candidates.edges
    ])


def reserve_circuit(
    graph: NetworkGraph,
    candidates: Candidates,
    chosen: int,
    traffic: TrafficSpec,
) -> dict:
    """Commit the source to candidate ``chosen`` and release every other
    candidate.

    Each relay on the chosen path gets a commitment handle, the string
    ``commit:src->dst:relay``; no session is run.  Edges on non-chosen
    candidates drop their provisional load, so the chosen path's
    recomputed serve probabilities never decrease.  Returns the
    reservation as the route report writes it.
    """
    nodes = candidates.paths[chosen]
    bits = list(graph.buffers.values())
    return {
        "path": list(nodes),
        "before_probs": list(candidates.probs(chosen)),
        "after_probs": [
            serve_probability(bits[edge], traffic.n_packets, traffic.packet_len)
            for edge in candidates.edges[chosen]
        ],
        "handles": [
            {"relay": relay, "handle": f"commit:{traffic.source}->{traffic.destination}:{relay}"}
            for relay in nodes
        ],
    }
