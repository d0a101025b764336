"""Trusted-relay network routing on top of per-edge key buffers.

Serve probabilities come from the edge's one-time-pad buffer versus the
offered load; flooding discovery enumerates every simple path, up to
``MAX_PATHS``, as the trie of routes its search extended, over a per-edge
table; datagram selection maximizes the product of edge probabilities;
virtual-circuit selection trades that product against hop count and then
pins the chosen path with per-relay commitment handles.  Edge loads and
scores are folded along the trie with numpy, so no object is made per
path.
"""

from __future__ import annotations

import math

import numpy as np

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


class TrafficSpec:
    """One flow: ``n_packets`` packets of ``packet_len`` bits from node
    ``source`` to node ``destination``."""

    # a plain class, as is Candidates: a dataclass would add to every
    # import of the CLI
    __slots__ = ("source", "destination", "n_packets", "packet_len")

    def __init__(self, source: str, destination: str, n_packets: int, packet_len: int):
        self.source, self.destination = source, destination
        self.n_packets, self.packet_len = n_packets, packet_len
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
    """Every simple path of one discovery, as the trie of routes its search
    extended, over a per-edge table.

    Routes are numbered in the order the search created them, so a parent
    comes before its children.  Route 0 is the source alone; route r > 0 is
    route ``parent[r]`` extended by edge ``edge[r]`` to node ``node[r]``, an
    index into ``names``, ``depth[r]`` edges from the source.  Path i is
    route ``end[i]`` extended by edge ``last[i]`` to node ``destination``;
    paths are numbered in lexicographic order of their node names.  The
    path from a node to itself is route 0 with ``last`` -1.  ``serve[e]``
    is edge e's serve probability under the discovery's load, or None where
    no path crosses e.  ``levels[d]`` lists the routes at depth d in
    creation order.
    """

    # a plain class: a dataclass would add about a millisecond to every
    # import of the CLI
    __slots__ = (
        "names", "destination", "parent", "node", "edge", "depth",
        "end", "last", "serve", "levels",
    )

    def __init__(
        self,
        names: tuple[str, ...],
        destination: int,
        routes: list[int],
        paths: list[int],
        serve: list[float | None],
    ):
        """``routes`` holds (parent, node, edge, depth) of each route in
        turn and ``paths`` (end, last) of each path, as flat lists of ints,
        which ``np.fromiter`` reads with a known count: at K9's 54,800
        route ints that takes 0.95-1.0 ms against 1.1-1.9 ms for
        ``np.array``, and 3.8 ms for a list of tuples."""
        self.names, self.destination, self.serve = names, destination, serve
        self.parent, self.node, self.edge, self.depth = np.fromiter(
            routes, dtype=np.intp, count=len(routes)).reshape(-1, 4).T
        self.end, self.last = np.fromiter(
            paths, dtype=np.intp, count=len(paths)).reshape(-1, 2).T
        order = np.argsort(self.depth, kind="stable")
        self.levels = np.split(order, np.cumsum(np.bincount(self.depth))[:-1])

    def __len__(self) -> int:
        return len(self.end)

    def _routes(self, i: int) -> list[int]:
        """The routes path i extends, from the source's own."""
        chain, route = [], int(self.end[i])
        while route >= 0:
            chain.append(route)
            route = int(self.parent[route])
        return chain[::-1]

    def path(self, i: int) -> tuple[str, ...]:
        """Path i's node names, from the source."""
        nodes = [self.names[self.node[r]] for r in self._routes(i)]
        if self.last[i] >= 0:
            nodes.append(self.names[self.destination])
        return tuple(nodes)

    def edge_ids(self, i: int) -> tuple[int, ...]:
        """Path i's edge ids, from the source."""
        edges = [int(self.edge[r]) for r in self._routes(i)[1:]]
        if self.last[i] >= 0:
            edges.append(int(self.last[i]))
        return tuple(edges)

    def probs(self, i: int) -> tuple[float, ...]:
        """Path i's serve probabilities, edge by edge."""
        return tuple(map(self.serve.__getitem__, self.edge_ids(i)))

    def fold(self, ufunc, start: float, values: list[float | None]) -> np.ndarray:
        """Each path's ``ufunc`` of ``start`` and its edges' ``values``,
        left to right in edge order: each route's value is its parent's
        combined with its last edge, one depth at a time."""
        # an edge no path crosses has no value; only routes that lead to
        # no path read it
        values = np.array([math.nan if v is None else v for v in values])
        acc = np.empty(len(self.parent))
        acc[0] = start
        for level in self.levels[1:]:
            acc[level] = ufunc(acc[self.parent[level]], values[self.edge[level]])
        return ufunc(acc[self.end], values[self.last])


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


def flood_discover(graph: NetworkGraph, traffic: TrafficSpec) -> Candidates:
    """Every simple path from source to destination, by a DFS that visits
    neighbours in sorted order, so paths come out lexicographic.

    During discovery each edge's offered load is the number of candidate
    paths crossing it times ``n_packets``; the per-edge serve
    probabilities reflect that load.  The table is empty when no path
    exists.  More than ``MAX_PATHS`` paths, or routes searched, raise
    :class:`TooManyPathsError`.
    """
    src, dst = traffic.source, traffic.destination
    if src not in graph.adj or dst not in graph.adj:
        raise ValueError("source or destination not in graph")
    names = graph.nodes
    index = {n: i for i, n in enumerate(names)}
    s, d = index[src], index[dst]
    serve: list[float | None] = [None] * len(graph.buffers)
    routes = [-1, s, -1, 0]
    if src == dst:
        return Candidates(names, d, routes, [0, -1], serve)
    if src not in _reachable(graph, dst):
        return Candidates(names, d, routes, [], serve)

    adj = [[(index[m], edge) for m, edge in graph.adj[n]] for n in names]
    paths: list[int] = []
    found, created = 0, 1  # paths and routes so far
    seen = [False] * len(names)
    seen[s] = True
    # one frame per route on the search's current branch: its number, its
    # node and the neighbours still to try
    stack = [(0, s, iter(adj[s]))]
    while stack:
        route, node, untried = stack[-1]
        for nxt, edge in untried:
            if seen[nxt]:
                continue
            if nxt == d:
                paths += (route, edge)
                found += 1
                if found > MAX_PATHS:
                    raise TooManyPathsError(
                        f"more than {MAX_PATHS} simple paths from {src} to {dst}"
                    )
                continue
            # every route but the source's own was extended short of dst
            if created > MAX_PATHS:
                raise TooManyPathsError(
                    f"more than {MAX_PATHS} routes from {src} searched for {dst}"
                )
            seen[nxt] = True
            routes += (route, nxt, edge, len(stack))
            stack.append((created, nxt, iter(adj[nxt])))
            created += 1
            break
        else:
            stack.pop()
            seen[node] = False

    candidates = Candidates(names, d, routes, paths, serve)
    # paths through each route: those ending at it, then each depth's
    # summed into its parents, deepest first
    under = np.bincount(candidates.end, minlength=created).astype(float)
    for level in reversed(candidates.levels[1:]):
        under += np.bincount(
            candidates.parent[level], weights=under[level], minlength=created
        )
    loads = np.bincount(candidates.edge[1:], weights=under[1:], minlength=len(serve))
    loads += np.bincount(candidates.last, minlength=len(serve))
    bits = list(graph.buffers.values())
    for edge in np.flatnonzero(loads).tolist():
        serve[edge] = serve_probability(
            bits[edge], int(loads[edge]) * traffic.n_packets, traffic.packet_len
        )
    return candidates


def _pick(candidates: Candidates, scores: np.ndarray) -> tuple[int, float]:
    """Index and score of the path of maximum score; ties go to fewer
    hops, then the lower index, which is lexicographic node order."""
    ties = np.flatnonzero(scores == scores.max())
    chosen = int(ties[np.argmin(candidates.depth[candidates.end[ties]])])
    return chosen, scores[chosen].item()


def datagram_select(candidates: Candidates) -> tuple[int, float]:
    """Index and score of the path with the maximum product of edge serve
    probabilities; ties go to fewer hops, then lexicographic node order."""
    if not len(candidates):
        raise ValueError("empty path set")
    if candidates.last[0] < 0:
        return 0, 1  # a node to itself: math.prod of no probabilities
    # from 1.0, left to right in edge order, so each product is rounded as
    # math.prod rounds the path's own probabilities
    return _pick(candidates, candidates.fold(np.multiply, 1.0, candidates.serve))


def vc_select(candidates: Candidates, alpha: float) -> tuple[int, float]:
    """Virtual-circuit choice: index and score of the path maximizing
    sum(log2 p_e) - alpha * hops, the logarithms added left to right.

    alpha = 0 reduces exactly to :func:`datagram_select`.  Paths with a
    zero-probability edge score -inf; if every candidate does, the
    returned score is -inf (no viable circuit), with the same tie-breaks
    as the datagram rule.
    """
    if not len(candidates):
        raise ValueError("empty path set")
    if not 0.0 <= alpha < math.inf:
        raise ValueError("alpha must be finite and non-negative")
    if candidates.last[0] < 0:
        return 0, 0.0  # a node to itself: no hops, no logarithms
    # a zero edge's -inf makes its paths' sums -inf, minus any finite penalty
    log2 = [
        None if p is None else math.log2(p) if p > 0.0 else -math.inf
        for p in candidates.serve
    ]
    hops = candidates.depth[candidates.end] + 1
    return _pick(candidates, candidates.fold(np.add, 0.0, log2) - alpha * hops)


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
    nodes = candidates.path(chosen)
    bits = list(graph.buffers.values())
    return {
        "path": list(nodes),
        "before_probs": list(candidates.probs(chosen)),
        "after_probs": [
            serve_probability(bits[edge], traffic.n_packets, traffic.packet_len)
            for edge in candidates.edge_ids(chosen)
        ],
        "handles": [
            {"relay": relay, "handle": f"commit:{traffic.source}->{traffic.destination}:{relay}"}
            for relay in nodes
        ],
    }
