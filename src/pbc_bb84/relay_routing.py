"""Trusted-relay network routing on top of per-edge key buffers.

Serve probabilities come from the edge's one-time-pad buffer versus the
offered load; flooding discovery enumerates every simple path, up to
``MAX_PATHS``, as the trie of routes its search extended, over a per-edge
table; datagram selection maximizes the product of edge probabilities;
virtual-circuit selection trades that product against hop count and then
pins the chosen path with per-relay commitment handles.  The search,
edge loads, path order and scores are numpy operations over whole levels
of the trie, so no object is made per route or per path.
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
#: Most node names the paths of one discovery may list in all; a path
#: that extends route r lists depth[r] + 2.  K10's paths list 986,410, and
#: those of a chain of 5,000 nodes before 10 diamonds 5,142,528: 1,024
#: paths, a 195 MB report.
MAX_LISTED = 2**22


class TooManyPathsError(ValueError):
    """Raised when a discovery finds more than ``MAX_PATHS`` simple paths,
    extends more than ``MAX_PATHS`` routes short of the destination, or
    finds paths that list more than ``MAX_LISTED`` node names."""


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

    The graph is held once, in the form discovery reads: ``edges`` holds
    the (a, b, buffer_bits) triples in input order, an edge's id being its
    position, and ``adj[i]`` node i's (neighbour index, edge id) pairs in
    order of neighbour name.
    """

    def __init__(self, nodes, edges):
        self.nodes = tuple(nodes)
        if not all(isinstance(n, str) for n in self.nodes):
            raise ValueError("node identifiers must be strings")
        index = {n: i for i, n in enumerate(self.nodes)}
        if len(index) != len(self.nodes):
            raise ValueError("duplicate node identifiers")
        self.adj: list[list[tuple[int, int]]] = [[] for _ in self.nodes]
        seen, valid = set(), []
        for a, b, buffer_bits in edges:
            if a == b:
                raise ValueError(f"self-loop at {a}")
            i, j = index.get(a), index.get(b)
            if i is None or j is None:
                raise ValueError(f"edge ({a}, {b}) references unknown node")
            key = frozenset((a, b))
            if key in seen:
                raise ValueError(f"duplicate edge ({a}, {b})")
            if not _is_int(buffer_bits):
                raise ValueError("buffer_bits must be an integer")
            if buffer_bits < 0:
                raise ValueError("buffer_bits must be non-negative")
            seen.add(key)
            self.adj[i].append((j, len(valid)))
            self.adj[j].append((i, len(valid)))
            valid.append((a, b, buffer_bits))
        self.edges: tuple[tuple[str, str, int], ...] = tuple(valid)
        for nbrs in self.adj:
            nbrs.sort(key=lambda pair: self.nodes[pair[0]])

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
    no path crosses e.
    """

    # a plain class: a dataclass would add about a millisecond to every
    # import of the CLI
    __slots__ = (
        "names", "destination", "parent", "node", "edge", "depth",
        "end", "last", "serve",
    )

    def __init__(
        self,
        names: tuple[str, ...],
        destination: int,
        routes: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
        paths: tuple[np.ndarray, np.ndarray],
        serve: list[float | None],
    ):
        """``routes`` holds the (parent, node, edge, depth) arrays of the
        routes and ``paths`` the (end, last) arrays of the paths."""
        self.names, self.destination, self.serve = names, destination, serve
        self.parent, self.node, self.edge, self.depth = routes
        self.end, self.last = paths

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
        values = np.array(values, float)
        order = np.argsort(self.depth, kind="stable")
        levels = np.split(order, np.cumsum(np.bincount(self.depth))[:-1])
        acc = np.empty(len(self.parent))
        acc[0] = start
        for level in levels[1:]:
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


#: Most (route, neighbour) pairs one step of the search tests at once: a
#: larger frontier is taken a chunk of routes at a time, so a step's arrays
#: stay bounded and a refusal comes before an array is sized by what it
#: refuses.
_PAIRS = 2**14


def _blocks(adj: list, s: int, d: int):
    """The graph as the search steps over it, or None where ``d`` cannot be
    reached from ``s``.

    The core is the 2-core (s and d kept in it) with its loops peeled off:
    a loop is a corridor, a path through nodes of two neighbours, whose two
    ends are one node, and peeling it can leave new trees.  Branch nodes
    are s, d and each core node with other than two neighbours in the core;
    they get labels 0, 1, ... in breadth-first order from s.  The other
    nodes are passive: the trees and loops peeled off, and the corridor
    nodes of the core.  The routes a search makes from a branch node
    through passive nodes depend only on the edge it leaves by, so each
    edge out of a branch node other than d, a slot, gets a block: those
    routes, then the one branch node they reach, the exit, if any.  An edge
    to a branch node is a block of no routes with that node as its exit.
    Loops are peeled once, so a passive node has at most four table rows.

    Returns arrays: by label, each node's first slot and its slot count; by
    slot, its edge, its exit's kind (0 none, 1 a branch node, 2 d), its
    route count, its first table row, its exit's row, its exit's label and
    the mask word of that label; by slot, the exit's bit in that word, 0
    where it has no exit; and the table, slot by slot, whose five rows hold
    each block route's distance back to its parent in the block (0 for the
    route the block leaves), node, edge, depth below that route, and
    whether it lies on the way to the exit, then the same for the exit.
    """
    n = len(adj)
    order, seen = [s], bytearray(n)
    seen[s] = 1
    for u in order:
        for v, _ in adj[u]:
            if not seen[v]:
                seen[v] = 1
                order.append(v)
    if not seen[d]:
        return None
    # peel the trees, then the loops, then the trees their peeling left:
    # up[u] is the node a peeled node hangs from, loop[u] whether it is on
    # a loop; degree counts the neighbours not peeled
    degree = [len(nbrs) for nbrs in adj]
    up, loop = [-1] * n, bytearray(n)

    def peel(todo):
        while todo:
            u = todo.pop()
            v = up[u] = next(v for v, _ in adj[u] if up[v] < 0)
            degree[v] -= 1
            if degree[v] == 1 and v != s and v != d:
                todo.append(v)

    peel([u for u in order if degree[u] == 1 and u != s and u != d])
    # a loop is a corridor whose two ends are the same node: a search that
    # enters it comes back to that node and ends, so it is peeled off it
    middle = bytearray(n)  # a corridor node, neither of its ends
    for u in order:
        middle[u] = up[u] < 0 and degree[u] == 2 and u != s and u != d
    walked, todo = bytearray(n), []
    for u in order:
        if not middle[u] or walked[u]:
            continue
        walked[u], way, tips = 1, [u], []
        for v in [v for v, _ in adj[u] if up[v] < 0]:
            prev = u
            while middle[v]:
                walked[v] = 1
                way.append(v)
                prev, v = v, next(w for w, _ in adj[v] if up[w] < 0 and w != prev)
            tips.append(v)
        r = tips[0]
        if r == tips[1]:
            for v in way:
                up[v], loop[v] = r, 1
            degree[r] -= 2
            if degree[r] == 1 and r != s and r != d:
                todo.append(r)
    peel(todo)
    branch = [u for u in order if up[u] < 0 and (degree[u] != 2 or u in (s, d))]
    label = [-1] * n
    for i, u in enumerate(branch):
        label[u] = i
    # each slot's neighbour and edge, label by label; d has no slots, since
    # a search ends there
    count = [0 if u == d else len(adj[u]) for u in branch]
    pairs = [pair for u in branch if u != d for pair in adj[u]]
    nbr, edge = np.array(pairs, np.int32).T
    xlab = np.array(label, np.int32)[nbr]
    size = np.zeros(len(pairs), np.int32)
    # the blocks of the slots to passive nodes, walked: their rows, then
    # each one's exit row and exit label
    rows, exits, passive = [], [], np.flatnonzero(xlab < 0)
    for p in passive.tolist():
        begin, exit = len(rows) // 5, (-1, 0, 0, 0, 0, -1)
        stack = [(*pairs[p], -1, 1)]  # node, edge, parent's row, depth
        while stack:
            v, e, parent, depth = stack.pop()  # parent -1: the slot's node
            if label[v] >= 0:
                exit = (parent, v, e, depth, 1, label[v])
                continue
            row, corridor = len(rows) // 5, up[v] < 0
            rows += (row - parent if parent >= 0 else 0, v, e, depth, corridor)
            # a node's trees and loops, and, on a corridor or a loop, the
            # next node of it (a tree node has no such neighbour; the last
            # node of a loop has its root, which hangs from no node on it)
            stack += [(w, f, row, depth + 1) for w, f in adj[v] if up[w] == v
                      or f != e and up[w] == up[v] and loop[w] == loop[v]]
        size[p] = row = len(rows) // 5 - begin
        parent = exit[0]
        exits += (row + begin - parent if parent >= 0 else 0, *exit[1:])
    xat = (size + 1).cumsum() - 1
    table = np.zeros((5, xat[-1] + 1), np.int32)
    table[1, xat], table[2, xat], table[3:, xat] = nbr, edge, 1
    exits = np.array(exits, np.int32).reshape(-1, 6).T
    table[:, xat[passive]] = exits[:5]
    xlab[passive] = exits[5]
    inner = np.ones(len(table[0]), bool)
    inner[xat] = False
    table[:, inner] = np.array(rows, np.int32).reshape(-1, 5).T
    has_exit = xlab >= 0
    count = np.array(count)
    return (
        (count.cumsum() - count, count),
        (edge, has_exit.astype(np.int32) + (xlab == label[d]), size, xat - size, xat,
         xlab, np.maximum(xlab, 0) >> 6),
        np.left_shift(has_exit.astype(np.uint64), (xlab & 63).astype(np.uint64)),
        table,
    )


def _search(blocks, s: int, edges: int, src: str, dst: str):
    """Every route from ``s`` and every path on to d, one step per branch
    node on them, and each edge's load: routes as (parent, node, edge,
    depth) arrays, paths as (end, last) arrays in lexicographic order."""
    (first_slot, slot_count), slots, xbit, table = blocks
    slot_edge, xkind, size, start, xat, xlab, xword = slots
    back, node, edge, depth, chain = table
    # the frontier, the routes at branch nodes, each with its id, label,
    # edge it came by, depth and visited labels as a bitmask, one mask word
    # per 64 labels
    rid = lab = dep = np.zeros(1, np.int32)
    came = np.full(1, -1, np.int32)
    nword = (len(slot_count) + 63) >> 6
    masks = np.zeros((1, nword), np.uint64)
    masks[0, 0] = 1
    created, found, branched, lo = 1, 0, 1, 0  # routes, paths, frontier ids
    parts = []  # each chunk's routes
    book = []  # each chunk's frontier ids and pairs, for the ranking
    while len(rid):
        nxt, first_id = [], branched
        degree = slot_count[lab]
        total = degree.cumsum()
        begin = total - degree
        cuts = [0]
        while cuts[-1] < len(rid):
            limit = begin[cuts[-1]] + _PAIRS
            cuts.append(max(cuts[-1] + 1, int(total.searchsorted(limit, "right"))))
        # each (route, slot) pair, route by route; own is the route's place
        # in the chunk
        base = first_slot[lab] - begin
        for a, b in zip(cuts, cuts[1:]):
            deg = degree[a:b]
            own = np.arange(b - a).repeat(deg)
            slot = base[a:b].repeat(deg) + np.arange(begin[a], total[b - 1])
            # the exit's bit in the route's mask, 0 where it is unvisited
            word = masks[a:b].ravel()[own * nword + xword[slot]] & xbit[slot]
            kind = xkind[slot] * (word == 0)  # 1 a route, 2 a path
            del word
            # a route that came by a corridor has visited its exit, so only
            # the block's routes need the edge it came by
            grow = size[slot] * (slot_edge[slot] != came[a:b][own])
            keep = (grow + kind).nonzero()[0]
            grow = grow[keep]
            own, slot, kind = own[keep], slot[keep], kind[keep]
            n = grow + (kind == 1)  # routes: a block's, then its exit's
            del keep
            hit = (kind == 2).nonzero()[0]
            if found + len(hit) > MAX_PATHS:
                raise TooManyPathsError(
                    f"more than {MAX_PATHS} simple paths from {src} to {dst}"
                )
            cum = n.cumsum()  # int64: checked before any use as int32
            count = int(cum[-1]) if len(cum) else 0
            # route 0 is not a route extended
            if created - 1 + count > MAX_PATHS:
                raise TooManyPathsError(
                    f"more than {MAX_PATHS} routes from {src} searched for {dst}"
                )
            cum = cum.astype(np.int32)
            pos = np.arange(created, created + count, dtype=np.int32)
            row = (start[slot] - cum + n).repeat(n) + pos - created
            o = own.repeat(n)
            up = back[row]
            new = (np.where(up > 0, pos - up, rid[a:b][o]), node[row], edge[row],
                   dep[a:b][o] + depth[row])
            parts.append(new)
            del pos, row, o, up
            # the routes at exits, the last routes of their pairs, go on
            exits = (kind == 1).nonzero()[0]
            at, exit_slot = cum[exits] - 1, slot[exits]
            m = masks[a:b][own[exits]]
            m[np.arange(len(exits)), xword[exit_slot]] |= xbit[exit_slot]
            nxt.append((created + at, xlab[exit_slot], new[2][at], new[3][at], m))
            # a path is its exit row's parent extended by the exit's edge
            exit_row = xat[slot[hit]]
            up = back[exit_row]
            ends = np.where(up > 0, created + cum[hit] - up, rid[a:b][own[hit]])
            # res: each pair's frontier id, -1 for a path, -2 for neither
            res = np.full(len(kind), -2, np.int32)
            res[exits] = np.arange(branched, branched + len(exits))
            res[hit] = -1
            # each route's first pair, then the chunk's end
            bounds = np.zeros(b - a + 1, np.intp)
            np.bincount(own, minlength=b - a).cumsum(out=bounds[1:])
            book.append((lo + a, lo + b, bounds, slot.astype(np.int32), res,
                         ends, edge[exit_row]))
            created, found = created + count, found + len(hit)
            branched += len(exits)
        lo = first_id
        rid, lab, came, dep, masks = map(np.concatenate, zip(*nxt))
    routes = tuple(np.concatenate([[first_value], *field], dtype=np.int32)
                   for first_value, field in zip((-1, s, -1, 0), zip(*parts)))
    del parts
    # the paths under each frontier route: those of its pairs' exits, summed
    # from the last chunk up; res -1, a path, reads 1 and -2 reads 0
    under = np.zeros(branched + 2)
    under[-1] = 1
    for lo, hi, bounds, _, res, _, _ in reversed(book):
        before = np.zeros(len(res) + 1)  # the paths under earlier pairs
        under[res].cumsum(out=before[1:])
        before = before[bounds]
        under[lo:hi] = before[1:] - before[:-1]
    # a pair's paths come after its route's first path and its earlier
    # pairs' paths, so a path's index is its pair's rank, with no sort
    first = np.zeros(branched + 2)
    end, last = np.empty(found, np.int32), np.empty(found, np.int32)
    slots, weights = [], []
    book.reverse()
    while book:
        lo, hi, bounds, slot, res, ends, lasts = book.pop()
        u = under[res]
        before = np.zeros(len(res) + 1)
        u.cumsum(out=before[1:])
        at = (first[lo:hi] - before[bounds[:-1]]).repeat(bounds[1:] - bounds[:-1])
        at += before[:-1]
        first[res] = at  # -1 and -2 write the unused last entries
        i = at[res == -1].astype(np.intp)
        end[i], last[i] = ends, lasts
        slots.append(slot)
        weights.append(u)
    # each edge's load: the paths under each slot's pairs on each edge of
    # the way from the slot to its exit
    per_slot = np.bincount(np.concatenate(slots), np.concatenate(weights), len(size))
    loads = np.bincount(edge, per_slot.repeat(size + 1) * chain, edges)
    return routes, (end, last), loads


def flood_discover(graph: NetworkGraph, traffic: TrafficSpec) -> Candidates:
    """Every simple path from source to destination, in lexicographic order
    of node names.

    A level-synchronous search extends every route of the frontier at once
    along each edge of its node, in sorted neighbour order, over blocks of
    the routes through passive nodes (see :func:`_blocks`), so it takes one
    numpy step per branch node on a path.  During discovery each edge's
    offered load is the number of candidate paths crossing it times
    ``n_packets``; the per-edge serve probabilities reflect that load.  The
    table is empty when no path exists.  More than ``MAX_PATHS`` paths, or
    routes searched, or more than ``MAX_LISTED`` node names on the paths,
    raise :class:`TooManyPathsError`.
    """
    src, dst, names = traffic.source, traffic.destination, graph.nodes
    if src not in names or dst not in names:
        raise ValueError("source or destination not in graph")
    s, d = names.index(src), names.index(dst)
    serve: list[float | None] = [None] * len(graph.edges)
    blocks = _blocks(graph.adj, s, d) if s != d else None
    if blocks is None:
        # route 0 alone; the path from a node to itself is route 0 with last -1
        source = tuple(np.array([v], np.int32) for v in (-1, s, -1, 0))
        own = int(src == dst)
        self_path = np.zeros(own, np.int32), np.full(own, -1, np.int32)
        return Candidates(names, d, source, self_path, serve)
    routes, paths, loads = _search(blocks, s, len(serve), src, dst)
    end = paths[0]
    if routes[3][end].sum(dtype=np.int64) + 2 * len(end) > MAX_LISTED:
        raise TooManyPathsError(
            f"more than {MAX_LISTED} node names on the paths from {src} to {dst}"
        )
    for edge in np.flatnonzero(loads).tolist():
        load = int(loads[edge]) * traffic.n_packets
        serve[edge] = serve_probability(graph.edges[edge][2], load, traffic.packet_len)
    return Candidates(names, d, routes, paths, serve)


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
    return {
        "path": list(nodes),
        "before_probs": list(candidates.probs(chosen)),
        "after_probs": [
            serve_probability(graph.edges[edge][2], traffic.n_packets, traffic.packet_len)
            for edge in candidates.edge_ids(chosen)
        ],
        "handles": [
            {"relay": relay, "handle": f"commit:{traffic.source}->{traffic.destination}:{relay}"}
            for relay in nodes
        ],
    }
