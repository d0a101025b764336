"""Route discovery as a trie of routes against the per-path reference.

``relay_routing`` records its search as a trie of routes and derives the
edge loads, the scores and the ``candidates`` text from it;
``routing_reference`` keeps the search that stored a node tuple and an
edge-id tuple per path.  Both must give the same paths in the same order,
the same serve table, the same choice and score, bit for bit, at every
alpha, and the same report text.  The search steps over branch nodes and
emits the routes through trees, loops and corridors as blocks, so the
instances include rings, chains, combs, trees, loops and subdivided edges.
"""

import io
import json
import math
import time
import tracemalloc
from itertools import combinations

import numpy as np
import pytest

import routing_reference as ref
from pbc_bb84 import cli
from pbc_bb84 import relay_routing as rr
from test_golden_routes import benchmark_network
from test_relay_routing import complete_graph, random_graph

ALPHAS = (0.0, 0.5, 3.0)


def random_instance(seed):
    graph, nodes = random_graph(np.random.default_rng(1000 + seed))
    return graph, rr.TrafficSpec(nodes[0], nodes[-1], 2, 5)


def complete_instance(n):
    # every edge saturates, so every path scores 1.0, or 0.0 in log2
    graph, nodes = complete_graph(n, bits=10**6)
    return graph, rr.TrafficSpec(nodes[0], nodes[-1], 1, 1)


def benchmark_instance(seed):
    doc = benchmark_network(seed)
    return rr.NetworkGraph.from_json(doc), rr.TrafficSpec.from_json(doc["traffic"])


def grid_instance(width, height):
    # corner to corner: 5,382 paths of up to 22 edges on a 4 x 6 grid
    names = [[f"g{r}_{c}" for c in range(width)] for r in range(height)]
    edges = [(row[c], row[c + 1], 50) for row in names for c in range(width - 1)]
    edges += [(a, b, 50) for upper, lower in zip(names, names[1:])
              for a, b in zip(upper, lower)]
    nodes = [n for row in names for n in row]
    return rr.NetworkGraph(nodes, edges), rr.TrafficSpec(nodes[0], nodes[-1], 1, 1)


def chain_instance(n):
    nodes = [f"n{i}" for i in range(n)]
    graph = rr.NetworkGraph(nodes, [(a, b, 10) for a, b in zip(nodes, nodes[1:])])
    return graph, rr.TrafficSpec(nodes[0], nodes[-1], 1, 1)


def ring_instance(n):
    nodes = [f"r{i}" for i in range(n)]
    ring = zip(nodes, nodes[1:] + nodes[:1])
    edges = [(a, b, 10 + i) for i, (a, b) in enumerate(ring)]
    return rr.NetworkGraph(nodes, edges), rr.TrafficSpec(nodes[0], nodes[n // 3], 1, 1)


def inner_chain_instance():
    # both ends of the chain are trees peeled off src and dst
    graph, _ = chain_instance(30)
    return graph, rr.TrafficSpec("n7", "n22", 1, 1)


def lollipop_instance():
    # K4 with a loop of four nodes on n0: a search entering the loop's
    # corridor at either end comes back to n0 and ends there
    graph, nodes = complete_graph(4)
    edges = list(graph.edges)
    loop = ["n0", "l1", "l2", "l3", "l4", "n0"]
    edges += [(a, b, 7) for a, b in zip(loop, loop[1:])]
    graph = rr.NetworkGraph([*nodes, *loop[1:-1]], edges)
    return graph, rr.TrafficSpec("n1", "n3", 1, 1)


def comb_instance(n):
    # a spine with a spur on each node: the spurs are trees on a corridor
    spine, spurs = [f"s{i:04}" for i in range(n)], [f"t{i:04}" for i in range(n)]
    edges = [(a, b, 10) for a, b in zip(spine, spine[1:])]
    edges += [(a, b, 10) for a, b in zip(spine, spurs)]
    graph = rr.NetworkGraph(spine + spurs, edges)
    return graph, rr.TrafficSpec(spine[0], spine[-1], 1, 1)


def subdivided_k5_instance():
    # every edge of K5 through a node of its own; src and dst are two of
    # those nodes, inside corridors
    graph, nodes = complete_graph(5)
    edges = []
    for i, (a, b, bits) in enumerate(graph.edges):
        edges += [(a, f"m{a}{b}", bits + i), (f"m{a}{b}", b, bits + 2 * i)]
    mids = sorted({b for a, b, _ in edges if b.startswith("m")})
    graph = rr.NetworkGraph([*nodes, *mids], edges)
    return graph, rr.TrafficSpec("mn0n1", "mn2n4", 1, 1)


def tree_instance():
    rng = np.random.default_rng(7)
    nodes = [f"v{i}" for i in range(40)]
    edges = [(nodes[int(rng.integers(i))], nodes[i], int(rng.integers(1, 50)))
             for i in range(1, len(nodes))]
    return rr.NetworkGraph(nodes, edges), rr.TrafficSpec("v5", "v31", 1, 1)


def sparse_instance(seed):
    # a random tree with a few chords, so it has a core, corridors and leaves
    rng = np.random.default_rng(3000 + seed)
    n = int(rng.integers(6, 25))
    nodes = [f"x{i}" for i in rng.permutation(n)]
    pairs = {(int(rng.integers(i)), i) for i in range(1, n)}
    pairs |= {tuple(sorted(map(int, rng.choice(n, 2, replace=False))))
              for _ in range(int(rng.integers(0, n // 2 + 1)))}
    edges = [(nodes[a], nodes[b], int(rng.integers(0, 100))) for a, b in sorted(pairs)]
    src, dst = rng.choice(n, 2, replace=False)
    return rr.NetworkGraph(nodes, edges), rr.TrafficSpec(nodes[src], nodes[dst], 2, 3)


def beads_instance(n):
    # a chain of n nodes, each with a loop through two nodes, and a chord
    # over every tenth stretch of three: the loops are peeled, so the chain
    # is corridors between the chords' ends
    spine = [f"c{i:03}" for i in range(n)]
    edges = [(a, b, 10 + i % 13) for i, (a, b) in enumerate(zip(spine, spine[1:]))]
    for i, c in enumerate(spine):
        edges += [(c, f"x{i:03}", 7), (f"x{i:03}", f"y{i:03}", 8), (f"y{i:03}", c, 9)]
    edges += [(spine[i], spine[i + 3], 30) for i in range(0, n - 3, 10)]
    nodes = spine + [f"{p}{i:03}" for i in range(n) for p in "xy"]
    return rr.NetworkGraph(nodes, edges), rr.TrafficSpec(spine[0], spine[-1], 1, 1)


def diamonds_instance(n):
    # a chain of n nodes, each with a square and one diagonal of it off the
    # node: three branch nodes a bead, so each route's visited mask takes
    # several words
    spine = [f"c{i:03}" for i in range(n)]
    edges = [(a, b, 10 + i % 13) for i, (a, b) in enumerate(zip(spine, spine[1:]))]
    for i, c in enumerate(spine):
        x, y, z = (f"{p}{i:03}" for p in "xyz")
        edges += [(c, x, 7), (x, y, 8), (y, z, 9), (z, c, 6), (x, z, 5)]
    nodes = spine + [f"{p}{i:03}" for i in range(n) for p in "xyz"]
    return rr.NetworkGraph(nodes, edges), rr.TrafficSpec(spine[0], spine[-1], 1, 1)


def hung_k4_instance(n):
    # a chain of n nodes, each with a K4 hung from it by one edge: five
    # branch nodes a chain node, so at 40 the visited masks take four words
    spine = [f"c{i:03}" for i in range(n)]
    edges = [(a, b, 10 + i % 11) for i, (a, b) in enumerate(zip(spine, spine[1:]))]
    nodes = list(spine)
    for i, c in enumerate(spine):
        k4 = [f"{p}{i:03}" for p in "kwxy"]
        edges.append((c, k4[0], 4 + i % 5))
        edges += [(a, b, 6 + j) for j, (a, b) in enumerate(combinations(k4, 2))]
        nodes += k4
    return rr.NetworkGraph(nodes, edges), rr.TrafficSpec(spine[0], spine[-1], 1, 1)


def triangles_instance(n, src, dst):
    # a chain of n nodes, each with a triangle: once the triangles' loops
    # are peeled, the chain is a corridor, or trees where it runs past
    # src or dst
    spine = [f"s{i:03}" for i in range(n)]
    edges = [(a, b, 10 + i % 7) for i, (a, b) in enumerate(zip(spine, spine[1:]))]
    for i, c in enumerate(spine):
        edges += [(c, f"x{i:03}", 7 + i % 3), (f"x{i:03}", f"y{i:03}", 8),
                  (f"y{i:03}", c, 9)]
    nodes = spine + [f"{p}{i:03}" for i in range(n) for p in "xy"]
    return rr.NetworkGraph(nodes, edges), rr.TrafficSpec(spine[src], spine[dst], 1, 1)


def metro_instance(src, dst):
    # a backbone of six relays, each with a metro ring of five nodes and a
    # spur off one ring node; a chord between relays 1 and 4
    relays = [f"R{i}" for i in range(6)]
    edges = [(a, b, 40 + i) for i, (a, b) in enumerate(zip(relays, relays[1:]))]
    edges.append(("R1", "R4", 25))
    nodes = list(relays)
    for i, r in enumerate(relays):
        ring = [r, *(f"m{i}{j}" for j in range(4)), r]
        edges += [(a, b, 5 + i + j) for j, (a, b) in enumerate(zip(ring, ring[1:]))]
        edges.append((f"m{i}2", f"p{i}", 3))
        nodes += [*ring[1:-1], f"p{i}"]
    return rr.NetworkGraph(nodes, edges), rr.TrafficSpec(src, dst, 1, 1)


def looped_ends_instance():
    # K4 whose src and dst each carry a triangle and a loop of three, and
    # whose other two nodes carry a pendant node with two triangles, and
    # two triangles and a spur
    graph, nodes = complete_graph(4)
    edges = list(graph.edges)
    extra = []

    def loop(root, *names):
        extra.extend(names)
        ring = [root, *names, root]
        edges.extend((a, b, 11 + len(edges) % 9) for a, b in zip(ring, ring[1:]))

    loop("n0", "a1", "a2")
    loop("n0", "b1", "b2", "b3")
    loop("n3", "c1", "c2")
    loop("n3", "d1", "d2", "d3")
    edges.append(("n1", "q", 12))
    extra.append("q")
    loop("q", "e1", "e2")
    loop("q", "f1", "f2")
    loop("n2", "g1", "g2")
    loop("n2", "h1", "h2")
    edges.append(("g1", "t", 4))
    extra.append("t")
    return rr.NetworkGraph([*nodes, *extra], edges), rr.TrafficSpec("n0", "n3", 1, 1)


def nested_triangles_instance():
    # triangles on the nodes of triangles on a chain: the inner ones are
    # peeled, the outer ones, loops only once those are, are not
    spine = ["a", "b", "c", "d"]
    edges = [(p, q, 20) for p, q in zip(spine, spine[1:])]
    nodes = list(spine)
    for c in spine[1:3]:
        tri = [c, f"{c}1", f"{c}2", c]
        edges += [(p, q, 9) for p, q in zip(tri, tri[1:])]
        nodes += tri[1:3]
        for m in tri[1:3]:
            inner = [m, f"{m}x", f"{m}y", m]
            edges += [(p, q, 6) for p, q in zip(inner, inner[1:])]
            nodes += inner[1:3]
    return rr.NetworkGraph(nodes, edges), rr.TrafficSpec("a", "d", 1, 1)


def looped_sparse_instance(seed):
    # a sparse graph with leaves and loops of two to four nodes hung on
    # random nodes, src and dst among them
    graph, traffic = sparse_instance(seed)
    rng = np.random.default_rng(5000 + seed)
    edges = list(graph.edges)
    nodes = list(graph.nodes)
    for k in range(int(rng.integers(1, 5))):
        root = nodes[int(rng.integers(len(nodes)))]
        ring = [root, *(f"o{k}_{j}" for j in range(int(rng.integers(2, 5)))), root]
        edges += [(a, b, int(rng.integers(0, 100))) for a, b in zip(ring, ring[1:])]
        nodes += ring[1:-1]
    return rr.NetworkGraph(nodes, edges), traffic


def self_instance():
    graph, nodes = complete_graph(3)
    return graph, rr.TrafficSpec(nodes[1], nodes[1], 1, 1)


def unreachable_instance():
    graph = rr.NetworkGraph(["A", "B", "C"], [("A", "B", 10)])
    return graph, rr.TrafficSpec("A", "C", 1, 1)


INSTANCES = {
    **{f"random{s}": (lambda s=s: random_instance(s)) for s in range(100)},
    # K8's 1,957 paths are a block of the writer's and part of another
    **{f"K{n}": (lambda n=n: complete_instance(n)) for n in range(2, 9)},
    **{f"k9_seed{s}": (lambda s=s: benchmark_instance(s)) for s in range(3)},
    "grid4x6": lambda: grid_instance(4, 6),
    "chain300": lambda: chain_instance(300),
    "ring40": lambda: ring_instance(40),
    "inner_chain": inner_chain_instance,
    "lollipop": lollipop_instance,
    "comb30": lambda: comb_instance(30),
    "subdivided_k5": subdivided_k5_instance,
    "tree": tree_instance,
    **{f"sparse{s}": (lambda s=s: sparse_instance(s)) for s in range(50)},
    "beads70": lambda: beads_instance(70),
    "diamonds30": lambda: diamonds_instance(30),
    "hung_k4_40": lambda: hung_k4_instance(40),
    "triangles30": lambda: triangles_instance(30, 0, 29),
    "inner_triangles": lambda: triangles_instance(30, 6, 20),
    "metro": lambda: metro_instance("R0", "R5"),
    "metro_rings": lambda: metro_instance("m01", "m52"),
    "looped_ends": looped_ends_instance,
    "nested_triangles": nested_triangles_instance,
    **{f"looped{s}": (lambda s=s: looped_sparse_instance(s)) for s in range(30)},
    "self": self_instance,
    "unreachable": unreachable_instance,
}


def first_difference(ours, theirs):
    """Where two texts first differ, or None where they are equal: pytest
    takes minutes to show the difference of two megabyte texts."""
    if ours == theirs:
        return None
    return next((i for i, (a, b) in enumerate(zip(ours, theirs)) if a != b),
                min(len(ours), len(theirs)))


def scored(select, *args):
    """A selection's index and the repr of its score, which tells 1 from
    1.0 and 0.0 from -0.0; None where there is nothing to select."""
    try:
        index, score = select(*args)
    except ValueError:
        return None
    return index, repr(score)


@pytest.mark.parametrize("name", INSTANCES)
def test_trie_matches_reference(name):
    assert_matches_reference(*INSTANCES[name]())


@pytest.mark.parametrize("name", ["K6", "lollipop", "subdivided_k5", "sparse40",
                                  "sparse12", "random1", "metro_rings", "looped_ends",
                                  "hung_k4_40"])
def test_steps_in_chunks_match_reference(name, monkeypatch):
    # a step takes its frontier a few (route, edge) pairs at a time
    monkeypatch.setattr(rr, "_PAIRS", 5)
    assert_matches_reference(*INSTANCES[name]())


@pytest.mark.parametrize("name, count", [
    ("ring40", 2), ("comb30", 2), ("tree", 2), ("triangles30", 2),
    ("inner_triangles", 2), ("metro", 4), ("looped_ends", 4),
    ("nested_triangles", 4), ("diamonds30", 90), ("hung_k4_40", 200),
])
def test_search_steps_over_branch_nodes(name, count):
    # a search takes a step per branch node on a route; trees, loops and
    # corridors are walked once, so a chain of triangles takes two
    graph, traffic = INSTANCES[name]()
    s, d = map(graph.nodes.index, (traffic.source, traffic.destination))
    blocks = rr._blocks(graph.adj, s, d)
    assert len(blocks[0][1]) == count


def routes_searched(graph, src, dst):
    """How many routes a search from node index src extends short of node
    index dst, src's own included: the simple paths from src that do not
    reach dst."""
    count, stack = 0, [(src, {src})]
    while stack:
        node, seen = stack.pop()
        count += 1
        stack += [(nxt, seen | {nxt}) for nxt, _ in graph.adj[node]
                  if nxt not in seen and nxt != dst]
    return count


def assert_matches_reference(graph, traffic):
    trie = rr.flood_discover(graph, traffic)
    paths, edges, serve = ref.flood_discover(graph, traffic)
    s, d = map(graph.nodes.index, (traffic.source, traffic.destination))
    # a path is a route at d, and no other route is there
    assert (trie.node[trie.end] == d).all()
    assert sorted(np.flatnonzero(trie.node == d)) == sorted(trie.end)
    if paths and s != d:
        assert len(trie.parent) == routes_searched(graph, s, d) + len(trie)

    assert [trie.path(i) for i in range(len(trie))] == paths
    assert [trie.edge_ids(i) for i in range(len(trie))] == edges
    assert trie.serve == serve
    assert scored(rr.datagram_select, trie) == scored(
        ref.datagram_select, paths, edges, serve)
    for alpha in ALPHAS:
        assert scored(rr.vc_select, trie, alpha) == scored(
            ref.vc_select, paths, edges, serve, alpha)

    ours, theirs = io.StringIO(), io.StringIO()
    cli._write_candidates(ours, trie)
    ref.write_candidates(theirs, paths, edges, serve, graph.nodes)
    assert first_difference(ours.getvalue(), theirs.getvalue()) is None


@pytest.mark.parametrize("name", ["K2", "K8", "k9_seed0", "grid4x6", "chain300",
                                  "metro_rings", "looped_ends", "subdivided_k5",
                                  "hung_k4_40", "sparse7", "looped4"])
def test_listed_characters_are_the_text_length(name, monkeypatch):
    # MAX_LISTED bounds the report's candidates text to the character
    graph, traffic = INSTANCES[name]()
    text = io.StringIO()
    ref.write_candidates(text, *ref.flood_discover(graph, traffic), graph.nodes)
    monkeypatch.setattr(rr, "MAX_LISTED", len(text.getvalue()))
    rr.flood_discover(graph, traffic)
    monkeypatch.setattr(rr, "MAX_LISTED", len(text.getvalue()) - 1)
    with pytest.raises(rr.TooManyPathsError):
        rr.flood_discover(graph, traffic)


def test_instances_reach_block_edges_and_deep_tries():
    # the path count and the most edges on a path of each
    for name, shape in (("K8", (1957, 7)), ("grid4x6", (5382, 22)),
                        ("chain300", (1, 299))):
        trie = rr.flood_discover(*INSTANCES[name]())
        assert (len(trie), int(trie.depth[trie.end].max())) == shape


def compensated_sum(values):
    """``sum()`` of floats as Python 3.12 computes it: from the int 0, with
    Neumaier's compensation of each addition's rounding error."""
    values = iter(values)
    total, error = 0 + next(values), 0.0
    for value in values:
        t = total + value
        if abs(total) >= abs(value):
            error += (total - t) + value
        else:
            error += (value - t) + total
        total = t
    return total + error if error and math.isfinite(error) else total


def test_vc_score_does_not_depend_on_python_version():
    # path 0 of the seed-0 benchmark graph: n0, n1, ..., n8, eight edges
    trie = rr.flood_discover(*benchmark_instance(0))
    log2 = [None if p is None else math.log2(p) for p in trie.serve]
    scores = trie.fold(np.add, 0.0, log2) - 0.5 * trie.depth[trie.end]
    terms = [log2[e] for e in trie.edge_ids(0)]
    assert len(terms) == 8
    assert scores[0].hex() == "-0x1.f65427aaac627p+4"
    assert ref.left_sum(terms) - 0.5 * 8 == scores[0]
    # a compensated sum() rounds this path's logarithms one ulp away
    assert (compensated_sum(terms) - 0.5 * 8).hex() == "-0x1.f65427aaac628p+4"
    assert rr.vc_select(trie, 0.5) == ref.vc_select(
        *ref.flood_discover(*benchmark_instance(0)), 0.5)


class WriteSizes:
    """A text stream that keeps what is written and the size of each write."""

    def __init__(self):
        self.parts, self.sizes = [], []

    def write(self, text):
        self.parts.append(text)
        self.sizes.append(len(text))


def test_long_names_written_in_bounded_chunks():
    # K6 with 20,000-character names: 65 paths of 40,000 to 120,000
    # characters, 6.5 MB, so a block of a fixed number of paths would make
    # one write of it
    nodes = [f"{i}".ljust(20_000, "x") for i in range(6)]
    edges = [(a, b, 100) for i, a in enumerate(nodes) for b in nodes[i + 1:]]
    graph = rr.NetworkGraph(nodes, edges)
    traffic = rr.TrafficSpec(nodes[0], nodes[-1], 1, 1)
    stream, theirs = WriteSizes(), io.StringIO()
    cli._write_candidates(stream, rr.flood_discover(graph, traffic))
    ref.write_candidates(theirs, *ref.flood_discover(graph, traffic), graph.nodes)
    assert first_difference("".join(stream.parts), theirs.getvalue()) is None
    assert len(theirs.getvalue()) > 6 * 2**20
    assert max(stream.sizes) <= 2**20


@pytest.mark.parametrize("mode", ["vc", "datagram"])
def test_report_written_in_bounded_chunks(mode, tmp_path, monkeypatch):
    net, out = tmp_path / "net.json", tmp_path / "route.json"
    net.write_text(json.dumps(benchmark_network(0)))
    argv = ["route", "--network", str(net), "--mode", mode]
    assert cli.main([*argv, "-o", str(out)]) == 0
    stream = WriteSizes()
    monkeypatch.setattr("sys.stdout", stream)
    assert cli.main([*argv, "-o", "-"]) == 0
    report = out.read_text()
    assert len(report) > 5_000_000
    assert first_difference("".join(stream.parts), report) is None
    assert max(stream.sizes) <= 2**20


def test_candidates_text_grows_with_depth():
    # one path through 2,000 nodes: the text held grows with the depth; a
    # whole prefix text per depth, the square of it, holds about 56 MiB
    nodes = [f"n{i}" for i in range(2000)]
    graph = rr.NetworkGraph(nodes, [(a, b, 10) for a, b in zip(nodes, nodes[1:])])
    trie = rr.flood_discover(graph, rr.TrafficSpec(nodes[0], nodes[-1], 1, 1))
    stream = WriteSizes()
    tracemalloc.start()
    try:
        cli._write_candidates(stream, trie)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
    written = json.loads("".join(stream.parts))
    assert [c["path"] for c in written] == [nodes]


def tail_instance(length):
    # the seed-0 benchmark graph with a chain of ``length`` nodes off n3:
    # every route reaching n3 could go on down the chain
    doc = benchmark_network(0)
    tail = [f"t{i:05}" for i in range(length)]
    edges = [(e["a"], e["b"], e["buffer_bits"]) for e in doc["edges"]]
    edges += [(a, b, 100) for a, b in zip(["n3", *tail], tail)]
    graph = rr.NetworkGraph([*doc["nodes"], *tail], edges)
    return graph, rr.TrafficSpec.from_json(doc["traffic"])


@pytest.mark.parametrize("make", [
    # 88,506 routes at depth 2, each with 299 neighbours to test
    lambda: complete_instance(300),
    # 1,957 routes reach n3, each with 10,000 routes down the tail after it
    lambda: tail_instance(10_000),
    # 489,300 edges out of branch nodes and visited masks of eleven words:
    # a table of every edge's exit bit in every word would add 41 MiB, and
    # a copy of the adjacency made per discovery about 30 MiB
    lambda: complete_instance(700),
], ids=["K300", "k9_tail", "K700"])
def test_refusal_is_made_in_bounded_memory(make):
    graph, traffic = make()
    tracemalloc.start()
    try:
        with pytest.raises(rr.TooManyPathsError):
            rr.flood_discover(graph, traffic)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20


def test_long_chain_is_discovered_in_linear_time():
    # MAX_PATHS admits chains of up to 131,073 nodes; a search whose cost
    # grows with the square of the depth takes seconds at 80,000
    graph, traffic = chain_instance(80_000)
    start = time.perf_counter()
    trie = rr.flood_discover(graph, traffic)
    elapsed = time.perf_counter() - start
    shape = len(trie), len(trie.parent), int(trie.depth[trie.end[0]])
    assert shape == (1, 80_000, 79_999)
    assert elapsed < 1.5


def test_long_hung_k4_chain_is_discovered_in_linear_time():
    # 20,000 branch nodes, so each visited mask takes 313 words, and a step
    # per chain node; a search whose cost per step grows with the mask
    # width takes seconds here
    graph, traffic = hung_k4_instance(4_000)
    start = time.perf_counter()
    trie = rr.flood_discover(graph, traffic)
    elapsed = time.perf_counter() - start
    shape = len(trie), len(trie.parent), int(trie.depth[trie.end[0]])
    assert shape == (1, 67_984, 3_999)
    assert elapsed < 1.5
