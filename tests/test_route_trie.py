"""Route discovery as a trie of routes against the per-path reference.

``relay_routing`` records its search as a trie of routes and derives the
edge loads, the scores and the ``candidates`` text from it;
``routing_reference`` keeps the search that stored a node tuple and an
edge-id tuple per path.  Both must give the same paths in the same order,
the same serve table, the same choice and score, bit for bit, at every
alpha, and the same report text.
"""

import io
import json
import math
import tracemalloc

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
    graph, traffic = INSTANCES[name]()
    trie = rr.flood_discover(graph, traffic)
    paths, edges, serve = ref.flood_discover(graph, traffic)

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


def test_instances_reach_block_edges_and_deep_tries():
    # the path count and the most edges on a path of each
    for name, shape in (("K8", (1957, 7)), ("grid4x6", (5382, 22)),
                        ("chain300", (1, 299))):
        trie = rr.flood_discover(*INSTANCES[name]())
        assert (len(trie), int(trie.depth[trie.end].max()) + 1) == shape


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
    scores = trie.fold(np.add, 0.0, log2) - 0.5 * (trie.depth[trie.end] + 1)
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
    assert "".join(stream.parts) == report
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
