import math

import networkx as nx
import numpy as np
import pytest

from pbc_bb84 import relay_routing as rr
from routing_reference import left_sum


def complete_graph(n, bits=100):
    nodes = [f"n{i}" for i in range(n)]
    edges = [(a, b, bits) for i, a in enumerate(nodes) for b in nodes[i + 1 :]]
    return rr.NetworkGraph(nodes, edges), nodes


def diamond_graph(ab=50, bd=80, ac=20, cd=90):
    return rr.NetworkGraph(
        ["A", "B", "C", "D"],
        [("A", "B", ab), ("B", "D", bd), ("A", "C", ac), ("C", "D", cd)],
    )


def random_graph(rng):
    n = int(rng.integers(2, 8))
    nodes = [chr(ord("A") + i) for i in range(n)]
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.5:
                edges.append((nodes[i], nodes[j], int(rng.integers(0, 200))))
    return rr.NetworkGraph(nodes, edges), nodes


def nx_simple_paths(graph, src, dst):
    g = nx.Graph()
    g.add_nodes_from(graph.nodes)
    for a, b, _ in graph.edges:
        g.add_edge(a, b)
    if src not in g or dst not in g:
        return []
    return sorted(tuple(p) for p in nx.all_simple_paths(g, src, dst))


def table(*paths):
    """Candidates over explicit (nodes, probabilities) paths from one
    source to one destination: each path a chain of routes of its own, with
    an edge id of its own for each edge."""
    names = tuple(sorted({n for nodes, _ in paths for n in nodes}))
    ends = {nodes[-1] for nodes, _ in paths}
    source = names.index(paths[0][0][0]) if paths else 0
    routes, found, serve = [-1, source, -1, 0], [], []
    for nodes, probs in paths:
        route = 0
        for depth, (node, p) in enumerate(zip(nodes[1:-1], probs), 1):
            routes += (route, names.index(node), len(serve), depth)
            route = len(routes) // 4 - 1
            serve.append(p)
        found += (route, len(serve))
        serve.append(probs[-1])
    destination = names.index(ends.pop()) if ends else 0
    return rr.Candidates(names, destination, np.array(routes).reshape(-1, 4).T,
                         np.array(found, np.intp).reshape(-1, 2).T, serve)


def node_tuples(candidates):
    """Each candidate's node tuple, in table order."""
    return [candidates.path(i) for i in range(len(candidates))]


def picked(candidates, selected):
    """Node tuple of the candidate a selection rule returned."""
    index, _score = selected
    return candidates.path(index)


def choices(candidates):
    """(nodes, edge probabilities) of each candidate, in table order."""
    return [(candidates.path(i), candidates.probs(i)) for i in range(len(candidates))]


class TestServeProbability:
    def test_fractional(self):
        assert rr.serve_probability(50, 10, 10) == 0.5

    def test_saturated_boundary(self):
        assert rr.serve_probability(100, 10, 10) == 1.0

    def test_empty_buffer(self):
        assert rr.serve_probability(0, 3, 7) == 0.0

    def test_domain(self):
        with pytest.raises(ValueError):
            rr.serve_probability(10, 0, 10)
        with pytest.raises(ValueError):
            rr.serve_probability(10, 10, 0)
        with pytest.raises(ValueError):
            rr.serve_probability(-1, 1, 1)

    def test_monotonicity(self):
        for b in range(0, 120, 7):
            assert rr.serve_probability(b, 10, 10) <= rr.serve_probability(
                b + 1, 10, 10
            )
        for n in range(1, 20):
            assert rr.serve_probability(50, n, 10) >= rr.serve_probability(
                50, n + 1, 10
            )
            assert rr.serve_probability(50, 10, n) >= rr.serve_probability(
                50, 10, n + 1
            )

    def test_continuous_at_saturation(self):
        assert rr.serve_probability(99, 1, 100) == pytest.approx(0.99)
        assert rr.serve_probability(100, 1, 100) == 1.0


class TestFloodDiscover:
    def test_diamond(self):
        traffic = rr.TrafficSpec("A", "D", 1, 10)
        paths = rr.flood_discover(diamond_graph(), traffic)
        assert sorted(node_tuples(paths)) == [("A", "B", "D"), ("A", "C", "D")]

    def test_disconnected(self):
        graph = rr.NetworkGraph(["A", "B", "C"], [("A", "B", 10)])
        assert node_tuples(rr.flood_discover(graph, rr.TrafficSpec("A", "C", 1, 1))) == []

    def test_k5_count(self):
        nodes = list("ABCDE")
        edges = [
            (a, b, 100) for i, a in enumerate(nodes) for b in nodes[i + 1 :]
        ]
        graph = rr.NetworkGraph(nodes, edges)
        paths = rr.flood_discover(graph, rr.TrafficSpec("A", "E", 1, 1))
        # brute-force count of simple paths between two K5 vertices
        assert len(paths) == 16
        assert len(paths) == len(nx_simple_paths(graph, "A", "E"))

    def test_unknown_endpoint(self):
        with pytest.raises(ValueError):
            rr.flood_discover(diamond_graph(), rr.TrafficSpec("A", "Z", 1, 1))

    def test_edge_load_counts_crossing_paths(self):
        traffic = rr.TrafficSpec("A", "D", 10, 10)
        paths = rr.flood_discover(diamond_graph(ab=50), traffic)
        by_nodes = dict(choices(paths))
        # each edge is crossed by exactly one of the two candidate paths
        assert by_nodes[("A", "B", "D")][0] == rr.serve_probability(
            50, 10, 10
        )

    def test_paths_in_lexicographic_order(self):
        graph, nodes = complete_graph(6)
        paths = rr.flood_discover(graph, rr.TrafficSpec(nodes[0], nodes[-1], 1, 1))
        assert node_tuples(paths) == sorted(node_tuples(paths))

    def test_source_is_destination(self):
        paths = rr.flood_discover(diamond_graph(), rr.TrafficSpec("A", "A", 1, 1))
        assert (node_tuples(paths), [paths.edge_ids(i) for i in range(len(paths))]) == (
            [("A",)], [()]
        )

    def test_path_limit_matches_networkx(self, monkeypatch):
        graph, nodes = complete_graph(7)
        expected = nx_simple_paths(graph, nodes[0], nodes[-1])
        traffic = rr.TrafficSpec(nodes[0], nodes[-1], 1, 1)
        # at the limit every path is listed; one path more than it is refused
        monkeypatch.setattr(rr, "MAX_PATHS", len(expected))
        assert node_tuples(rr.flood_discover(graph, traffic)) == expected
        monkeypatch.setattr(rr, "MAX_PATHS", len(expected) - 1)
        with pytest.raises(rr.TooManyPathsError):
            rr.flood_discover(graph, traffic)

    def test_listed_names_limit(self, monkeypatch):
        graph, nodes = complete_graph(7)
        expected = nx_simple_paths(graph, nodes[0], nodes[-1])
        traffic = rr.TrafficSpec(nodes[0], nodes[-1], 1, 1)
        # at the limit every name is listed; one name more than it is refused
        monkeypatch.setattr(rr, "MAX_LISTED", sum(map(len, expected)))
        assert node_tuples(rr.flood_discover(graph, traffic)) == expected
        monkeypatch.setattr(rr, "MAX_LISTED", sum(map(len, expected)) - 1)
        with pytest.raises(rr.TooManyPathsError):
            rr.flood_discover(graph, traffic)

    def test_limit_admits_k10(self):
        graph, nodes = complete_graph(10)
        paths = rr.flood_discover(graph, rr.TrafficSpec(nodes[0], nodes[-1], 1, 1))
        # sum over k of 8!/(8-k)!, the simple paths between two K10 nodes,
        # which list k + 2 names each
        assert len(paths) == 109_601 <= rr.MAX_PATHS
        through = np.bincount(paths.depth[paths.end]).tolist()
        assert through == [math.perm(8, k) for k in range(9)]
        assert sum((k + 2) * n for k, n in enumerate(through)) == 986_410 <= rr.MAX_LISTED

    def test_limit_bounds_the_search(self, monkeypatch):
        # dst hangs off the source of K7: one path, and 1,956 routes through
        # K7 that cannot reach dst without passing the source again
        graph, nodes = complete_graph(7)
        edges = list(graph.edges)
        graph = rr.NetworkGraph([*nodes, "dst"], [*edges, (nodes[0], "dst", 100)])
        traffic = rr.TrafficSpec(nodes[0], "dst", 1, 1)
        monkeypatch.setattr(rr, "MAX_PATHS", 1_956)
        assert node_tuples(rr.flood_discover(graph, traffic)) == [(nodes[0], "dst")]
        monkeypatch.setattr(rr, "MAX_PATHS", 1_955)
        with pytest.raises(rr.TooManyPathsError):
            rr.flood_discover(graph, traffic)

    def test_unreachable_destination_is_not_searched(self, monkeypatch):
        graph, nodes = complete_graph(7)
        edges = list(graph.edges)
        graph = rr.NetworkGraph([*nodes, "dst"], edges)
        monkeypatch.setattr(rr, "MAX_PATHS", 1)
        assert node_tuples(rr.flood_discover(graph, rr.TrafficSpec(nodes[0], "dst", 1, 1))) == []

    def test_limit_refuses_k11(self):
        graph, nodes = complete_graph(11)
        with pytest.raises(rr.TooManyPathsError):
            rr.flood_discover(graph, rr.TrafficSpec(nodes[0], nodes[-1], 1, 1))

    @pytest.mark.parametrize("seed", range(100))
    def test_matches_enumeration_oracle(self, seed):
        rng = np.random.default_rng(1000 + seed)
        graph, nodes = random_graph(rng)
        src, dst = nodes[0], nodes[-1]
        traffic = rr.TrafficSpec(src, dst, 2, 5)
        ours = sorted(node_tuples(rr.flood_discover(graph, traffic)))
        assert ours == nx_simple_paths(graph, src, dst)


def brute_force_best(paths, alpha=None):
    """Exhaustive-scoring oracle shared by the selection tests."""

    def score(c):
        nodes, probs = c
        if alpha is None:
            return math.prod(probs)
        if any(p == 0.0 for p in probs):
            return -math.inf
        # left to right: sum() of floats is compensated from Python 3.12 on
        return left_sum(math.log2(p) for p in probs) - alpha * (len(nodes) - 1)

    paths = choices(paths)
    best = max(score(c) for c in paths)
    top = [c for c in paths if score(c) == best]
    return min(top, key=lambda c: (len(c[0]) - 1, c[0]))[0]


class TestSelection:
    def test_datagram_picks_max_product(self):
        paths = table(
            (("A", "B", "D"), (0.5, 1.0)),
            (("A", "C", "D"), (0.9, 1.0)),
        )
        assert picked(paths, rr.datagram_select(paths)) == ("A", "C", "D")

    def test_tie_break_fewer_hops(self):
        paths = table(
            (("A", "B", "C", "D"), (1.0, 0.9, 1.0)),
            (("A", "E", "D"), (0.9, 1.0)),
        )
        assert picked(paths, rr.datagram_select(paths)) == ("A", "E", "D")

    def test_single_path(self):
        only = table((("A", "D"), (0.3,)))
        assert rr.datagram_select(only) == (0, 0.3)

    def test_empty_set(self):
        with pytest.raises(ValueError):
            rr.datagram_select(table())
        with pytest.raises(ValueError):
            rr.vc_select(table(), 0.5)

    def test_vc_alpha_zero_reduces_to_datagram(self):
        for seed in range(100):
            rng = np.random.default_rng(2000 + seed)
            graph, nodes = random_graph(rng)
            traffic = rr.TrafficSpec(nodes[0], nodes[-1], 2, 5)
            paths = rr.flood_discover(graph, traffic)
            if not len(paths):
                continue
            assert rr.vc_select(paths, 0.0)[0] == rr.datagram_select(paths)[0]
            assert picked(paths, rr.datagram_select(paths)) == brute_force_best(paths)

    def test_hop_penalty_dominates_equal_probs(self):
        paths = table(
            (("A", "B", "C", "D"), (0.8, 0.8, 0.8)),
            (("A", "E", "D"), (0.8, 0.8)),
        )
        assert picked(paths, rr.vc_select(paths, 0.5)) == ("A", "E", "D")

    def test_vc_matches_scoring_oracle(self):
        paths = table(
            (("A", "B", "D"), (0.9, 0.4)),
            (("A", "C", "D"), (0.6, 0.6)),
            (("A", "B", "C", "D"), (0.9, 0.95, 0.6)),
        )
        assert picked(paths, rr.vc_select(paths, 0.5)) == brute_force_best(paths, alpha=0.5)

    def test_all_zero_paths_not_viable(self):
        paths = table((("A", "B", "D"), (0.0, 0.5)))
        assert rr.vc_select(paths, 0.5) == (0, -math.inf)


class TestReserveCircuit:
    def test_release_improves_chosen_path(self):
        graph = diamond_graph(ab=50, bd=80, ac=60, cd=90)
        traffic = rr.TrafficSpec("A", "D", 10, 10)
        paths = rr.flood_discover(graph, traffic)
        chosen, _ = rr.vc_select(paths, 0.5)
        report = rr.reserve_circuit(graph, paths, chosen, traffic)
        assert tuple(report["path"]) == paths.path(chosen)
        assert tuple(report["before_probs"]) == paths.probs(chosen)
        for before, after in zip(report["before_probs"], report["after_probs"]):
            assert after >= before
        assert len(report["handles"]) == len(paths.path(chosen))

    def test_single_candidate_unchanged(self):
        graph = rr.NetworkGraph(["A", "B"], [("A", "B", 42)])
        traffic = rr.TrafficSpec("A", "B", 3, 10)
        paths = rr.flood_discover(graph, traffic)
        report = rr.reserve_circuit(graph, paths, 0, traffic)
        assert report["before_probs"] == report["after_probs"]



class TestGraphValidation:
    def test_self_loop(self):
        with pytest.raises(ValueError):
            rr.NetworkGraph(["A"], [("A", "A", 5)])

    def test_duplicate_edge(self):
        with pytest.raises(ValueError):
            rr.NetworkGraph(["A", "B"], [("A", "B", 5), ("B", "A", 6)])

    def test_negative_buffer(self):
        with pytest.raises(ValueError):
            rr.NetworkGraph(["A", "B"], [("A", "B", -1)])

    @pytest.mark.parametrize("bits", [5.7, True, None, "5", math.nan, math.inf])
    def test_buffer_must_be_an_integer(self, bits):
        with pytest.raises(ValueError):
            rr.NetworkGraph(["A", "B"], [("A", "B", bits)])

    def test_integral_float_buffer(self):
        graph = rr.NetworkGraph.from_json(
            {"nodes": ["A", "B"], "edges": [{"a": "A", "b": "B", "buffer_bits": 7.0}]}
        )
        assert type(graph.edges[0][2]) is int

    @pytest.mark.parametrize("nodes", ["AB", {"A": 0, "B": 1}, [1, 2]])
    def test_nodes_must_be_a_list_of_names(self, nodes):
        with pytest.raises(ValueError):
            rr.NetworkGraph.from_json(
                {"nodes": nodes, "edges": [{"a": 1, "b": 2, "buffer_bits": 7}]}
            )

    @pytest.mark.parametrize("field, value", [
        ("n_packets", 1.5), ("n_packets", math.inf), ("packet_len", True),
        ("n_packets", None), ("src", 1), ("dst", ["D"]),
    ])
    def test_traffic_types(self, field, value):
        doc = {"src": "A", "dst": "D", "n_packets": 1, "packet_len": 1, field: value}
        with pytest.raises(ValueError):
            rr.TrafficSpec.from_json(doc)

    def test_integral_float_traffic(self):
        doc = {"src": "A", "dst": "D", "n_packets": 2.0, "packet_len": 1e3}
        traffic = rr.TrafficSpec.from_json(doc)
        assert (traffic.source, traffic.destination, traffic.n_packets,
                traffic.packet_len) == ("A", "D", 2, 1000)
        assert type(traffic.n_packets) is type(traffic.packet_len) is int

    def test_from_json(self):
        # nodes out of name order: the edges keep their input order, and
        # each node's neighbours are listed by name, not by index
        triples = (("C", "B", 7), ("A", "C", 3), ("B", "A", 5))
        graph = rr.NetworkGraph.from_json(
            {
                "nodes": ["C", "A", "B"],
                "edges": [{"a": a, "b": b, "buffer_bits": bits} for a, b, bits in triples],
                "traffic": {"src": "A", "dst": "B", "n_packets": 1, "packet_len": 1},
            }
        )
        assert graph.nodes == ("C", "A", "B")
        assert graph.edges == triples
        # C: A by edge 1, B by edge 0; A: B by 2, C by 1; B: A by 2, C by 0
        assert graph.adj == [[(1, 1), (2, 0)], [(2, 2), (0, 1)], [(1, 2), (0, 0)]]
        with pytest.raises(ValueError):
            rr.NetworkGraph.from_json({"nodes": []})
