"""Golden route reports: sha256 and exit code of ``pbc-bb84 route``.

The digests pin every byte of the report: the candidate order, each
edge's serve probability and its float text, the selection's score and
tie-breaks, the reservation and the JSON layout, including the empty
``edge_probs`` list of a path from a node to itself.  The networks are the
benchmark's seeded K9 graph at three seeds and small graphs for the edge
cases: an unreachable destination, all-zero buffers (score ``"-inf"``,
not viable), saturated and fractional edges side by side, node names that
need JSON escapes, and ``src == dst``.  The digests were computed before
discovery and selection moved to per-edge tables and the report to a
streamed writer.  Regenerate one only for a change that alters route
reports on purpose, and say so where the change is recorded.
"""

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from pbc_bb84 import cli

WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"


def benchmark_network(seed):
    name = "bench_workloads"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, WORKLOADS)
        # its dataclass looks its module up in sys.modules
        sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[name])
    return sys.modules[name].network(seed)


def small_network(nodes, edges, src, dst, n_packets=10, packet_len=10):
    return {
        "nodes": nodes,
        "edges": [{"a": a, "b": b, "buffer_bits": bits} for a, b, bits in edges],
        "traffic": {"src": src, "dst": dst, "n_packets": n_packets,
                    "packet_len": packet_len},
    }


def diamond(ab, bd, ac, cd, nodes=("A", "B", "C", "D")):
    a, b, c, d = nodes
    return small_network(
        list(nodes), [(a, b, ab), (b, d, bd), (a, c, ac), (c, d, cd)], a, d,
    )


NETWORKS = {
    "unreachable": lambda: small_network(["A", "B", "C"], [("A", "B", 10)], "A", "C"),
    "all_zero": lambda: diamond(0, 0, 0, 0),
    # A-B and C-D saturate at a load of 1 path x 10 x 10 bits, the others do not
    "mixed": lambda: small_network(
        ["A", "B", "C", "D"],
        [("A", "B", 500), ("B", "D", 80), ("A", "C", 20), ("C", "D", 100),
         ("B", "C", 7)],
        "A", "D",
    ),
    "escapes": lambda: diamond(50, 80, 20, 90, nodes=('q"1', "b\\s", "été", "日\tz")),
    "self_route": lambda: small_network(["A", "B"], [("A", "B", 5)], "A", "A"),
}
NETWORKS.update({f"k9_seed{s}": (lambda s=s: benchmark_network(s)) for s in range(3)})

# name: (network, argv after --network, exit code, sha256 of the report)
GOLDEN = {
    "all_zero_datagram": (
        "all_zero", ['--mode', 'datagram'], 0,
        "cb1110eb2a10b207ef35d37120189b11250c6af3feed627554fbfca4c7f7bda3",
    ),
    "all_zero_vc": (
        "all_zero", ['--mode', 'vc', '--alpha', '0.5'], 0,
        "a95681655f6afe63f993f38ce46968149652905b7554b168068dc25e0a7a184f",
    ),
    "escapes_datagram": (
        "escapes", ['--mode', 'datagram'], 0,
        "4e4a4f4fffff1447e66785503431b0afee847d3a85013b359f10535ca084ef56",
    ),
    "escapes_vc": (
        "escapes", ['--mode', 'vc', '--alpha', '0.5'], 0,
        "5943ae5f56c6be8c5164d92f2639afeae2e1559fd33902fef4c637788295602f",
    ),
    "k9_seed0_datagram": (
        "k9_seed0", ['--mode', 'datagram'], 0,
        "1e826205472a56b49841482f448154ece5afb9277ca18cb5318ee9a57c18ff07",
    ),
    "k9_seed0_vc_alpha0": (
        "k9_seed0", ['--mode', 'vc', '--alpha', '0'], 0,
        "efeb5a7d39f469f21dc087e0c9b907a695ad8e62338a7455a2fba63fe8d23c27",
    ),
    "k9_seed0_vc_alpha0.5": (
        "k9_seed0", ['--mode', 'vc', '--alpha', '0.5'], 0,
        "baef14827927734daa8e8ba9febff28aa7aa138553f68c87a8496c2c0d2ff1e3",
    ),
    "k9_seed0_vc_alpha3": (
        "k9_seed0", ['--mode', 'vc', '--alpha', '3'], 0,
        "19ce5a0411c6c0ef23814cb039ed975bba5dba4a37dbc0805e533023728a5766",
    ),
    "k9_seed1_datagram": (
        "k9_seed1", ['--mode', 'datagram'], 0,
        "461a8794825701ac1afb76361ae541a5dfb206823d399c3cdb2c2afb30d7e83b",
    ),
    "k9_seed1_vc_alpha0": (
        "k9_seed1", ['--mode', 'vc', '--alpha', '0'], 0,
        "4d42a1262664d9c7f982d656cdf9f892bb8f99da50fe830e7e7b8d9583f17e9e",
    ),
    "k9_seed1_vc_alpha0.5": (
        "k9_seed1", ['--mode', 'vc', '--alpha', '0.5'], 0,
        "3ad38129ebf4e18bd3b89214f0aee54760aeb2a4515c7f7cbec17235d1ea16ce",
    ),
    "k9_seed1_vc_alpha3": (
        "k9_seed1", ['--mode', 'vc', '--alpha', '3'], 0,
        "056aebe09781ac7ce848cd365b0d3542c019602422b93d6d9bb2c89e49868c60",
    ),
    "k9_seed2_datagram": (
        "k9_seed2", ['--mode', 'datagram'], 0,
        "85ddbc2d9e8ab6da04239fe4a8407eccf70f44d0448dc357a6065212561b1ea4",
    ),
    "k9_seed2_vc_alpha0": (
        "k9_seed2", ['--mode', 'vc', '--alpha', '0'], 0,
        "6072566e9ffd97231e661bbceb5f75efacc2c242c84757c1c96f353a64da1ff1",
    ),
    "k9_seed2_vc_alpha0.5": (
        "k9_seed2", ['--mode', 'vc', '--alpha', '0.5'], 0,
        "75b211f3b43d07bfcb215313f6dffc80a748d6b444bfad4ae68c10ca2a5e2868",
    ),
    "k9_seed2_vc_alpha3": (
        "k9_seed2", ['--mode', 'vc', '--alpha', '3'], 0,
        "a2a8e646ac9849c75a18ca47fbdb1c86083c7d17eabfdf93bf3ee7bb670017a7",
    ),
    "mixed_datagram": (
        "mixed", ['--mode', 'datagram'], 0,
        "633d7bca6a13f13fc0a33a958ef125abe3023169175028a4ec2988bbc2d1002b",
    ),
    "mixed_vc": (
        "mixed", ['--mode', 'vc', '--alpha', '0.5'], 0,
        "c696beda26a376d7a9c8c334a8548b6b86bd7806818810aedebd1780ba7e72a0",
    ),
    "self_route_datagram": (
        "self_route", ['--mode', 'datagram'], 0,
        "cea39a80e0b5bac9742433f5a6ea2a4ab8427cb301ea829e2ce262b133a31ea4",
    ),
    "self_route_vc": (
        "self_route", ['--mode', 'vc', '--alpha', '0.5'], 0,
        "73d53aecbb28c8c283ab8597446effd17ac842f99e07d7630609faf5cb882fc2",
    ),
    "unreachable_datagram": (
        "unreachable", ['--mode', 'datagram'], 0,
        "5b2c6a311d926d20a345a8d258e9ec8195f4c3eeb377a19e6282fce2480dd7ab",
    ),
    "unreachable_vc": (
        "unreachable", ['--mode', 'vc', '--alpha', '0.5'], 0,
        "001d5d7196f7dd9604ef020b006590b9d7c9b1e2eb54089e2b35fcea751777f1",
    ),
}


def route(tmp_path, network, argv):
    path = tmp_path / "net.json"
    path.write_text(json.dumps(network))
    out = tmp_path / "route.json"
    code = cli.main(["route", "--network", str(path), *argv, "-o", str(out)])
    return code, out.read_bytes()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_route_digest(name, tmp_path):
    network, argv, want_code, want_digest = GOLDEN[name]
    code, data = route(tmp_path, NETWORKS[network](), argv)
    assert (code, hashlib.sha256(data).hexdigest()) == (want_code, want_digest)


# What each small network must keep showing, so that it stays the edge
# case it was chosen for.
REACHES = {
    "all_zero_vc": lambda doc: doc["chosen"]["score"] == "-inf"
    and doc["chosen"]["viable"] is False,
    "mixed_vc": lambda doc: {1.0, 0.4} <= {
        p for c in doc["candidates"] for p in c["edge_probs"]},
    "escapes_vc": lambda doc: doc["chosen"]["path"][0] == 'q"1',
    "self_route_vc": lambda doc: doc["candidates"] == [{"path": ["A"], "edge_probs": []}],
    # the product of no factors is the integer 1, as math.prod gives it
    "self_route_datagram": lambda doc: type(doc["chosen"]["score"]) is int,
    "unreachable_vc": lambda doc: doc["status"] == "unreachable",
}


@pytest.mark.parametrize("name", sorted(REACHES))
def test_network_reaches_its_case(name, tmp_path):
    network, argv, _, _ = GOLDEN[name]
    _, data = route(tmp_path, NETWORKS[network](), argv)
    assert REACHES[name](json.loads(data))
