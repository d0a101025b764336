import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import time
import warnings
from dataclasses import fields
from importlib import resources

import jsonschema
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from pbc_bb84 import cli
from pbc_bb84 import math_core as mc
from pbc_bb84.commitment_protocol import SessionConfig


def load_schema(name):
    ref = resources.files("pbc_bb84") / "schemas" / name
    return json.loads(ref.read_text())


def run_cli(argv):
    try:
        return cli.main(argv)
    except SystemExit as exc:  # argparse usage failures
        return exc.code


@pytest.fixture
def network_file(tmp_path):
    doc = {
        "nodes": ["A", "B", "C", "D"],
        "edges": [
            {"a": "A", "b": "B", "buffer_bits": 50},
            {"a": "B", "b": "D", "buffer_bits": 80},
            {"a": "A", "b": "C", "buffer_bits": 20},
            {"a": "C", "b": "D", "buffer_bits": 90},
        ],
        "traffic": {"src": "A", "dst": "D", "n_packets": 10, "packet_len": 10},
    }
    path = tmp_path / "net.json"
    path.write_text(json.dumps(doc))
    return path


@pytest.fixture
def small_argv(tmp_path, network_file):
    """A small accepted argument list of each subcommand, without ``-o``:
    the default session, a 3x2 rates grid, the default binding grid at
    ``--delta-grid 10`` and a diamond route."""
    config = tmp_path / "session.json"
    config.write_text("{}")
    return {
        "rates": ["rates", "--q-steps", "3", "--p-steps", "2"],
        "binding": ["binding", "--delta-grid", "10"],
        "simulate": ["simulate", "--config", str(config)],
        "route": ["route", "--network", str(network_file)],
    }


COMMANDS = ["rates", "binding", "simulate", "route"]


#: One field's value: in and out of range, integral and fractional floats,
#: NaN, infinities, bools, huge numbers, null and strings.  Other floats stay
#: within 1e4, where the runtime's exact C(2N, N) is cheap.
CONFIG_VALUES = st.one_of(
    st.integers(-100, 100),
    st.integers(-100, 100).map(float),
    st.floats(-1e4, 1e4),
    st.sampled_from([
        math.nan, math.inf, -math.inf, -0.0, 1e-9, 2**30, 2**64, 1e300, -1e300,
    ]),
    st.booleans(),
    st.none(),
    st.sampled_from(["", "1", "raw", "compressed"]),
)

#: Values of the wrong type or outside every field's range.
WRONG_VALUES = st.sampled_from([
    math.nan, math.inf, -math.inf, 1.5, -1, 2**64, 10**400, "10", "", True, None, [1],
])
TRANSCRIPT_SCHEMA = load_schema("transcript.schema.json")
REPORT_SCHEMA = load_schema("reservation_report.schema.json")


@st.composite
def session_docs(draw):
    """Valid session configs short enough for a per-case time limit (N <= 3,
    at most 200 frames, detection >= 0.05), with up to two fields replaced
    by values of any kind, frame budgets and detection included."""
    n = draw(st.integers(1, 3))
    doc = {
        "n_quarter": n, "x": draw(st.integers(0, math.comb(2 * n, n))),
        "commit_bit": draw(st.integers(0, 1)), "frame_budget": draw(st.integers(1, 200)),
        "seed": draw(st.integers(0, 2**64)), "detection_prob": draw(st.floats(0.05, 1.0)),
        "flip_prob": draw(st.floats(0.0, 0.2)), "q_tol": draw(st.floats(0.0, 0.2)),
        "n_tol": draw(st.integers(1, 2 * n + 1)), "e_tol": draw(st.floats(0.0, 0.49)),
        "payload_mode": draw(st.sampled_from(["raw", "compressed"])),
        "commit_all": draw(st.booleans()),
        "tamper_p1_bit": draw(st.one_of(st.none(), st.integers(0, 1))),
    }
    for name in draw(st.lists(st.sampled_from(sorted(doc)), max_size=2, unique=True)):
        if name in ("frame_budget", "detection_prob"):
            doc[name] = draw(st.one_of(WRONG_VALUES, st.integers(-2, 0)))
        else:
            doc[name] = draw(st.one_of(CONFIG_VALUES, WRONG_VALUES))
    return doc


@st.composite
def network_docs(draw):
    """Valid networks of at most five nodes, with up to two fields replaced
    by values of any kind."""
    names = draw(st.lists(st.sampled_from("ABCDE"), min_size=1, max_size=5, unique=True))
    pairs = [(a, b) for i, a in enumerate(names) for b in names[i + 1:]]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    doc = {
        "nodes": names,
        "edges": [{"a": a, "b": b, "buffer_bits": draw(st.integers(0, 100))} for a, b in edges],
        "traffic": {
            "src": draw(st.sampled_from(names)), "dst": draw(st.sampled_from(names)),
            "n_packets": draw(st.integers(1, 50)), "packet_len": draw(st.integers(1, 50)),
        },
    }
    slots = [(doc, "nodes"), (doc, "edges")] + [(doc["traffic"], k) for k in doc["traffic"]]
    slots += [(edge, k) for edge in doc["edges"] for k in edge]
    for i in draw(st.lists(st.integers(0, len(slots) - 1), max_size=2, unique=True)):
        owner, key = slots[i]
        owner[key] = draw(st.one_of(CONFIG_VALUES, WRONG_VALUES, st.sampled_from(names)))
    return doc


class TestRates:
    def test_csv_shape_and_boundary(self, tmp_path):
        out = tmp_path / "rates.csv"
        code = run_cli(
            [
                "rates", "--q-min", "0", "--q-max", "0.04", "--q-steps", "3",
                "--p-min", "0", "--p-max", "0.01", "--p-steps", "2",
                "-o", str(out),
            ]
        )
        assert code == 0
        rows = list(csv.DictReader(out.open()))
        assert list(rows[0]) == ["q_tol", "p", "r", "r_prime"]
        assert len(rows) == 6
        first = rows[0]
        assert float(first["r"]) == 1.0
        assert float(first["r_prime"]) == 1.0  # (q=0, p=0) boundary

    def test_single_point(self, tmp_path):
        out = tmp_path / "one.csv"
        assert run_cli(
            ["rates", "--q-steps", "1", "--p-steps", "1", "-o", str(out)]
        ) == 0
        assert len(list(csv.DictReader(out.open()))) == 1

    def test_invalid_range(self):
        assert run_cli(["rates", "--q-min", "0.4", "--q-max", "0.6"]) == 64

    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["rates", "--q-steps", "5", "--p-steps", "5"]
        run_cli(argv + ["-o", str(a)])
        run_cli(argv + ["-o", str(b)])
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("argv", [
        ["--n-quarter", "0"],
        ["--n-quarter", str(2**1024)],
        ["--q-steps", "0"],
        ["--q-steps", str(cli.MAX_RATES_ROWS + 1), "--p-steps", "1"],
        ["--q-steps", "1025", "--p-steps", "1024"],
        ["--p-steps", str(10**8)],
        ["--q-steps", "0", "--p-steps", str(10**400)],
    ])
    def test_refused_in_one_line(self, tmp_path, capsys, argv):
        out = tmp_path / "rates.csv"
        start = time.perf_counter()
        assert run_cli(["rates", *argv, "-o", str(out)]) == 64
        assert time.perf_counter() - start < 1.0
        assert capsys.readouterr().err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("steps", [1, 2])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("bound", ["--q-min", "--q-max", "--p-min", "--p-max"])
    def test_non_finite_bound_refused(self, tmp_path, capsys, bound, value, steps):
        # a NaN step would be clamped to the range's upper bound
        out = tmp_path / "rates.csv"
        assert run_cli([
            "rates", f"{bound}={value}", "--q-steps", str(steps),
            "--p-steps", str(steps), "-o", str(out),
        ]) == 64
        assert capsys.readouterr().err.count("\n") == 1
        assert not out.exists()

    @settings(max_examples=50, deadline=None)
    @given(
        q=st.tuples(*[st.one_of(st.floats(0.0, 0.5), st.floats())] * 2),
        p=st.tuples(*[st.one_of(st.floats(0.0, 1.0), st.floats())] * 2),
        steps=st.tuples(*[st.one_of(
            st.integers(-2, 100),
            st.sampled_from([cli.MAX_RATES_ROWS + 1, 10**8, 10**400]),
        )] * 2),
        n_quarter=st.one_of(
            st.integers(-2, 2000), st.sampled_from([2**64, 10**308, 10**309, 10**4000]),
        ),
    )
    def test_fuzz_exit_codes(self, q, p, steps, n_quarter):
        # every accepted argument list ends in a CSV, or in exit 64 with
        # one line and no file; an exception would fail the test here
        with tempfile.TemporaryDirectory() as tmp:
            out = os.path.join(tmp, "rates.csv")
            err = io.StringIO()
            start = time.perf_counter()
            with contextlib.redirect_stderr(err):
                code = run_cli([
                    "rates", f"--q-min={q[0]!r}", f"--q-max={q[1]!r}",
                    f"--p-min={p[0]!r}", f"--p-max={p[1]!r}",
                    f"--q-steps={steps[0]}", f"--p-steps={steps[1]}",
                    f"--n-quarter={n_quarter}", "-o", out,
                ])
            assert time.perf_counter() - start < 2.0
            assert code in (0, 64)
            if code == 64:
                assert err.getvalue().count("\n") == 1
                assert not os.path.exists(out)
            else:
                with open(out) as f:
                    assert len(f.readlines()) == 1 + steps[0] * steps[1]


class TestBinding:
    def test_matches_direct_call(self, tmp_path):
        out = tmp_path / "binding.csv"
        code = run_cli(
            [
                "binding", "--p", "0.1", "--n-tol", "10", "20",
                "--e-tol", "0.05", "--variant", "both",
                "--delta-grid", "500", "-o", str(out),
            ]
        )
        assert code == 0
        rows = list(csv.DictReader(out.open()))
        assert len(rows) == 4
        for row in rows:
            bp = mc.BindingParams(
                float(row["p"]), int(row["n_tol"]), float(row["e_tol"]), 500
            )
            direct = mc.binding_bound(bp, row["variant"])
            assert float(row["eps_b"]) == float(f"{direct:.12g}")

    def test_p_zero_rows(self, tmp_path):
        out = tmp_path / "z.csv"
        run_cli(
            ["binding", "--p", "0", "--n-tol", "20", "--e-tol", "0.05",
             "--variant", "literal", "--delta-grid", "100", "-o", str(out)]
        )
        rows = list(csv.DictReader(out.open()))
        assert all(float(r["eps_b"]) == 0.0 for r in rows)

    def test_n_tol_one_rejected(self):
        assert run_cli(["binding", "--n-tol", "1"]) == 64

    def test_delta_grid_limit(self, tmp_path, capsys):
        out = tmp_path / "binding.csv"
        argv = ["binding", "--n-tol", "10", "--variant", "literal", "-o", str(out)]
        start = time.perf_counter()
        assert run_cli([*argv, "--delta-grid", str(mc.MAX_DELTA_GRID + 1)]) == 64
        assert time.perf_counter() - start < 1.0
        assert capsys.readouterr().err.count("\n") == 1
        assert not out.exists()
        assert run_cli([*argv, "--delta-grid", str(mc.MAX_DELTA_GRID)]) == 0
        assert len(list(csv.DictReader(out.open()))) == 1

    @pytest.mark.parametrize("grid", [
        ["--p", "0.1", "2.0"],
        ["--e-tol", "0.6"],
        ["--delta-grid", "1"],
        ["--n-tol", "0"],
        ["--n-tol", "10", "1"],
    ])
    def test_invalid_grid_writes_nothing(self, tmp_path, capsys, grid):
        out = tmp_path / "binding.csv"
        assert run_cli(["binding", *grid, "-o", str(out)]) == 64
        assert not out.exists()
        assert run_cli(["binding", *grid, "-o", "-"]) == 64
        assert capsys.readouterr().out == ""

    @settings(max_examples=50, deadline=None)
    @given(
        p=st.one_of(st.floats(0.0, 1.0), st.floats()),
        n_tol=st.one_of(
            st.integers(-2, 2000),
            st.integers(1, mc.MAX_N_TOL + 10),
            st.sampled_from([2**64, 10**400, 10**4000]),
        ),
        e_tol=st.one_of(st.floats(0.0, 0.5), st.floats()),
        variant=st.sampled_from([*mc.BINDING_VARIANTS, "both"]),
        delta_grid=st.integers(0, 64),
    )
    def test_fuzz_exit_codes(self, p, n_tol, e_tol, variant, delta_grid):
        # every accepted argument list ends in a CSV, or in exit 64 with
        # one line and no file; an exception would fail the test here
        with tempfile.TemporaryDirectory() as tmp:
            out = os.path.join(tmp, "binding.csv")
            err = io.StringIO()
            start = time.perf_counter()
            with contextlib.redirect_stderr(err):
                code = run_cli([
                    "binding", f"--p={p!r}", f"--n-tol={n_tol}", f"--e-tol={e_tol!r}",
                    "--variant", variant, "--delta-grid", str(delta_grid), "-o", out,
                ])
            assert time.perf_counter() - start < 2.0
            assert code in (0, 64)
            if code == 64:
                assert err.getvalue().count("\n") == 1
                assert not os.path.exists(out)

    def test_float_range_refused(self, tmp_path, capsys):
        out = tmp_path / "binding.csv"
        for grid in (
            ["--n-tol", "720", "--e-tol", "0.45"],  # eps_b above 2^1024
            ["--n-tol", "6000", "--e-tol", "0"],  # the grid minimum underflows
            ["--n-tol", str(mc.MAX_N_TOL + 1)],
        ):
            start = time.perf_counter()
            assert run_cli(["binding", *grid, "-o", str(out)]) == 64
            assert time.perf_counter() - start < 1.0
            assert capsys.readouterr().err.count("\n") == 1
            assert not out.exists()


class TestSimulate:
    def write_config(self, tmp_path, **overrides):
        doc = {"seed": 1, "frame_budget": 200}
        doc.update(overrides)
        path = tmp_path / "session.json"
        path.write_text(json.dumps(doc))
        return path

    def test_accept_and_schema(self, tmp_path):
        cfg = self.write_config(tmp_path)
        out = tmp_path / "transcript.json"
        assert run_cli(["simulate", "--config", str(cfg), "-o", str(out)]) == 0
        doc = json.loads(out.read_text())
        jsonschema.validate(doc, load_schema("transcript.schema.json"))
        assert doc["status"] == "accept"

    def test_reject_exit_code(self, tmp_path):
        cfg = self.write_config(tmp_path, tamper_p1_bit=0)
        assert run_cli(["simulate", "--config", str(cfg)]) == 2

    def test_no_commit_exit_code(self, tmp_path):
        cfg = self.write_config(tmp_path, frame_budget=1)
        assert run_cli(["simulate", "--config", str(cfg)]) == 3

    def test_byte_identical_reruns(self, tmp_path):
        cfg = self.write_config(tmp_path)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run_cli(["simulate", "--config", str(cfg), "-o", str(a)])
        run_cli(["simulate", "--config", str(cfg), "-o", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_bad_config_field(self, tmp_path):
        cfg = self.write_config(tmp_path, flip_prob=0.9)
        assert run_cli(["simulate", "--config", str(cfg)]) == 64

    @pytest.mark.parametrize("overrides", [
        {"seed": -1},
        {"seed": 1.5},
        {"frame_budget": True},
        {"n_quarter": True, "x": 1},
        {"commit_all": 1},
    ])
    def test_bad_config_type(self, tmp_path, overrides):
        # the schema rejects each of these; so must the runtime, cleanly
        cfg = self.write_config(tmp_path, **overrides)
        schema = load_schema("session_config.schema.json")
        assert not jsonschema.Draft202012Validator(schema).is_valid(
            json.loads(cfg.read_text())
        )
        assert run_cli(["simulate", "--config", str(cfg)]) == 64

    @pytest.mark.parametrize("text", ["[]", '["a", "b", "c"]', "null", '"seed"', "7"])
    @pytest.mark.parametrize("seed", [[], ["--seed", "1"]])
    def test_config_not_an_object(self, tmp_path, capsys, text, seed):
        cfg = tmp_path / "session.json"
        cfg.write_text(text)
        assert run_cli(["simulate", "--config", str(cfg), *seed]) == 64
        assert capsys.readouterr().err == (
            "simulate: invalid config: config must be a JSON object\n"
        )

    @pytest.mark.parametrize("data", [
        b"[" * 100_000 + b"]" * 100_000,
        # past Python's int-string limit of 4,300 digits
        b'{"seed": ' + b"9" * 5_000 + b"}",
        b'\xff\xfe{}',
    ], ids=["nested", "long_integer", "not_utf8"])
    def test_unreadable_config(self, tmp_path, capsys, data):
        cfg = tmp_path / "session.json"
        cfg.write_bytes(data)
        assert run_cli(["simulate", "--config", str(cfg)]) == 64
        assert capsys.readouterr().err.count("\n") == 1

    def test_integral_float_is_an_integer(self, tmp_path):
        # the schema's integer type admits 1.0
        outputs = []
        for seed in (1, 1.0):
            cfg = self.write_config(tmp_path, seed=seed)
            out = tmp_path / f"{seed!r}.json"
            assert run_cli(["simulate", "--config", str(cfg), "-o", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("overrides", [
        {"detection_prob": 1e-6},  # 1.6e9 expected pulses at 200 frames
        {"frame_budget": 10**12},
    ])
    def test_session_that_cannot_finish(self, tmp_path, capsys, overrides):
        cfg = self.write_config(tmp_path, **overrides)
        start = time.perf_counter()
        assert run_cli(["simulate", "--config", str(cfg)]) == 64
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "2^30" in err

    @pytest.mark.parametrize("bit", [-1, 4])
    def test_tamper_bit_outside_payload(self, tmp_path, capsys, bit):
        cfg = self.write_config(tmp_path, tamper_p1_bit=bit)
        assert run_cli(["simulate", "--config", str(cfg)]) == 64
        assert capsys.readouterr().err.count("\n") == 1

    def test_last_tamper_bit(self, tmp_path):
        cfg = self.write_config(tmp_path, tamper_p1_bit=3)
        assert run_cli(["simulate", "--config", str(cfg)]) == 2

    def test_n_quarter_above_cap(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path, n_quarter=1025, x=1)
        start = time.perf_counter()
        assert run_cli(["simulate", "--config", str(cfg)]) == 64
        assert time.perf_counter() - start < 1.0
        assert capsys.readouterr().err.count("\n") == 1

    def test_n_quarter_at_cap(self, tmp_path):
        cfg = self.write_config(tmp_path, n_quarter=1024, x=1, frame_budget=1)
        assert run_cli(["simulate", "--config", str(cfg)]) == 3

    def test_unknown_field(self, tmp_path):
        cfg = self.write_config(tmp_path, not_a_field=1)
        assert run_cli(["simulate", "--config", str(cfg)]) == 64

    def test_config_schema_accepts_valid(self, tmp_path):
        doc = {"seed": 1, "frame_budget": 200}
        jsonschema.validate(doc, load_schema("session_config.schema.json"))

    @settings(max_examples=100, deadline=None)
    @given(
        doc=session_docs(),
        seed=st.one_of(
            st.none(), st.integers(-3, 2**70).map(str),
            st.sampled_from(["", "x", "1.0", "1e3", "0x10"]),
        ),
    )
    def test_fuzz_exit_codes(self, doc, seed):
        # every accepted config ends in a schema-valid transcript, or in
        # exit 64 with one line; an exception would fail the test here
        with tempfile.TemporaryDirectory() as tmp:
            cfg, out = os.path.join(tmp, "session.json"), os.path.join(tmp, "t.json")
            with open(cfg, "w") as fh:
                json.dump(doc, fh)
            argv = ["simulate", "--config", cfg, "-o", out]
            err = io.StringIO()
            start = time.perf_counter()
            with contextlib.redirect_stderr(err):
                code = run_cli(argv if seed is None else [*argv, f"--seed={seed}"])
            assert time.perf_counter() - start < 2.0
            assert code in (0, 2, 3, 64)
            if code == 64:
                assert err.getvalue().count("\n") == 1
                assert not os.path.exists(out)
            else:
                with open(out) as fh:
                    jsonschema.validate(json.load(fh), TRANSCRIPT_SCHEMA)


class TestRoute:
    def test_datagram_matches_hand_computed(self, network_file, tmp_path):
        out = tmp_path / "route.json"
        code = run_cli(
            ["route", "--network", str(network_file), "--mode", "datagram",
             "-o", str(out)]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        jsonschema.validate(doc, load_schema("reservation_report.schema.json"))
        jsonschema.validate(
            json.loads(network_file.read_text()), load_schema("network.schema.json")
        )
        # A-B-D: 0.5 * 0.8 = 0.4 beats A-C-D: 0.2 * 0.9 = 0.18
        assert doc["chosen"]["path"] == ["A", "B", "D"]
        assert doc["status"] == "ok"

    def test_vc_alpha_zero_equals_datagram(self, network_file, tmp_path):
        a, b = tmp_path / "dg.json", tmp_path / "vc.json"
        run_cli(["route", "--network", str(network_file), "--mode", "datagram",
                 "-o", str(a)])
        run_cli(["route", "--network", str(network_file), "--mode", "vc",
                 "--alpha", "0", "-o", str(b)])
        assert (
            json.loads(a.read_text())["chosen"]["path"]
            == json.loads(b.read_text())["chosen"]["path"]
        )

    def test_vc_reservation_report(self, network_file, tmp_path):
        out = tmp_path / "vc.json"
        run_cli(["route", "--network", str(network_file), "--mode", "vc",
                 "-o", str(out)])
        doc = json.loads(out.read_text())
        jsonschema.validate(doc, load_schema("reservation_report.schema.json"))
        res = doc["reservation"]
        assert res is not None
        for before, after in zip(res["before_probs"], res["after_probs"]):
            assert after >= before

    def test_unreachable_status(self, tmp_path):
        doc = {
            "nodes": ["A", "B", "C"],
            "edges": [{"a": "A", "b": "B", "buffer_bits": 10}],
            "traffic": {"src": "A", "dst": "C", "n_packets": 1, "packet_len": 1},
        }
        net = tmp_path / "net.json"
        net.write_text(json.dumps(doc))
        out = tmp_path / "r.json"
        assert run_cli(["route", "--network", str(net), "-o", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["status"] == "unreachable"
        assert report["chosen"] is None

    def test_underflowing_product_is_viable(self, tmp_path):
        # each edge serves 1e-200, so the datagram product underflows to
        # 0.0 while no edge is dead
        doc = {
            "nodes": ["A", "B", "C"],
            "edges": [{"a": "A", "b": "B", "buffer_bits": 1},
                      {"a": "B", "b": "C", "buffer_bits": 1}],
            "traffic": {"src": "A", "dst": "C", "n_packets": 10**200, "packet_len": 1},
        }
        net, out = tmp_path / "net.json", tmp_path / "route.json"
        net.write_text(json.dumps(doc))
        assert run_cli(["route", "--network", str(net), "-o", str(out)]) == 0
        chosen = json.loads(out.read_text())["chosen"]
        assert chosen["edge_probs"] == [1e-200, 1e-200] and chosen["score"] == 0.0
        assert chosen["viable"] is True

    def test_empty_network_is_usage_error(self, tmp_path):
        net = tmp_path / "net.json"
        net.write_text(json.dumps({"nodes": [], "edges": [], "traffic": {}}))
        assert run_cli(["route", "--network", str(net)]) == 64

    @pytest.mark.parametrize("path, value", [
        (("edges", 0, "buffer_bits"), 5.7),
        (("traffic", "n_packets"), 1.5),
        (("traffic", "packet_len"), True),
        (("traffic", "n_packets"), 1e400),  # read as inf
        (("nodes",), "ABCD"),
    ])
    def test_untyped_field_is_usage_error(self, network_file, capsys, path, value):
        doc = json.loads(network_file.read_text())
        *parents, last = path
        target = doc
        for key in parents:
            target = target[key]
        target[last] = value
        network_file.write_text(json.dumps(doc))
        assert not jsonschema.Draft202012Validator(
            load_schema("network.schema.json")).is_valid(doc)
        assert run_cli(["route", "--network", str(network_file)]) == 64
        assert capsys.readouterr().err.count("\n") == 1

    def test_deeply_nested_document(self, tmp_path, capsys):
        net = tmp_path / "net.json"
        net.write_text("[" * 100_000 + "]" * 100_000)
        assert run_cli(["route", "--network", str(net)]) == 64
        assert capsys.readouterr().err.count("\n") == 1

    def test_integer_node_names(self, tmp_path, capsys):
        doc = {
            "nodes": [1, 2],
            "edges": [{"a": 1, "b": 2, "buffer_bits": 7}],
            "traffic": {"src": 1, "dst": 2, "n_packets": 1, "packet_len": 1},
        }
        net = tmp_path / "net.json"
        net.write_text(json.dumps(doc))
        assert run_cli(["route", "--network", str(net)]) == 64
        assert capsys.readouterr().err.count("\n") == 1

    def test_integral_float_is_an_integer(self, network_file, tmp_path):
        doc = json.loads(network_file.read_text())
        outputs = []
        for bits in (50, 50.0):
            doc["edges"][0]["buffer_bits"] = bits
            network_file.write_text(json.dumps(doc))
            out = tmp_path / f"{bits!r}.json"
            assert run_cli(["route", "--network", str(network_file), "-o", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("alpha", ["-1", "nan", "inf", "nan\n"])
    def test_alpha_outside_range(self, network_file, capsys, alpha):
        argv = ["route", "--network", str(network_file), "--mode", "vc", "--alpha", alpha]
        assert run_cli(argv) == 64
        assert capsys.readouterr().err.count("\n") == 1

    @settings(max_examples=100, deadline=None)
    @given(
        doc=network_docs(),
        # a valid mode in 4 cases of 5, so that most documents are routed
        mode=st.sampled_from(["datagram", "vc", "datagram", "vc", None]).flatmap(
            lambda mode: st.text(max_size=4) if mode is None else st.just(mode)),
        alpha=st.one_of(
            st.none(), st.floats(0.0, 10.0).map(repr), st.floats().map(repr),
            st.text(max_size=4),
            st.sampled_from(["1e400", "-0", "0x1", " 2 ", "nan\n", "1e308"]),
        ),
    )
    # a two-hop path's penalty past the float range
    @example(doc={
        "nodes": ["A", "B", "C"],
        "edges": [{"a": "A", "b": "B", "buffer_bits": 9}, {"a": "B", "b": "C", "buffer_bits": 9}],
        "traffic": {"src": "A", "dst": "C", "n_packets": 1, "packet_len": 1},
    }, mode="vc", alpha="1e308")
    def test_fuzz_exit_codes(self, doc, mode, alpha):
        # every accepted document and argument list ends in a schema-valid
        # report, or in exit 64 with one line; an exception would fail here
        with tempfile.TemporaryDirectory() as tmp:
            net, out = os.path.join(tmp, "net.json"), os.path.join(tmp, "r.json")
            with open(net, "w") as fh:
                json.dump(doc, fh)
            argv = ["route", "--network", net, f"--mode={mode}", "-o", out]
            err = io.StringIO()
            start = time.perf_counter()
            with contextlib.redirect_stderr(err), warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code = run_cli(argv if alpha is None else [*argv, f"--alpha={alpha}"])
            assert time.perf_counter() - start < 2.0
            assert code in (0, 64)
            if code == 64:
                assert err.getvalue().count("\n") == 1
                assert not os.path.exists(out)
            else:
                # a report is the whole output: no warning beside it
                assert not caught, [str(w.message) for w in caught]
                with open(out) as fh:
                    jsonschema.validate(json.load(fh), REPORT_SCHEMA)

    def test_too_many_paths(self, tmp_path, capsys):
        # K11: about 986,000 simple paths between two nodes
        nodes = [f"n{i}" for i in range(11)]
        doc = {
            "nodes": nodes,
            "edges": [{"a": a, "b": b, "buffer_bits": 1000}
                      for i, a in enumerate(nodes) for b in nodes[i + 1:]],
            "traffic": {"src": "n0", "dst": "n10", "n_packets": 1, "packet_len": 1},
        }
        net, out = tmp_path / "net.json", tmp_path / "r.json"
        net.write_text(json.dumps(doc))
        start = time.perf_counter()
        assert run_cli(["route", "--network", str(net), "-o", str(out)]) == 64
        assert time.perf_counter() - start < 2.0
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and str(2**17) in err

    def test_too_many_names_listed(self, tmp_path, capsys):
        # a chain of 5,000 nodes, then 10 diamonds: 1,024 paths that list
        # 5,142,528 node names, a 195 MB report
        spine = ["src", *(f"c{i:04}" for i in range(5000))]
        edges = list(zip(spine, spine[1:]))
        nodes, join = list(spine), spine[-1]
        for i in range(10):
            u, v, w = f"u{i}", f"v{i}", f"w{i}"
            edges += [(join, u), (join, v), (u, w), (v, w)]
            nodes += [u, v, w]
            join = w
        doc = {
            "nodes": [*nodes, "dst"],
            "edges": [{"a": a, "b": b, "buffer_bits": 1000} for a, b in [*edges, (join, "dst")]],
            "traffic": {"src": "src", "dst": "dst", "n_packets": 1, "packet_len": 1},
        }
        net, out = tmp_path / "net.json", tmp_path / "r.json"
        net.write_text(json.dumps(doc))
        start = time.perf_counter()
        assert run_cli(["route", "--network", str(net), "-o", str(out)]) == 64
        assert time.perf_counter() - start < 2.0
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and str(2**27) in err

    @pytest.mark.parametrize("extra", [0, 1])
    @pytest.mark.parametrize("valid", [True, False])
    @pytest.mark.parametrize("command", ["route", "simulate"])
    def test_document_size_cap(self, small_argv, tmp_path, capsys, command, extra, valid):
        # a network or config document padded to the cap, or one byte past
        # it; past it, it is refused by its size alone, whether its text is
        # JSON or not
        argv = small_argv[command]
        document, out, unpadded = argv[2], tmp_path / "out.json", tmp_path / "unpadded.json"
        code = run_cli([*argv, "-o", str(unpadded)])
        with open(document, "rb") as fh:
            text = fh.read() if valid else b"x"
        with open(document, "wb") as fh:
            fh.write(text.ljust(cli.MAX_DOCUMENT_BYTES + extra))
        start = time.perf_counter()
        padded = run_cli([*argv, "-o", str(out)])
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        if extra:
            assert padded == 64 and not out.exists()
            assert err.count("\n") == 1 and f"larger than {cli.MAX_DOCUMENT_BYTES} bytes" in err
        elif valid:
            assert padded == code == 0 and out.read_bytes() == unpadded.read_bytes()
        else:
            assert padded == 64 and "Expecting value" in err


def complete_network(n):
    # K_n between its first and last node: every path saturates no edge
    nodes = [f"n{i}" for i in range(n)]
    return {
        "nodes": nodes,
        "edges": [{"a": a, "b": b, "buffer_bits": 10**6}
                  for i, a in enumerate(nodes) for b in nodes[i + 1:]],
        "traffic": {"src": nodes[0], "dst": nodes[-1], "n_packets": 1, "packet_len": 1},
    }


# The child's peak is VmHWM, the high-water mark of its own address space.
# Its ru_maxrss is no measure: Linux carries the forking process's peak
# across exec, so a child of the test process reads at least the test
# process's own peak.
PEAK_CHILD = """
import sys
from pbc_bb84 import cli
code = cli.main(sys.argv[1:]) if sys.argv[1:] else 0
with open("/proc/self/status") as fh:
    print(next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:")) * 1024)
sys.exit(code)
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM")
class TestRefusalMemory:
    """A refused network document in a fresh process, its peak measured
    against a bare ``import pbc_bb84.cli`` in the same kind of process."""

    @staticmethod
    def peak(cwd, *argv):
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        done = subprocess.run(
            [sys.executable, "-c", PEAK_CHILD, *argv],
            env=dict(os.environ, PYTHONPATH=src), cwd=cwd,
            capture_output=True, text=True, timeout=120,
        )
        return done.returncode, done.stderr, int(done.stdout)

    @pytest.mark.parametrize("document,refusal,bound", [
        # read up to one byte past the cap, then refused unparsed: measured
        # 3.9 MB above the import (Python 3.11, numpy 2.4)
        ("past_cap", "larger than", 2),
        # the K700 network, 12.7 MB, refused as the document just past the cap
        ("K700", "larger than", 2),
        # K400, 4.1 MB and under the cap, is parsed, built and searched until
        # discovery refuses it: measured 95 MB above the import
        ("K400", "routes from n0 searched for n399", 30),
    ])
    def test_route_refusal_peak(self, tmp_path, document, refusal, bound):
        if document == "past_cap":
            text = json.dumps(complete_network(4)).ljust(cli.MAX_DOCUMENT_BYTES + 1)
        else:
            text = json.dumps(complete_network(int(document[1:])))
        (tmp_path / "net.json").write_text(text)
        assert (len(text) > cli.MAX_DOCUMENT_BYTES) == (refusal == "larger than")
        del text
        code, err, peak = self.peak(tmp_path, "route", "--network", "net.json", "-o", "r.json")
        assert code == 64 and err.count("\n") == 1 and refusal in err
        assert not (tmp_path / "r.json").exists()
        imported = self.peak(tmp_path)
        assert imported[:2] == (0, "")
        assert peak < imported[2] + bound * cli.MAX_DOCUMENT_BYTES


class TestUsage:
    def test_no_subcommand(self):
        assert run_cli([]) == 64

    def test_unknown_flag(self):
        assert run_cli(["rates", "--bogus"]) == 64

    def test_output_dir_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(tmp_path))
        run_cli(["rates", "--q-steps", "1", "--p-steps", "1", "-o", "rel.csv"])
        assert (tmp_path / "rel.csv").exists()

    @pytest.mark.parametrize("command", COMMANDS)
    @pytest.mark.parametrize("target", ["missing_dir", "directory", "missing_env_dir"])
    def test_unwritable_output(self, small_argv, tmp_path, monkeypatch, capsys,
                               command, target):
        if target == "missing_env_dir":
            monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(tmp_path / "missing"))
            out = "out.txt"
        elif target == "missing_dir":
            out = str(tmp_path / "missing" / "out.txt")
        else:
            out = str(tmp_path)
        assert run_cli([*small_argv[command], "-o", out]) == 64
        captured = capsys.readouterr()
        assert captured.err.count("\n") == 1 and captured.out == ""

    @pytest.mark.parametrize("command", COMMANDS)
    def test_stdout_matches_file(self, small_argv, tmp_path, capsys, command):
        out = tmp_path / "out.txt"
        argv = small_argv[command]
        code = run_cli([*argv, "-o", str(out)])
        for stdout in ([], ["-o", "-"]):
            assert run_cli([*argv, *stdout]) == code
            # a closed stdout would fail here, not only in a later test
            assert not sys.stdout.closed
            assert capsys.readouterr().out.encode() == out.read_bytes()

    def test_cli_imports_no_test_packages(self):
        # the test extra's packages are test-only; only a fresh interpreter
        # shows what the package imports by itself
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        loaded = subprocess.run(
            [sys.executable, "-c",
             "import sys, pbc_bb84.cli; print(*sorted(sys.modules))"],
            env=dict(os.environ, PYTHONPATH=src),
            capture_output=True, text=True, check=True,
        ).stdout.split()
        test_only = ("scipy", "jsonschema", "networkx", "hypothesis", "pytest")
        assert [m for m in loaded if m.split(".")[0] in test_only] == []

    def test_module_runs_as_a_script(self, tmp_path):
        # ``python -m pbc_bb84.cli`` reaches main through the __main__ guard
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        argv = ["rates", "--q-steps", "2", "--p-steps", "2"]
        done = subprocess.run(
            [sys.executable, "-m", "pbc_bb84.cli", *argv],
            env=dict(os.environ, PYTHONPATH=src), cwd=tmp_path,
            capture_output=True, text=True,
        )
        out = tmp_path / "rates.csv"
        assert run_cli([*argv, "-o", str(out)]) == 0
        assert (done.returncode, done.stderr) == (0, "")
        assert done.stdout == out.read_text()


class TestParserOnce:
    """The parser is built by the first ``main`` call in a process and kept;
    each call looks its subcommand up on the module by name."""

    def test_module_attributes_unchanged(self, small_argv, tmp_path):
        before = dict(vars(cli))
        cli.build_parser.cache_clear()
        assert run_cli([*small_argv["rates"], "-o", str(tmp_path / "r.csv")]) == 0
        assert dict(vars(cli)) == before

    def test_replaced_command_runs(self, small_argv, tmp_path, monkeypatch):
        out = tmp_path / "r.csv"
        assert run_cli([*small_argv["rates"], "-o", str(out)]) == 0
        seen = []
        with monkeypatch.context() as patch:
            patch.setattr(cli, "cmd_rates", lambda args: seen.append(args.command) or 5)
            assert run_cli(small_argv["rates"]) == 5
        assert seen == ["rates"]
        out.unlink()
        assert run_cli([*small_argv["rates"], "-o", str(out)]) == 0
        assert out.exists()

    @pytest.mark.parametrize("command", COMMANDS)
    def test_defaults_rerun_identical(self, small_argv, tmp_path, command):
        # the subcommand's own defaults: only its required input is given
        argv = small_argv[command] if command in ("simulate", "route") else [command]
        outputs = []
        for run in range(2):
            out = tmp_path / f"{run}.out"
            assert run_cli([*argv, "-o", str(out)]) in (0, 2, 3)
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
        defaults = cli.build_parser().parse_args(["binding"])
        assert (defaults.p, defaults.n_tol, defaults.e_tol) == (
            [0.1], [10, 20, 40, 80, 160, 320], [0.05])

    @pytest.mark.parametrize("command", COMMANDS)
    def test_usage_error_then_valid_call(self, small_argv, tmp_path, capsys, command):
        assert run_cli([command, "--bogus"]) == 64
        out = tmp_path / "out.txt"
        assert run_cli([*small_argv[command], "-o", str(out)]) in (0, 2, 3)
        assert capsys.readouterr().err.count("\n") == 1
        assert out.stat().st_size > 0


def violates_cross_field_rule(name, value):
    """Whether a numeric value of one field breaks, at the other fields'
    defaults (N = 2, x = 6, 200 frames, detection 1, raw payloads), a rule
    the schema cannot state: x <= C(2N, N), at most 2^30 expected pulses,
    or a tampered bit inside the 4-bit payload."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        return False
    return {
        "n_quarter": value == 1,
        "x": value > 6,
        "frame_budget": value * 4 * 2 > 2**30,
        "detection_prob": 200 * 4 * 2 > 2**30 * value > 0,
        "tamper_p1_bit": value >= 4,
    }.get(name, False)


class TestConfigSchemaAgreement:
    VALIDATOR = jsonschema.Draft202012Validator(load_schema("session_config.schema.json"))

    @pytest.mark.parametrize("name", [f.name for f in fields(SessionConfig)])
    @settings(max_examples=150, deadline=None)
    @given(value=CONFIG_VALUES)
    def test_schema_valid_iff_runtime_accepts(self, name, value):
        assume(not violates_cross_field_rule(name, value))
        doc = {name: value}
        try:
            SessionConfig.from_dict(doc)
            accepted = True
        except (TypeError, ValueError):
            accepted = False
        assert self.VALIDATOR.is_valid(doc) == accepted


#: The valid network that each agreement example changes in one field.
NETWORK = {
    "nodes": ["A", "B", "C", "D"],
    "edges": [
        {"a": "A", "b": "B", "buffer_bits": 50},
        {"a": "B", "b": "D", "buffer_bits": 80},
        {"a": "A", "b": "C", "buffer_bits": 20},
        {"a": "C", "b": "D", "buffer_bits": 90},
    ],
    "traffic": {"src": "A", "dst": "D", "n_packets": 10, "packet_len": 10},
}

#: ``nodes`` values: the four names plus extra items of every JSON type,
#: and values that are not lists at all.
NODES_VALUES = st.one_of(
    st.lists(
        st.one_of(st.text(max_size=2), st.integers(), st.floats(), st.booleans(), st.none()),
        max_size=3,
    ).map(lambda extra: NETWORK["nodes"] + extra),
    st.sampled_from(["ABCD", "", {"A": 0, "B": 1, "C": 2, "D": 3}]),
    CONFIG_VALUES,
)


def network_with(name, value):
    doc = json.loads(json.dumps(NETWORK))
    if name == "nodes":
        doc["nodes"] = value
    elif name == "buffer_bits":
        doc["edges"][0]["buffer_bits"] = value
    else:
        doc["traffic"][name] = value
    return doc


def violates_network_rule(name, value):
    """Whether one field's value breaks a rule the schema cannot state:
    src and dst name a node."""
    if name in ("src", "dst"):
        return isinstance(value, str) and value not in NETWORK["nodes"]
    return False


class TestNetworkSchemaAgreement:
    VALIDATOR = jsonschema.Draft202012Validator(load_schema("network.schema.json"))

    @pytest.mark.parametrize("name", [
        "nodes", "buffer_bits", "src", "dst", "n_packets", "packet_len",
    ])
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_schema_valid_iff_route_accepts(self, name, data):
        values = NODES_VALUES if name == "nodes" else st.one_of(
            CONFIG_VALUES, st.sampled_from(NETWORK["nodes"]))
        value = data.draw(values)
        assume(not violates_network_rule(name, value))
        self.assert_agree(network_with(name, value))

    def test_duplicate_node_names(self):
        self.assert_agree(network_with("nodes", ["A", "B", "C", "D", "A"]))

    def assert_agree(self, doc):
        with tempfile.TemporaryDirectory() as tmp:
            net = os.path.join(tmp, "net.json")
            with open(net, "w") as fh:
                json.dump(doc, fh)
            code = run_cli(["route", "--network", net, "-o", os.path.join(tmp, "r.json")])
        assert code in (0, 64)
        assert self.VALIDATOR.is_valid(doc) == (code == 0)
