"""The ``rates`` array pass against the scalar ``csv.writer`` loop.

``cli`` computes r' over the whole (q_tol, p) grid in one numpy broadcast
and writes the CSV from text pieces, a block of lines at a time.  Its
bytes must equal those of the loop it replaced
(``tests/rates_reference.py``) for every accepted grid, and reach the
output in writes of at most 2**20 characters.
"""

import hashlib
import io
import os
import tempfile
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import rates_reference as ref
from pbc_bb84 import cli
from test_route_trie import WriteSizes

#: sha256 of the benchmark's ``rates`` CSV (61 x 50 at N = 100)
BENCHMARK_DIGEST = "5b029d40fbf92688b9f571189279692d633b1ae1d16007657029f3ba483aa4a9"


def ranges(hi, exclude_max=False):
    """(lo, hi) inside [0, hi], -0.0 and the ends included."""
    value = st.one_of(
        st.floats(0.0, hi, exclude_max=exclude_max),
        st.sampled_from([-0.0, 0.0, 5e-324] + ([] if exclude_max else [hi])),
    )
    return st.tuples(value, value).map(sorted)


def written(q, p, steps, n_quarter) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "rates.csv")
        assert cli.main([
            "rates", f"--q-min={q[0]!r}", f"--q-max={q[1]!r}",
            f"--p-min={p[0]!r}", f"--p-max={p[1]!r}",
            f"--q-steps={steps[0]}", f"--p-steps={steps[1]}",
            f"--n-quarter={n_quarter}", "-o", out,
        ]) == 0
        with open(out, "rb") as fh:
            return fh.read()


@settings(max_examples=200, deadline=None)
@given(
    q=ranges(0.5, exclude_max=True),
    p=ranges(1.0),
    steps=st.tuples(st.integers(1, 60), st.integers(1, 60)),
    n_quarter=st.one_of(
        st.integers(1, 2000), st.integers(1, 10**308), st.sampled_from([1, 10**308]),
    ),
    # a few lines per write, so that small grids take every path of the
    # block loop: whole rows per write, and a row written in parts
    block=st.sampled_from([1, 2, 3, 7, 64, cli._RATES_BLOCK]),
)
# the last step of this p grid rounds to 1.0000000000000002 unless held at 1
@example(q=[0.0, 0.0], p=[0.11437208194019124, 1.0], steps=(1, 56), n_quarter=1, block=1)
def test_bytes_equal_reference(q, p, steps, n_quarter, block):
    theirs = io.StringIO(newline="")
    ref.write_rates(theirs, cli._grid(*q, steps[0]), cli._grid(*p, steps[1]), n_quarter)
    with mock.patch.object(cli, "_RATES_BLOCK", block):
        assert written(q, p, steps, n_quarter) == theirs.getvalue().encode()


def test_benchmark_grid_digest(tmp_path):
    out = tmp_path / "rates.csv"
    argv = ["rates", "--q-steps", "61", "--p-steps", "50", "--n-quarter", "100"]
    assert cli.main([*argv, "-o", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == BENCHMARK_DIGEST


@pytest.mark.parametrize("steps", [(1, 2**20), (2**20, 1)])
def test_rates_written_in_bounded_chunks(steps, tmp_path, monkeypatch):
    argv = ["rates", "--q-steps", str(steps[0]), "--p-steps", str(steps[1])]
    out = tmp_path / "rates.csv"
    assert cli.main([*argv, "-o", str(out)]) == 0
    stream = WriteSizes()
    monkeypatch.setattr("sys.stdout", stream)
    assert cli.main([*argv, "-o", "-"]) == 0
    text = out.read_bytes().decode()
    assert text.count("\r\n") == 1 + 2**20
    assert "".join(stream.parts) == text
    assert max(stream.sizes) <= 2**20
