"""Golden binding grids: sha256 of the CSV that ``pbc-bb84 binding`` writes.

The digests pin every printed digit of ε_b over three grids: the default
grid (the benchmark's ``binding_grid``), a wide grid of 480 rows over
p, N_tol and E_tol, and a coarse grid with ``--delta-grid 2`` that covers
p = 0, N_tol = 2 and E_tol = 0.25 (the default session's tolerances).
The digests were computed while the infimum over δ was still a scalar
loop, before it became one numpy pass over the same points.  Regenerate
one only for a change that alters ε_b on purpose, and say so where the
change is recorded.
"""

import hashlib

import pytest

from pbc_bb84 import cli

# name: (argv after "binding", sha256 of the CSV)
GOLDEN = {
    "default": (
        [],
        "f1e819913a9ee93798cda690d63e6ee35de8b55946c91efeb5e7d1d39b376db7",
    ),
    "wide": (
        ["--p", "0.01", "0.1", "0.5", "1",
         "--n-tol", "2", "3", "5", "10", "20", "40", "80", "160", "320", "640",
         "--e-tol", "0", "0.05", "0.1", "0.2", "0.34", "0.45"],
        "cc929e9e4072d628b24be5d0dd529faace8ffe6c3bc86b5e5a78af4ec5c99c49",
    ),
    "coarse": (
        ["--p", "0", "0.1025", "0.5", "1", "--n-tol", "2", "3", "20",
         "--e-tol", "0", "0.25", "0.45", "--delta-grid", "2"],
        "4d977f51714f8988c88ce23867f644ba2d256cfa04f5a5b069df3955db513085",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_binding_csv_digest(tmp_path, name):
    argv, digest = GOLDEN[name]
    out = tmp_path / "binding.csv"
    assert cli.main(["binding", *argv, "-o", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
