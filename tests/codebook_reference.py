"""Scalar codeword membership: the reference for ``codebook.is_codeword``.

The package decides membership only as a mask over ``(n, 2N)`` rows, by
comparing each row with the first balanced sequence outside the codebook.
This is the rule as the codebook defines it, one sequence at a time: a
sequence is a codeword iff it is balanced and its combinadic rank is below
the cutoff x.
"""

from pbc_bb84.codebook import Codebook, rank


def is_codeword(cb: Codebook, seq) -> bool:
    if len(seq) != cb.length:
        raise ValueError(f"expected {cb.length} bits, got {len(seq)}")
    return sum(seq) == cb.n_half and rank(tuple(seq)) < cb.x
