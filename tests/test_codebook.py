import math
import struct
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, strategies as st

import codebook_reference as ref
from pbc_bb84 import codebook as cbk


def balanced_sequences(n_half):
    """Independent enumeration oracle: every balanced 2N-bit tuple in
    lexicographic order."""
    length = 2 * n_half
    out = []
    for ones in combinations(range(length), n_half):
        seq = tuple(1 if i in ones else 0 for i in range(length))
        out.append(seq)
    return sorted(out)


class TestCapacity:
    @pytest.mark.parametrize("n_half,expected", [(1, 2), (2, 6), (3, 20)])
    def test_small(self, n_half, expected):
        assert cbk.codebook_capacity(n_half) == expected

    def test_big_integer(self):
        cap = cbk.codebook_capacity(100)
        assert len(str(cap)) == 59
        assert str(cap)[:4] == "9054"

    def test_domain(self):
        with pytest.raises(ValueError):
            cbk.codebook_capacity(0)


class TestRankUnrank:
    def test_examples(self):
        assert cbk.rank((0, 0, 1, 1)) == 0
        assert cbk.rank((0, 1, 1, 0)) == 2
        assert cbk.rank((1, 1, 0, 0)) == 5
        assert cbk.unrank(2, 0) == (0, 0, 1, 1)
        assert cbk.unrank(2, 5) == (1, 1, 0, 0)

    def test_unrank_n3(self):
        assert cbk.unrank(3, 9) == balanced_sequences(3)[9]

    def test_rejects_unbalanced(self):
        with pytest.raises(ValueError):
            cbk.rank((0, 1, 1, 1))
        with pytest.raises(ValueError):
            cbk.rank((0, 1, 1))

    def test_unrank_range(self):
        with pytest.raises(ValueError):
            cbk.unrank(2, 6)
        with pytest.raises(ValueError):
            cbk.unrank(2, -1)

    @pytest.mark.parametrize("n_half", range(1, 9))
    def test_round_trip_exhaustive(self, n_half):
        for seq in balanced_sequences(n_half):
            assert cbk.unrank(n_half, cbk.rank(seq)) == seq

    @pytest.mark.parametrize("n_half", range(1, 7))
    def test_order_preserving(self, n_half):
        seqs = balanced_sequences(n_half)
        ranks = [cbk.rank(s) for s in seqs]
        assert ranks == list(range(len(seqs)))

    @given(st.integers(min_value=1, max_value=40), st.data())
    def test_round_trip_random(self, n_half, data):
        cap = cbk.codebook_capacity(n_half)
        index = data.draw(st.integers(min_value=0, max_value=cap - 1))
        seq = cbk.unrank(n_half, index)
        assert sum(seq) == n_half
        assert cbk.rank(seq) == index


class TestMembership:
    def test_examples(self):
        full = cbk.Codebook(2, 6)
        assert cbk.is_codeword(full, [[0, 1, 1, 0], [0, 1, 1, 1]]).tolist() == [True, False]
        assert cbk.is_codeword(cbk.Codebook(2, 2), [[0, 1, 1, 0]]).tolist() == [False]

    def test_wrong_length(self):
        with pytest.raises(ValueError):
            cbk.is_codeword(cbk.Codebook(2, 6), [[0, 1, 1]])

    @pytest.mark.parametrize("n_half", range(1, 7))
    def test_membership_count(self, n_half):
        rows = np.array(balanced_sequences(n_half))
        cap = cbk.codebook_capacity(n_half)
        for x in {0, 1, cap // 3, cap // 2, cap}:
            mask = cbk.is_codeword(cbk.Codebook(n_half, x), rows)
            # the codewords are the first x balanced sequences
            assert mask.tolist() == [True] * x + [False] * (cap - x)

    @pytest.mark.parametrize("n_half", range(1, 7))
    def test_codeword_fraction_of_all_strings(self, n_half):
        rows = np.array(list(product((0, 1), repeat=2 * n_half)))
        x = max(1, cbk.codebook_capacity(n_half) // 2)
        assert np.count_nonzero(cbk.is_codeword(cbk.Codebook(n_half, x), rows)) == x

    @pytest.mark.parametrize("n_half", range(1, 5))
    def test_mask_matches_is_codeword(self, n_half):
        # every 2N-bit sequence, against the rank-based scalar rule
        rows = np.array(list(product((0, 1), repeat=2 * n_half)))
        for x in range(cbk.codebook_capacity(n_half) + 1):
            cb = cbk.Codebook(n_half, x)
            expected = [ref.is_codeword(cb, row) for row in rows.tolist()]
            assert cbk.is_codeword(cb, rows).tolist() == expected

    def test_mask_big_codebook(self):
        cap = cbk.codebook_capacity(40)
        rows = np.array([cbk.unrank(40, i) for i in (0, 10**20, cap - 2, cap - 1)])
        assert cbk.is_codeword(cbk.Codebook(40, cap - 1), rows).tolist() == [
            True, True, True, False,
        ]
        with pytest.raises(ValueError):
            cbk.is_codeword(cbk.Codebook(40, cap), rows[:, 1:])

    def test_capacity_guard(self):
        with pytest.raises(ValueError):
            cbk.Codebook(2, 7)

    def test_big_codebook(self):
        cap = cbk.codebook_capacity(100)
        cb = cbk.Codebook(100, cap)  # exact big-int x
        assert cbk.is_codeword(cb, [cbk.unrank(100, cap - 1)]).tolist() == [True]


class TestPayload:
    def test_raw_is_identity(self):
        cb = cbk.Codebook(2, 6)
        rows = [[0, 1, 1, 0], [1, 0, 0, 1]]
        assert cbk.payload_bits(cb, rows, 0, cbk.MODE_RAW).tolist() == rows
        assert cbk.decode_payload(cb, rows, cbk.MODE_RAW).tolist() == rows
        assert cbk.payload_length(cb, cbk.MODE_RAW) == 4

    def test_compressed_round_trip(self):
        cb = cbk.Codebook(3, 14)
        assert cbk.payload_length(cb, cbk.MODE_COMPRESSED) == 5  # 4 rank bits + basis
        rows = np.array([cbk.unrank(3, index) for index in range(cb.x)])
        for bit in (0, 1):
            payloads = cbk.payload_bits(cb, rows, bit, cbk.MODE_COMPRESSED)
            assert payloads.tolist() == [
                [(index >> shift) & 1 for shift in (3, 2, 1, 0)] + [bit]
                for index in range(cb.x)
            ]
            decoded = cbk.decode_payload(cb, payloads, cbk.MODE_COMPRESSED)
            assert decoded.tolist() == rows.tolist()

    def test_big_rank_round_trip(self):
        cap = cbk.codebook_capacity(40)
        cb = cbk.Codebook(40, cap - 1)  # 77 rank bits, beyond int64
        rows = np.array([cbk.unrank(40, i) for i in (0, 10**20, cap - 2)])
        payloads = cbk.payload_bits(cb, rows, 1, cbk.MODE_COMPRESSED)
        assert payloads.shape == (3, 78)
        assert int("".join(map(str, payloads[2, :-1])), 2) == cap - 2
        assert cbk.decode_payload(cb, payloads, cbk.MODE_COMPRESSED).tolist() == rows.tolist()

    def test_empty_batch(self):
        cb = cbk.Codebook(2, 6)
        for mode in cbk.PAYLOAD_MODES:
            payloads = cbk.payload_bits(cb, np.zeros((0, 4), np.int64), 1, mode)
            assert payloads.shape == (0, cbk.payload_length(cb, mode))
            assert cbk.decode_payload(cb, payloads, mode).shape == (0, 4)

    def test_decode_rejects_rank_outside_codebook(self):
        cb = cbk.Codebook(2, 5)  # rank 5 is the first outside
        assert cbk.decode_payload(cb, [[1, 0, 0, 0]], cbk.MODE_COMPRESSED).tolist() == [
            [1, 0, 1, 0],
        ]
        for payload in ([[1, 0, 1, 0]], [[0, 1, 0]]):
            with pytest.raises(ValueError):
                cbk.decode_payload(cb, payload, cbk.MODE_COMPRESSED)


def unpack_bits(data: bytes) -> tuple[int, ...]:
    """Inverse of ``codebook.pack_bits`` on one row's bytes."""
    if len(data) < 4:
        raise ValueError("truncated bit sequence")
    (n,) = struct.unpack("<I", data[:4])
    if len(data) != 4 + (n + 7) // 8:
        raise ValueError("bit sequence length prefix does not match payload")
    return tuple((data[4 + i // 8] >> (i % 8)) & 1 for i in range(n))


class TestSerialization:
    @given(st.lists(st.integers(min_value=0, max_value=1), max_size=64))
    def test_round_trip(self, bits):
        seq = tuple(bits)
        rows = np.array([seq, seq[::-1]], np.int64).reshape(2, len(seq))
        packed = cbk.pack_bits(rows)
        assert packed.dtype == np.uint8 and packed.shape == (2, 4 + (len(seq) + 7) // 8)
        assert [unpack_bits(row.tobytes()) for row in packed] == [seq, seq[::-1]]

    def test_layout(self):
        # 4-byte little-endian bit count, then LSB-first packed bits
        data = cbk.pack_bits([[1, 0, 0, 0, 0, 0, 0, 0, 1], [0, 1, 0, 0, 0, 0, 0, 0, 0]])
        assert [row.tobytes() for row in data] == [
            b"\x09\x00\x00\x00\x01\x01", b"\x09\x00\x00\x00\x02\x00"]
        assert data.tobytes().hex() == "090000000101090000000200"
        assert cbk.pack_bits(np.zeros((0, 3), np.int64)).shape == (0, 5)

    def test_truncation_detected(self):
        [data] = cbk.pack_bits([[1, 0, 1]])
        with pytest.raises(ValueError):
            unpack_bits(data.tobytes()[:-1])
