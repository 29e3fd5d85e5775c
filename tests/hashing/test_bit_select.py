"""Unit tests for bit-selection hashing and the greedy hash-bit search."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.hashing.bit_select import (
    BitSelectHash,
    greedy_bit_selection,
    last_bits_of_first,
)
from repro.memory.mirror import keys_to_words


class TestBitSelectHash:
    def test_single_bit(self):
        h = BitSelectHash(8, [0])
        assert h(0b1000_0000) == 1
        assert h(0b0111_1111) == 0

    def test_concatenation_order(self):
        h = BitSelectHash(8, [0, 7])
        assert h(0b1000_0001) == 0b11
        assert h(0b1000_0000) == 0b10

    def test_bucket_count(self):
        assert BitSelectHash(32, range(11)).bucket_count == 2048

    def test_index_bits(self):
        assert BitSelectHash(32, range(11)).index_bits == 11

    def test_duplicate_positions_rejected(self):
        with pytest.raises(ConfigurationError):
            BitSelectHash(8, [1, 1])

    def test_out_of_range_position_rejected(self):
        with pytest.raises(ConfigurationError):
            BitSelectHash(8, [8])

    def test_empty_positions_rejected(self):
        with pytest.raises(ConfigurationError):
            BitSelectHash(8, [])

    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.lists(
            st.integers(min_value=0, max_value=31),
            min_size=1, max_size=12, unique=True,
        ),
    )
    def test_vectorized_matches_scalar(self, key, positions):
        h = BitSelectHash(32, positions)
        assert h.index_many([key])[0] == h(key)

    def test_vectorized_batch(self):
        h = BitSelectHash(16, [4, 5, 6, 7])
        keys = np.arange(0, 1 << 16, 97, dtype=np.uint64)
        vectorized = h.index_many(keys)
        scalar = [h(int(k)) for k in keys]
        assert vectorized.tolist() == scalar


@st.composite
def hash_and_keys(draw):
    """A key width of 8-130 bits, a position set (arbitrary order, or one
    run of adjacent positions across a 64-bit word boundary), and keys."""
    width = draw(st.integers(min_value=8, max_value=130))
    if width > 64 and draw(st.booleans()):
        # Key bit 64 sits at MSB-first position width - 65: a run over it
        # crosses from word 1 into word 0.
        boundary = width - 65
        first = draw(st.integers(max(0, boundary - 7), boundary))
        last = draw(st.integers(boundary + 1, min(width - 1, boundary + 8)))
        positions = list(range(first, last + 1))
    else:
        positions = draw(
            st.lists(
                st.integers(min_value=0, max_value=width - 1),
                min_size=1,
                max_size=min(width, 20),
                unique=True,
            )
        )
    keys = draw(
        st.lists(
            st.integers(min_value=0, max_value=(1 << width) - 1),
            min_size=1,
            max_size=20,
        )
    )
    return BitSelectHash(width, positions), keys


class TestBitRuns:
    """The run-grouped ``index_words``/``index_many`` against the scalar
    per-bit ``__call__``."""

    @settings(max_examples=200, deadline=None)
    @given(hash_and_keys())
    def test_matches_scalar(self, case):
        h, keys = case
        scalar = [h(key) for key in keys]
        words = keys_to_words(keys, h.key_width)
        assert h.index_words(words).tolist() == scalar
        assert h.index_many(keys).tolist() == scalar

    def test_paper_hashes_are_one_run(self):
        # Section 4.1's "last R bits in the first 16", and any contiguous
        # window of a wide key inside one word.
        assert len(last_bits_of_first(32, 16, 11)._runs) == 1
        assert len(BitSelectHash(128, range(100, 112))._runs) == 1

    def test_runs_split_at_gaps_order_and_words(self):
        assert len(BitSelectHash(16, (0, 1, 3, 4))._runs) == 2
        # Descending positions are not adjacent in output order.
        assert len(BitSelectHash(16, (4, 3))._runs) == 2
        # Positions 60-67 of a 128-bit key straddle key bit 64.
        assert len(BitSelectHash(128, range(60, 68))._runs) == 2


class TestLastBitsOfFirst:
    def test_paper_ip_hash(self):
        # "choosing the last R bits in the first 16 bits" with R = 11.
        h = last_bits_of_first(32, 16, 11)
        assert h.positions == tuple(range(5, 16))
        assert h.bucket_count == 2048

    def test_window_violation_rejected(self):
        with pytest.raises(ConfigurationError):
            last_bits_of_first(32, 16, 17)


class TestGreedyBitSelection:
    def test_finds_discriminating_bits(self):
        # Keys differ only in bits 4..7: greedy must pick from there.
        keys = [(i << 0) | (pattern << 24) for i, pattern in
                enumerate([0b1010] * 16)]
        keys = [(0b1010 << 28) | (i << 24) for i in range(16)]
        h = greedy_bit_selection(keys, key_width=32, select_count=4)
        assert set(h.positions) == {4, 5, 6, 7}

    def test_even_distribution_objective(self):
        # 8 keys hitting all values of bits 0..2; bit 3 constant.
        keys = [i << 28 for i in range(8)]
        h = greedy_bit_selection(keys, key_width=32, select_count=3)
        counts = np.bincount(h.index_many(keys), minlength=8)
        assert counts.max() == 1

    def test_candidate_restriction(self):
        keys = [i for i in range(256)]
        h = greedy_bit_selection(
            keys, key_width=32, select_count=2,
            candidate_positions=range(16, 32),
        )
        assert all(16 <= p < 32 for p in h.positions)

    def test_slots_objective(self):
        keys = list(range(64))
        h = greedy_bit_selection(
            keys, key_width=32, select_count=3, slots_per_bucket=8
        )
        counts = np.bincount(h.index_many(keys), minlength=8)
        assert (counts <= 8).all()

    def test_too_few_candidates_rejected(self):
        with pytest.raises(ConfigurationError):
            greedy_bit_selection([1], 8, 3, candidate_positions=[0, 1])

    def test_empty_keys_rejected(self):
        with pytest.raises(ConfigurationError):
            greedy_bit_selection([], 8, 2)

    def test_positions_sorted_msb_first(self):
        keys = list(range(1024))
        h = greedy_bit_selection(keys, key_width=32, select_count=4)
        assert list(h.positions) == sorted(h.positions)
