"""Unit tests for the DJB string hash and its vectorized kernel."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.hashing.djb as djb
from repro.errors import ConfigurationError
from repro.hashing.djb import (
    DJB_SEED,
    DJBHash,
    djb2_bytes,
    djb2_matrix,
    pack_strings,
)


@st.composite
def packed_with_junk(draw):
    """Strings (NUL bytes allowed) packed at a drawn width, with nonzero
    bytes planted past each row's length: the length column alone must
    decide where a string ends."""
    max_length = draw(st.integers(1, 40))
    strings = draw(
        st.lists(st.binary(max_size=max_length), min_size=1, max_size=20)
    )
    packed = pack_strings(strings, max_length)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    junk = rng.integers(1, 256, packed.shape, dtype=np.uint8)
    past_end = np.arange(max_length) >= packed[:, max_length, None]
    packed[:, :max_length][past_end] = junk[:, :max_length][past_end]
    return strings, packed


class TestScalarDjb:
    def test_empty_string_is_seed(self):
        assert djb2_bytes(b"") == DJB_SEED

    def test_recurrence(self):
        # hash(i) = (hash(i-1) << 5) + hash(i-1) + str[i], mod 2^32.
        expected = ((DJB_SEED << 5) + DJB_SEED + ord("a")) & 0xFFFFFFFF
        assert djb2_bytes(b"a") == expected

    def test_known_value(self):
        # djb2("hello") is a widely quoted constant.
        assert djb2_bytes(b"hello") == 261238937

    def test_str_and_bytes_agree(self):
        assert djb2_bytes("of the road") == djb2_bytes(b"of the road")

    def test_distinct_strings_differ(self):
        assert djb2_bytes(b"abc") != djb2_bytes(b"acb")


class TestPackStrings:
    def test_layout(self):
        packed = pack_strings([b"ab", b"c"], max_length=4)
        assert packed.shape == (2, 5)
        assert packed[0, :2].tobytes() == b"ab"
        assert packed[0, 4] == 2
        assert packed[1, 4] == 1
        assert packed[0, 2] == 0  # zero padding

    def test_too_long_rejected(self):
        with pytest.raises(ConfigurationError):
            pack_strings([b"abcde"], max_length=4)
        # A length the uint8 column cannot hold is refused by name.
        with pytest.raises(ConfigurationError, match="255-byte limit"):
            pack_strings([b"x" * 256], max_length=300)


class TestVectorizedDjb:
    @settings(max_examples=200, deadline=None)
    @given(packed_with_junk())
    def test_matrix_matches_scalar(self, case):
        strings, packed = case
        hashes = djb2_matrix(packed)
        expected = [djb2_bytes(s) for s in strings]
        assert hashes.dtype == np.uint64
        assert hashes.tolist() == expected

    @settings(max_examples=50, deadline=None)
    @given(packed_with_junk(), st.integers(1, 8))
    def test_rows_across_chunks(self, case, chunk_rows):
        """Batches longer than one chunk hash row for row as one chunk."""
        strings, packed = case
        with mock.patch.object(djb, "CHUNK_ROWS", chunk_rows):
            hashes = djb2_matrix(packed)
        assert hashes.tolist() == [djb2_bytes(s) for s in strings]

    def test_bad_shape_rejected(self):
        with pytest.raises(ConfigurationError):
            djb2_matrix(np.zeros(4, dtype=np.uint8))


class TestDJBHash:
    def test_power_of_two_uses_mask(self):
        h = DJBHash(1 << 14)
        key = b"hello world xx"
        assert h(key) == djb2_bytes(key) & ((1 << 14) - 1)

    def test_non_power_of_two_uses_modulo(self):
        h = DJBHash(1000)
        key = b"hello"
        assert h(key) == djb2_bytes(key) % 1000

    def test_index_many_matches_scalar(self):
        h = DJBHash(4096)
        keys = [b"alpha beta", b"gamma", b"delta epsilon"]
        assert h.index_many(keys).tolist() == [h(k) for k in keys]

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(0, (1 << 32) - 1),
        st.one_of(
            st.integers(0, 24).map(lambda bits: 1 << bits),
            st.integers(1, 1 << 24),
        ),
        st.lists(
            st.binary(max_size=40) | st.binary(min_size=250, max_size=300),
            min_size=1,
            max_size=20,
        ),
    )
    @example(seed=DJB_SEED, buckets=1024, keys=[b"x" * 256])
    @example(seed=DJB_SEED, buckets=1024, keys=[b"x" * 300])
    @example(
        seed=7, buckets=1000, keys=[b"ab", bytes(range(256)), b"", b"q" * 300]
    )
    def test_seeded_index_many_matches_scalar(self, seed, buckets, keys):
        """A non-default seed reaches the kernel, under the mask and the
        modulo reduction alike; keys longer than 255 bytes, alone or
        among short ones, hash as the scalar path hashes them."""
        h = DJBHash(buckets, seed=seed)
        expected = [djb2_bytes(k, seed) % buckets for k in keys]
        assert h.index_many(keys).tolist() == expected
        assert [h(k) for k in keys] == expected

    def test_rebucketed(self):
        h = DJBHash(1024).rebucketed(2048)
        assert h.bucket_count == 2048

    def test_spread_is_reasonable(self):
        # DJB over text-like strings should land near-uniform: no bucket
        # more than ~4x the mean for 10k strings over 256 buckets.
        h = DJBHash(256)
        keys = [f"word{i} test{i % 97}".encode() for i in range(10_000)]
        counts = np.bincount(h.index_many(keys), minlength=256)
        assert counts.max() < 4 * counts.mean()
