"""Unit tests for the index generator."""

import numpy as np
import pytest

import repro.core.index
from repro.core.index import IndexGenerator, make_index_generator
from repro.core.key import TernaryKey
from repro.errors import ConfigurationError, KeyFormatError
from repro.hashing.base import ModuloHash
from repro.hashing.bit_select import BitSelectHash
from repro.hashing.universal import MultiplicativeHash
from repro.memory.mirror import keys_to_words
from repro.utils.rng import make_rng


class TestConstruction:
    def test_row_count_must_match(self):
        with pytest.raises(ConfigurationError):
            IndexGenerator(ModuloHash(16), rows=32)

    def test_make_index_generator(self):
        gen = make_index_generator(ModuloHash(16))
        assert gen.rows == 16


class TestIndexing:
    def test_int_key(self):
        gen = make_index_generator(BitSelectHash(8, [0, 1]))
        assert gen.index(0b1100_0000) == 0b11

    def test_ternary_key_uses_value(self):
        gen = make_index_generator(BitSelectHash(8, [0, 1]))
        key = TernaryKey.from_pattern("10XXXXXX")
        assert gen.index(key) == 0b10


class TestStoredEnumeration:
    def test_binary_key_single_row(self):
        gen = make_index_generator(BitSelectHash(8, [0, 1, 2]))
        assert gen.indices_for_stored(0b10100000) == [0b101]

    def test_dont_care_in_hash_bits_duplicates(self):
        # "if a prefix has n don't care bits in the hash bit positions, it
        # must be duplicated and placed in 2^n buckets"
        gen = make_index_generator(BitSelectHash(8, [0, 1, 2]))
        key = TernaryKey.from_pattern("1XX00000")
        rows = gen.indices_for_stored(key)
        assert rows == [0b100, 0b101, 0b110, 0b111]

    def test_dont_care_outside_hash_bits_single_row(self):
        gen = make_index_generator(BitSelectHash(8, [0, 1, 2]))
        key = TernaryKey.from_pattern("101XXXXX")
        assert gen.indices_for_stored(key) == [0b101]

    def test_non_bit_select_rejects_masked_keys(self):
        gen = make_index_generator(ModuloHash(8))
        key = TernaryKey.from_pattern("1XX00000")
        with pytest.raises(KeyFormatError):
            gen.indices_for_stored(key)

    def test_non_bit_select_accepts_binary_ternary_key(self):
        gen = make_index_generator(ModuloHash(8))
        key = TernaryKey.exact(13, 8)
        assert gen.indices_for_stored(key) == [13 % 8]


class TestSearchEnumeration:
    def test_plain_search_single_row(self):
        gen = make_index_generator(BitSelectHash(8, [0, 1]))
        assert gen.indices_for_search(0b11000000) == [0b11]

    def test_search_mask_over_hash_bits_multi_probe(self):
        # "if the search key contains don't care bits which are taken by
        # the hash function, multiple buckets must be accessed"
        gen = make_index_generator(BitSelectHash(8, [0, 1]))
        rows = gen.indices_for_search(0b00000000, search_mask=0b1000_0000)
        assert rows == [0b00, 0b10]

    def test_search_mask_outside_hash_bits(self):
        gen = make_index_generator(BitSelectHash(8, [0, 1]))
        rows = gen.indices_for_search(0b11000000, search_mask=0b0000_1111)
        assert rows == [0b11]

    def test_ternary_search_key(self):
        gen = make_index_generator(BitSelectHash(8, [0, 1]))
        key = TernaryKey.from_pattern("X1000000")
        assert gen.indices_for_search(key) == [0b01, 0b11]

    def test_masked_search_without_width_info_rejected(self):
        gen = make_index_generator(ModuloHash(8))
        with pytest.raises(KeyFormatError):
            gen.indices_for_search(3, search_mask=1)


class TestBatchHoming:
    @pytest.mark.parametrize(
        "hash_function",
        [ModuloHash(48), MultiplicativeHash(1024)],
        ids=["modulo", "multiplicative"],
    )
    @pytest.mark.parametrize("key_bits", [8, 32, 64])
    def test_one_word_keys_hash_as_words(
        self, hash_function, key_bits, monkeypatch
    ):
        """One-word keys reach the integer hashes as a uint64 column, with
        no Python int per key, and home where the scalar hash does."""
        rng = make_rng(key_bits)
        keys = [int(k) for k in rng.integers(0, 1 << key_bits, size=300,
                                              dtype=np.uint64)]
        keys += [0, (1 << key_bits) - 1]
        words = keys_to_words(keys, key_bits)

        def refuse(*args, **kwargs):
            raise AssertionError("indices_batch made Python ints")

        monkeypatch.setattr(repro.core.index, "words_to_ints", refuse)
        homes, needs_scalar = make_index_generator(
            hash_function
        ).indices_batch(words)
        assert homes.tolist() == [hash_function(key) for key in keys]
        assert not needs_scalar.any()

    @pytest.mark.parametrize(
        "hash_function",
        [ModuloHash(48), MultiplicativeHash(1024)],
        ids=["modulo", "multiplicative"],
    )
    def test_wider_keys_take_the_int_path(self, hash_function):
        keys = [5, (1 << 64) + 7, (1 << 100) - 1]
        homes, _ = make_index_generator(hash_function).indices_batch(
            keys_to_words(keys, 128)
        )
        assert homes.tolist() == [hash_function(key) for key in keys]
