"""Integration tests for the behavioral trigram CA-RAM."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import repro.apps.trigram.caram as trigram_caram
import repro.core.batch
import repro.core.index
import repro.memory.mirror
from repro.apps.trigram.caram import (
    PackedStringDJBHash,
    StringKeyCodec,
    build_trigram_caram,
    trigram_lookup,
    trigram_lookup_batch,
    trigram_slice_config,
)
from repro.apps.trigram.designs import TrigramDesign
from repro.apps.trigram.generator import TrigramConfig, generate_trigram_database
from repro.core.config import Arrangement
from repro.errors import KeyFormatError
from repro.hashing.djb import djb2_bytes
from repro.memory.mirror import keys_to_words

SMALL_DESIGN = TrigramDesign("S", 2, Arrangement.VERTICAL, index_bits=5)


class TestStringKeyCodec:
    def test_round_trip(self):
        for text in (b"of the road", b"a b c", b"x" * 16):
            assert StringKeyCodec.decode(StringKeyCodec.encode(text)) == text

    def test_str_input(self):
        assert StringKeyCodec.encode("abc") == StringKeyCodec.encode(b"abc")

    def test_too_long_rejected(self):
        with pytest.raises(KeyFormatError):
            StringKeyCodec.encode(b"x" * 17)

    def test_nul_rejected(self):
        with pytest.raises(KeyFormatError):
            StringKeyCodec.encode(b"a\x00b")

    def test_distinct_strings_distinct_keys(self):
        assert StringKeyCodec.encode(b"ab") != StringKeyCodec.encode(b"ab ")


#: Trigram text: printable ASCII (no NUL), up to the 16-byte key.
TEXTS = st.lists(
    st.binary(max_size=16).filter(lambda b: b"\x00" not in b)
    | st.text(st.characters(min_codepoint=1, max_codepoint=127), max_size=16),
    max_size=40,
)


class TestEncodeBatch:
    @given(TEXTS)
    def test_words_of_the_scalar_encoding(self, texts):
        words = StringKeyCodec.encode_batch(texts)
        assert words.dtype == np.uint64
        assert words.shape == (len(texts), 2)
        expected = keys_to_words(
            [StringKeyCodec.encode(text) for text in texts], 128
        )
        assert np.array_equal(words, expected)

    @pytest.mark.parametrize(
        "texts, error",
        [
            ([b"ok", b"x" * 17], KeyFormatError),
            ([b"a\x00b"], KeyFormatError),
            (["caf\u00e9"], UnicodeEncodeError),
        ],
        ids=["overlong", "embedded-nul", "non-ascii"],
    )
    def test_errors_stay(self, texts, error):
        with pytest.raises(error):
            StringKeyCodec.encode_batch(texts)


class TestPackedStringDJBHash:
    def test_matches_scalar_djb(self):
        h = PackedStringDJBHash(1 << 10)
        for text in (b"hello there you", b"one two three"):
            key = StringKeyCodec.encode(text)
            assert h(key) == djb2_bytes(text) % (1 << 10)

    def test_rebucketed(self):
        assert PackedStringDJBHash(64).rebucketed(128).bucket_count == 128


class TestBehavioralCaram:
    @pytest.fixture(scope="class")
    def entries(self):
        database = generate_trigram_database(
            TrigramConfig(total_entries=2500, seed=41)
        )
        return [
            (database.string_at(row), int(database.probabilities[row]))
            for row in range(len(database))
        ]

    @pytest.fixture(scope="class")
    def group(self, entries):
        return build_trigram_caram(entries, SMALL_DESIGN)

    def test_config_geometry(self):
        config = trigram_slice_config(SMALL_DESIGN)
        assert config.slots_per_bucket == 96
        assert not config.record_format.ternary

    def test_every_entry_findable(self, group, entries):
        for text, probability in entries[:400]:
            assert trigram_lookup(group, text) == probability

    def test_misses(self, group):
        assert trigram_lookup(group, b"zzz qqq jjj") is None

    def test_batch_matches_per_string_lookups(self, group, entries):
        texts = [text for text, _ in entries[::7]]
        texts += [b"zzz qqq jjj", b"", b"of the"]
        group.stats.reset()
        scalar = [trigram_lookup(group, text) for text in texts]
        scalar_stats = group.stats.as_dict()
        group.stats.reset()
        assert trigram_lookup_batch(group, texts) == scalar
        assert group.stats.as_dict() == scalar_stats
        assert trigram_lookup_batch(group, []) == []

    def test_batch_makes_no_int_per_string(self, group, entries, monkeypatch):
        """Strings reach the kernel as one word matrix: every helper that
        packs ints into words, or reads ints out of them, may go."""

        def forbidden(*args, **kwargs):
            raise AssertionError("a Python int was made per key")

        for module in (
            repro.memory.mirror,
            repro.core.batch,
            repro.core.index,
            trigram_caram,
        ):
            for name in ("keys_to_words", "words_to_ints"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, forbidden)
        monkeypatch.setattr(StringKeyCodec, "encode", staticmethod(forbidden))
        texts = [text for text, _ in entries[:50]] + [b"zzz qqq jjj"]
        expected = [probability for _, probability in entries[:50]] + [None]
        assert trigram_lookup_batch(group, texts) == expected

    def test_load_factor(self, group, entries):
        expected = len(entries) / SMALL_DESIGN.capacity_records
        assert group.load_factor == pytest.approx(expected)

    def test_amal_near_one(self, group, entries):
        group.stats.reset()
        for text, _ in entries[:300]:
            group.search(StringKeyCodec.encode(text))
        assert group.stats.amal < 1.3

    def test_agrees_with_vectorized_homes(self, entries):
        """The behavioral hash and the packed-matrix hash agree bucket by
        bucket."""
        database = generate_trigram_database(
            TrigramConfig(total_entries=200, seed=42)
        )
        buckets = database.bucket_indices(SMALL_DESIGN.bucket_count)
        h = PackedStringDJBHash(SMALL_DESIGN.bucket_count)
        for row in range(len(database)):
            key = StringKeyCodec.encode(database.string_at(row))
            assert h(key) == buckets[row]
