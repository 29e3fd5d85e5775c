"""Integration tests for the behavioral trigram CA-RAM."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.apps.trigram.caram as trigram_caram
import repro.core.batch
import repro.core.index
import repro.hashing.djb as djb
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


#: Trigram text: bytes, bytearrays or ASCII text (no NUL), up to the
#: 16-byte key.
KEY_BYTES = st.binary(max_size=16).filter(lambda b: b"\x00" not in b)
TEXTS = st.lists(
    KEY_BYTES
    | KEY_BYTES.map(bytearray)
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

    def test_one_byte_bytearrays(self):
        """NumPy reads a bytearray as a sequence of ints; the codec must
        read it as the bytes it holds."""
        texts = [bytearray(b"a"), bytearray(b"b")]
        expected = keys_to_words(
            [StringKeyCodec.encode(text) for text in texts], 128
        )
        assert np.array_equal(StringKeyCodec.encode_batch(texts), expected)

    @pytest.mark.parametrize("length", [17, 18, 40])
    @pytest.mark.parametrize("kind", [bytes, bytearray, str])
    def test_overlong_names_true_length(self, length, kind):
        """The parse truncates at 17 bytes; the error still names the
        caller's length."""
        text = "x" * length if kind is str else kind(b"x" * length)
        with pytest.raises(KeyFormatError, match=f"string of {length} bytes"):
            StringKeyCodec.encode_batch([b"ok", text])

    def test_numpy_string_arrays(self):
        texts = [b"of the road", b"", b"x" * 16]
        expected = StringKeyCodec.encode_batch(texts)
        short = np.array(texts, dtype="S16")
        assert np.array_equal(StringKeyCodec.encode_batch(short), expected)
        strided = StringKeyCodec.encode_batch(short[::2])
        assert np.array_equal(strided, expected[::2])
        wide = np.array(texts + [b"y" * 18], dtype="S20")
        assert np.array_equal(StringKeyCodec.encode_batch(wide[:3]), expected)
        with pytest.raises(KeyFormatError, match="string of 18 bytes"):
            StringKeyCodec.encode_batch(wide)

    def test_empty_batch(self):
        words = StringKeyCodec.encode_batch([])
        assert words.dtype == np.uint64
        assert words.shape == (0, 2)


#: Any codec-accepted key: lengths 0-16, every byte value 1-255.
CODEC_KEYS = st.lists(
    st.binary(max_size=16).filter(lambda b: b"\x00" not in b), max_size=40
)
#: Bucket counts: powers of two and others, some past 32 bits.
BUCKETS = st.integers(1, 1 << 34) | st.integers(0, 34).map(lambda b: 1 << b)


class TestPackedStringDJBHash:
    def test_matches_scalar_djb(self):
        h = PackedStringDJBHash(1 << 10)
        for text in (b"hello there you", b"one two three"):
            key = StringKeyCodec.encode(text)
            assert h(key) == djb2_bytes(text) % (1 << 10)

    @settings(max_examples=200, deadline=None)
    @given(CODEC_KEYS, BUCKETS)
    def test_index_words_of_codec_output(self, texts, buckets):
        h = PackedStringDJBHash(buckets)
        homes = h.index_words(StringKeyCodec.encode_batch(texts))
        assert homes.dtype == np.int64
        assert homes.tolist() == [djb2_bytes(t) % buckets for t in texts]

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(0, (1 << 64) - 1), st.integers(0, (1 << 64) - 1)
            ),
            max_size=30,
        ),
        BUCKETS,
        st.integers(1, 8),
    )
    def test_index_words_of_raw_words(self, pairs, buckets, chunk_rows):
        """Any word pair, interior zero bytes included, hashes as the
        scalar ``__call__`` (which strips trailing zeros only), also when
        the batch spans several chunks."""
        words = np.array(pairs, dtype=np.uint64).reshape(-1, 2)
        h = PackedStringDJBHash(buckets)
        expected = [h(low | high << 64) for low, high in pairs]
        with mock.patch.object(djb, "CHUNK_ROWS", chunk_rows):
            assert h.index_words(words).tolist() == expected

    def test_hashing_a_build_bounds_its_temporaries(self):
        """The build hashes every key in one call (168,288 at perfbench's
        1/32 scale).  The 16-column kernel peaked at 15.7 MiB there, an
        unchunked widening of the byte view at ~24 MiB (uint64) or ~13 MiB
        (uint32), and the chunked kernel at ~6 MiB."""
        rng = np.random.default_rng(3)
        texts = rng.integers(97, 123, (168_288, 16), dtype=np.uint8)
        texts[rng.random(168_288) < 0.5, 13:] = 0
        words = texts.view(">u8")[:, ::-1].astype(np.uint64)
        h = PackedStringDJBHash(4093)
        tracemalloc.start()
        try:
            h.index_words(words)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2**20

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

    def test_bytearray_strings(self, group, entries):
        texts = [text for text, _ in entries[:20]]
        expected = [probability for _, probability in entries[:20]]
        as_bytearrays = [bytearray(text) for text in texts]
        assert trigram_lookup_batch(group, as_bytearrays) == expected
        rebuilt = build_trigram_caram(
            [(bytearray(text), value) for text, value in entries[:20]],
            SMALL_DESIGN,
        )
        assert trigram_lookup_batch(rebuilt, texts) == expected

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
