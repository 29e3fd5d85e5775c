"""Unit tests for the decoded NumPy mirror and its invalidation protocol."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bucket import BucketLayout
from repro.core.config import Arrangement, BucketGeometry
from repro.core.key import TernaryKey
from repro.core.record import Record, RecordFormat
from repro.errors import ConfigurationError, KeyFormatError
from repro.memory.array import MemoryArray
from repro.memory.mirror import (
    DecodedMirror,
    bits_to_words,
    int_to_words,
    keys_to_words,
    words_for_bits,
    words_to_bits,
)

FMT = RecordFormat(key_bits=16, data_bits=8, ternary=True)
LAYOUT = BucketLayout(row_bits=8 + 4 * FMT.slot_bits, record_format=FMT)
ROWS = 8


def make_array():
    return MemoryArray(ROWS, LAYOUT.row_bits)


def pack(records, reach=0):
    return LAYOUT.pack(records, reach)


def record(value, mask=0, data=0):
    return Record.make(
        TernaryKey(value=value, mask=mask, width=16) if mask else value,
        data,
        FMT,
    )


class TestWordPacking:
    def test_words_for_bits(self):
        assert words_for_bits(1) == 1
        assert words_for_bits(64) == 1
        assert words_for_bits(65) == 2
        assert words_for_bits(128) == 2

    def test_int_to_words_little_endian(self):
        value = (0xABCD << 64) | 0x1234
        assert int_to_words(value, 2) == [0x1234, 0xABCD]

    def test_narrow_keys(self):
        words = keys_to_words([0, 1, 0xFFFF], 16)
        assert words.shape == (3, 1)
        assert words.dtype == np.uint64
        assert list(words[:, 0]) == [0, 1, 0xFFFF]

    def test_wide_keys(self):
        wide = (0xDEAD << 64) | 0xBEEF
        words = keys_to_words([wide, 1], 128)
        assert words.shape == (2, 2)
        assert int(words[0, 0]) == 0xBEEF
        assert int(words[0, 1]) == 0xDEAD
        assert int(words[1, 0]) == 1

    def test_out_of_range_rejected(self):
        with pytest.raises(KeyFormatError):
            keys_to_words([1 << 16], 16)
        with pytest.raises(KeyFormatError):
            keys_to_words([-1], 16)
        with pytest.raises(KeyFormatError):
            keys_to_words([1 << 128], 128)

    def test_multi_word_out_of_range_rejected(self):
        # 101 bits fit the 16-byte word storage but not key_bits=100.
        with pytest.raises(KeyFormatError, match=hex(1 << 100)):
            keys_to_words([3, 1 << 100], 100)
        with pytest.raises(KeyFormatError, match="-0x1 does not fit"):
            keys_to_words([3, -1], 100)
        with pytest.raises(KeyFormatError):
            keys_to_words([1 << 130], 100)

    def test_multi_word_full_width_keys(self):
        top = (1 << 128) - 1
        assert keys_to_words([top], 128).tolist() == [[(1 << 64) - 1] * 2]
        assert keys_to_words([], 100).shape == (0, 2)

    @pytest.mark.parametrize("bits", [1, 16, 64, 65, 128])
    def test_bits_to_words_inverts_words_to_bits(self, bits):
        rng = np.random.default_rng(bits)
        words = keys_to_words(
            [int(v) for v in rng.integers(0, 1 << min(bits, 60), 20)], bits
        )
        round_tripped = bits_to_words(words_to_bits(words, bits), bits)
        assert round_tripped.dtype == np.uint64
        assert (round_tripped == words).all()

    def test_bits_to_words_rejects_bad_shape(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            bits_to_words(np.zeros((2, 5), dtype=np.uint8), 16)


class TestSyncAndInvalidation:
    def test_sync_builds_no_record(self, monkeypatch):
        array = make_array()
        mirror = DecodedMirror([array], LAYOUT)
        mirror.sync()
        array.write_row(1, pack([record(0xF00D, mask=0b11, data=5)], reach=2))
        array.write_row(6, pack([None, record(0x1F)]))

        def refuse(*args, **kwargs):
            raise AssertionError("sync built a Record")

        with monkeypatch.context() as patch:
            patch.setattr(Record, "__init__", refuse)
            patch.setattr(TernaryKey, "__init__", refuse)
            assert mirror.sync() == 2
        # Records are built on request, from the planes.
        assert mirror.records_at([1, 6, 6], [0, 0, 1]) == [
            record(0xF00D, mask=0b11, data=5),
            None,
            record(0x1F),
        ]

    def test_initial_sync_decodes_everything(self):
        array = make_array()
        array.write_row(2, pack([record(0x42, data=7)], reach=3))
        mirror = DecodedMirror([array], LAYOUT)
        assert mirror.sync() == ROWS
        assert mirror.valid[2, 0]
        assert not mirror.valid[2, 1]
        assert int(mirror.key_words[2, 0, 0]) == 0x42
        assert int(mirror.reach[2]) == 3
        assert mirror.records_at([2], [0])[0].data == 7

    def test_write_row_marks_only_that_row_dirty(self):
        array = make_array()
        mirror = DecodedMirror([array], LAYOUT)
        mirror.sync()
        array.write_row(5, pack([record(1)]))
        assert mirror.dirty_row_count == 1
        assert mirror.sync() == 1
        assert mirror.valid[5, 0]
        assert mirror.sync() == 0

    def test_load_and_fill_invalidate(self):
        array = make_array()
        mirror = DecodedMirror([array], LAYOUT)
        mirror.sync()
        array.load([pack([record(9)]), pack([record(8)])], offset=3)
        assert mirror.dirty_row_count == 2
        mirror.sync()
        assert mirror.valid[3, 0] and mirror.valid[4, 0]
        array.fill(0)
        assert mirror.dirty_row_count == ROWS
        mirror.sync()
        assert not mirror.valid.any()

    def test_stale_reads_without_sync(self):
        array = make_array()
        mirror = DecodedMirror([array], LAYOUT)
        mirror.sync()
        array.write_row(0, pack([record(1)]))
        assert not mirror.valid[0, 0]  # not synced yet
        mirror.sync()
        assert mirror.valid[0, 0]


class TestComposition:
    def test_vertical_concatenates_row_spaces(self):
        arrays = [make_array(), make_array()]
        arrays[1].write_row(2, pack([record(0x77)], reach=1))
        mirror = DecodedMirror(
            arrays,
            LAYOUT,
            BucketGeometry(
                Arrangement.VERTICAL, ROWS, 2, LAYOUT.slots_per_bucket
            ),
        )
        mirror.sync()
        assert mirror.buckets == 2 * ROWS
        bucket = ROWS + 2
        assert mirror.valid[bucket, 0]
        assert int(mirror.reach[bucket]) == 1

    def test_horizontal_concatenates_slots(self):
        arrays = [make_array(), make_array()]
        arrays[0].write_row(4, pack([record(0x11)], reach=2))
        arrays[1].write_row(4, pack([record(0x22)]))
        mirror = DecodedMirror(
            arrays,
            LAYOUT,
            BucketGeometry(
                Arrangement.HORIZONTAL, ROWS, 2, LAYOUT.slots_per_bucket
            ),
        )
        mirror.sync()
        assert mirror.buckets == ROWS
        assert mirror.slots == 2 * LAYOUT.slots_per_bucket
        assert mirror.records_at([4], [0])[0].key.value == 0x11
        assert mirror.records_at([4], [LAYOUT.slots_per_bucket])[
            0
        ].key.value == 0x22
        # Reach of the logical bucket comes from slice 0 only.
        assert int(mirror.reach[4]) == 2


class TestMatching:
    def test_match_rows_binary(self):
        array = make_array()
        array.write_row(1, pack([record(0xAA), record(0xBB)]))
        mirror = DecodedMirror([array], LAYOUT)
        mirror.sync()
        match = mirror.match_rows(
            np.array([1, 1, 0]), keys_to_words([0xBB, 0xCC, 0xAA], 16)
        )
        assert match.shape == (3, LAYOUT.slots_per_bucket)
        assert list(match[0][:2]) == [False, True]
        assert not match[1].any()
        assert not match[2].any()  # row 0 is empty

    def test_match_respects_stored_masks(self):
        array = make_array()
        # Stored 0b101X: matches 0b1010 and 0b1011.
        array.write_row(0, pack([record(0b1010, mask=0b1)]))
        mirror = DecodedMirror([array], LAYOUT)
        mirror.sync()
        match = mirror.match_rows(
            np.array([0, 0, 0]), keys_to_words([0b1010, 0b1011, 0b1110], 16)
        )
        assert list(match[:, 0]) == [True, True, False]

    def test_match_respects_query_masks(self):
        array = make_array()
        array.write_row(0, pack([record(0b1100)]))
        mirror = DecodedMirror([array], LAYOUT)
        mirror.sync()
        match = mirror.match_rows(
            np.array([0, 0]),
            keys_to_words([0b0100, 0b0100], 16),
            query_mask_words=keys_to_words([0b1000, 0], 16),
        )
        assert bool(match[0, 0]) and not bool(match[1, 0])

    def test_query_mask_must_cover_every_word(self):
        fmt = RecordFormat(key_bits=100, data_bits=8)
        layout = BucketLayout(row_bits=8 + 2 * fmt.slot_bits, record_format=fmt)
        array = MemoryArray(4, layout.row_bits)
        array.write_row(0, layout.pack([Record.make(1 << 70, 1, fmt)]))
        mirror = DecodedMirror([array], layout)
        mirror.sync()
        ids = np.array([0])
        probe = keys_to_words([0], 100)  # differs only in bit 70
        zero_mask = np.zeros((1, 2), dtype=np.uint64)
        assert not mirror.match_rows(ids, probe, zero_mask)[0, 0]
        # A one-word mask must not broadcast word 0's bit 6 onto bit 70.
        with pytest.raises(ConfigurationError):
            mirror.match_rows(ids, probe, np.array([[1 << 6]], dtype=np.uint64))

    def test_match_predicate_full_wildcard(self):
        array = make_array()
        array.write_row(3, pack([record(5), record(6)]))
        mirror = DecodedMirror([array], LAYOUT)
        mirror.sync()
        match = mirror.match_predicate(0, (1 << 16) - 1)
        assert match.sum() == 2
        triples = list(mirror.iter_valid())
        assert [(b, s) for b, s, _ in triples] == [(3, 0), (3, 1)]


class TestWideKeyMirror:
    def test_128_bit_keys_round_trip(self):
        fmt = RecordFormat(key_bits=128, data_bits=8)
        layout = BucketLayout(row_bits=8 + 2 * fmt.slot_bits, record_format=fmt)
        array = MemoryArray(4, layout.row_bits)
        key = (0xFACE << 100) | 0xCAFE
        array.write_row(2, layout.pack([Record.make(key, 3, fmt)]))
        mirror = DecodedMirror([array], layout)
        mirror.sync()
        assert mirror.word_count == 2
        match = mirror.match_rows(
            np.array([2, 2]), keys_to_words([key, key + 1], 128)
        )
        assert bool(match[0, 0]) and not bool(match[1, 0])


class TestPlaneStorage:
    def test_binary_format_keeps_no_care_planes(self):
        fmt = RecordFormat(key_bits=16, data_bits=8)
        layout = BucketLayout(row_bits=8 + 4 * fmt.slot_bits, record_format=fmt)
        array = MemoryArray(ROWS, layout.row_bits)
        array.write_row(2, layout.pack([Record.make(0x42, 1, fmt)]))
        mirror = DecodedMirror([array], layout)
        mirror.sync()
        assert mirror.care_planes is None
        assert mirror.key_planes.shape == (1, ROWS, 4)
        assert np.shares_memory(mirror.key_words, mirror.key_planes)
        assert int(mirror.key_words[2, 0, 0]) == 0x42
        assert not mirror.mask_words.any()
        assert not mirror.mask_words.flags.writeable

    def test_ternary_care_planes_hold_width_in_invalid_slots(self):
        array = make_array()
        array.write_row(0, pack([None, record(0b1010, mask=0b11)]))
        mirror = DecodedMirror([array], LAYOUT)
        mirror.sync()
        assert mirror.care_planes.shape == (1, ROWS, LAYOUT.slots_per_bucket)
        assert int(mirror.care_planes[0, 0, 0]) == 0xFFFF
        assert int(mirror.care_planes[0, 0, 1]) == 0xFFFF & ~0b11
        assert int(mirror.mask_words[0, 1, 0]) == 0b11

    @pytest.mark.parametrize(
        "key_bits, dtype", [(32, np.uint32), (33, np.uint64)]
    )
    def test_plane_width_follows_key_width(self, key_bits, dtype):
        fmt = RecordFormat(key_bits=key_bits, data_bits=8, ternary=True)
        layout = BucketLayout(
            row_bits=8 + 4 * fmt.slot_bits, record_format=fmt
        )
        array = MemoryArray(ROWS, layout.row_bits)
        top = 1 << (key_bits - 1)
        stored = Record.make(TernaryKey(top | 0b100, 0b11, key_bits), 7, fmt)
        array.write_row(2, layout.pack([None, stored], reach=1))
        mirror = DecodedMirror([array], layout)
        mirror.sync()
        assert mirror.key_planes.dtype == dtype
        assert mirror.care_planes.dtype == dtype
        assert mirror.width_words.dtype == dtype
        # Every read leaves the planes as exact uint64 words.
        assert mirror.mask_words.dtype == np.uint64
        assert int(mirror.mask_words[2, 1, 0]) == 0b11
        assert mirror.records_at([2], [1]) == [stored]
        assert mirror.row_value(0, 2) == array.peek_row(2)
        queries = keys_to_words([top | 0b111, top, 0b100], key_bits)
        match = mirror.match_rows(np.array([2, 2, 2]), queries)
        assert match[:, 1].tolist() == [True, False, False]

    def test_clear_bucket_keeps_reach_and_bumps_version(self):
        array = make_array()
        array.write_row(3, pack([record(0x5, mask=0b1, data=9)], reach=2))
        mirror = DecodedMirror([array], LAYOUT)
        mirror.sync()
        version = mirror.version
        mirror.clear_bucket(3, reach=2)
        assert not mirror.valid[3].any()
        assert mirror.records_at([3], [0]) == [None]
        assert not mirror.key_words[3].any() and not mirror.mask_words[3].any()
        assert not mirror.data_words[3].any()
        assert int(mirror.reach[3]) == 2
        assert mirror.version == version + 1
        assert not mirror.match_predicate(0, 0xFFFF)[3].any()


#: Key widths of the oracle property: one word, either side of the
#: 32-bit plane boundary, word-aligned, and ragged top words.
ORACLE_KEY_BITS = [8, 31, 32, 33, 64, 65, 100, 128, 130]
ORACLE_ROWS = 4
ORACLE_SLOTS = 3


def _oracle_mirror(data, key_bits, ternary):
    """A one-array mirror with random holes and an all-invalid last
    bucket, plus its layout and the per-slot ``TernaryKey`` grid (None
    where a slot is empty)."""
    full = (1 << key_bits) - 1
    fmt = RecordFormat(key_bits=key_bits, data_bits=4, ternary=ternary)
    layout = BucketLayout(
        row_bits=8 + ORACLE_SLOTS * fmt.slot_bits, record_format=fmt
    )
    values = st.integers(0, full)
    masks = values if ternary else st.just(0)
    slot = st.one_of(st.none(), st.builds(
        lambda v, m: TernaryKey(value=v, mask=m, width=key_bits), values, masks
    ))
    grid = data.draw(st.lists(
        st.lists(slot, min_size=ORACLE_SLOTS, max_size=ORACLE_SLOTS),
        min_size=ORACLE_ROWS - 1,
        max_size=ORACLE_ROWS - 1,
    ))
    grid.append([None] * ORACLE_SLOTS)  # always one all-invalid bucket
    array = MemoryArray(ORACLE_ROWS, layout.row_bits)
    for row, keys in enumerate(grid):
        array.write_row(row, layout.pack([
            None if key is None else Record.make(key, 1, fmt) for key in keys
        ]))
    mirror = DecodedMirror([array], layout)
    mirror.sync()
    return mirror, layout, grid


def _draw_query(data, grid, key_bits, masked):
    """A (value, mask) query, often one bit away from a stored key."""
    full = (1 << key_bits) - 1
    stored = [key for keys in grid for key in keys if key is not None]
    flip = data.draw(st.integers(-1, key_bits - 1))
    if stored and data.draw(st.booleans()):
        value = data.draw(st.sampled_from(stored)).value
        if flip >= 0:
            value ^= 1 << flip
    else:
        value = data.draw(st.integers(0, full))
    mask = 0
    if masked:
        mask = data.draw(st.one_of(
            st.integers(0, full), st.just(full), st.just(1 << max(flip, 0))
        ))
    return value, mask


def _oracle_row(keys, key_bits, value, mask):
    return [
        key is not None and key.matches(value, key_bits, mask) for key in keys
    ]


class TestKernelOracle:
    """``match_rows`` / ``match_all`` against per-slot ``TernaryKey.matches``."""

    @settings(max_examples=80, deadline=None)
    @given(
        data=st.data(),
        key_bits=st.sampled_from(ORACLE_KEY_BITS),
        ternary=st.booleans(),
        masked=st.booleans(),
    )
    def test_match_rows_and_match_all(self, data, key_bits, ternary, masked):
        mirror, layout, grid = _oracle_mirror(data, key_bits, ternary)
        count = data.draw(st.integers(0, 6))
        ids = np.array(
            data.draw(st.lists(
                st.integers(0, ORACLE_ROWS - 1), min_size=count, max_size=count
            )),
            dtype=np.int64,
        )
        queries = [
            _draw_query(data, grid, key_bits, masked) for _ in range(count)
        ]
        words = keys_to_words([v for v, _ in queries], key_bits)
        mask_words = (
            keys_to_words([m for _, m in queries], key_bits) if masked else None
        )
        expected = [
            _oracle_row(grid[bucket], key_bits, value, mask)
            for bucket, (value, mask) in zip(ids.tolist(), queries)
        ]
        got = mirror.match_rows(ids, words, mask_words)
        assert got.shape == (count, ORACLE_SLOTS)
        assert got.tolist() == expected

        # The bulk-load install path must match identically.
        installed = DecodedMirror(
            [MemoryArray(ORACLE_ROWS, layout.row_bits)], layout
        )
        buckets, slots = np.nonzero(mirror.valid)
        installed.install(
            buckets, slots,
            mirror.key_words[buckets, slots].astype(np.uint64),
            mirror.mask_words[buckets, slots],
            mirror.data_words[buckets, slots],
            mirror.reach,
        )
        assert installed.match_rows(ids, words, mask_words).tolist() == expected

        value, mask = _draw_query(data, grid, key_bits, True)
        predicate = keys_to_words([value, mask], key_bits)
        got_all = mirror.match_all(predicate[0], predicate[1])
        assert got_all.tolist() == [
            _oracle_row(keys, key_bits, value, mask) for keys in grid
        ]


def reference_decode(mirror, arrays, layout, horizontal):
    """Scalar per-slot decode via the layout readers — the old sync path."""
    valid = np.zeros_like(mirror.valid)
    key_words = np.zeros_like(mirror.key_words)
    mask_words = np.zeros_like(mirror.mask_words)
    reach = np.zeros_like(mirror.reach)
    records = np.empty(mirror.valid.shape, dtype=object)
    slots = layout.slots_per_bucket
    word_count = mirror.word_count
    for slice_id, array in enumerate(arrays):
        for row in range(array.rows):
            value = array.peek_row(row)
            if horizontal:
                bucket, base = row, slice_id * slots
                if slice_id == 0:
                    reach[bucket] = layout.read_aux(value)
            else:
                bucket, base = slice_id * array.rows + row, 0
                reach[bucket] = layout.read_aux(value)
            for slot in range(slots):
                is_valid, rec = layout.read_slot(value, slot)
                col = base + slot
                valid[bucket, col] = is_valid
                records[bucket, col] = rec if is_valid else None
                if is_valid:
                    key_words[bucket, col] = int_to_words(
                        rec.key.value, word_count
                    )
                    mask_words[bucket, col] = int_to_words(
                        rec.key.mask, word_count
                    )
    return valid, key_words, mask_words, reach, records


class TestVectorizedSyncIdentity:
    """The vectorized decode must reproduce the per-slot readers exactly."""

    @pytest.mark.parametrize("horizontal", [False, True])
    def test_identical_to_scalar_decode(self, horizontal):
        rng = np.random.default_rng(99)
        arrays = [make_array(), make_array()]
        for array in arrays:
            for row in range(ROWS):
                recs = []
                for _ in range(LAYOUT.slots_per_bucket):
                    if rng.random() < 0.4:
                        recs.append(None)
                        continue
                    mask = int(rng.integers(0, 16)) if rng.random() < 0.5 else 0
                    recs.append(
                        record(
                            int(rng.integers(0, 1 << 16)),
                            mask=mask,
                            data=int(rng.integers(0, 256)),
                        )
                    )
                array.write_row(row, pack(recs, reach=int(rng.integers(0, 4))))
        mirror = DecodedMirror(
            arrays,
            LAYOUT,
            BucketGeometry(
                Arrangement.HORIZONTAL if horizontal else Arrangement.VERTICAL,
                ROWS,
                len(arrays),
                LAYOUT.slots_per_bucket,
            ),
        )
        mirror.sync()
        valid, key_words, mask_words, reach, records = reference_decode(
            mirror, arrays, LAYOUT, horizontal
        )
        assert (mirror.valid == valid).all()
        assert (mirror.key_words == key_words).all()
        assert (mirror.mask_words == mask_words).all()
        assert (mirror.reach == reach).all()
        for bucket in range(mirror.buckets):
            for slot in range(mirror.slots):
                got = mirror.records_at([bucket], [slot])[0]
                want = records[bucket, slot]
                if want is None:
                    assert got is None
                else:
                    assert got.key == want.key and got.data == want.data

    def test_identical_after_partial_churn(self):
        array = make_array()
        mirror = DecodedMirror([array], LAYOUT)
        mirror.sync()
        array.write_row(1, pack([record(0xF00D, mask=0b11, data=5)], reach=2))
        array.write_row(6, pack([None, record(0x1F)]))
        assert mirror.sync() == 2
        valid, key_words, mask_words, reach, _ = reference_decode(
            mirror, [array], LAYOUT, False
        )
        assert (mirror.valid == valid).all()
        assert (mirror.key_words == key_words).all()
        assert (mirror.mask_words == mask_words).all()
        assert (mirror.reach == reach).all()
        # Stored key values are normalized under the stored mask.
        assert mirror.records_at([1], [0])[0].key.value == 0xF00D & ~0b11

    def test_wide_key_vectorized_decode(self):
        fmt = RecordFormat(key_bits=128, data_bits=8, ternary=True)
        layout = BucketLayout(
            row_bits=8 + 2 * fmt.slot_bits, record_format=fmt
        )
        array = MemoryArray(4, layout.row_bits)
        key = TernaryKey(
            value=(0xFACE << 100) | 0xCAFE, mask=(1 << 70) | 1, width=128
        )
        array.write_row(1, layout.pack([Record.make(key, 9, fmt)], reach=1))
        mirror = DecodedMirror([array], layout)
        mirror.sync()
        is_valid, rec = layout.read_slot(array.peek_row(1), 0)
        assert is_valid and mirror.valid[1, 0]
        assert mirror.records_at([1], [0])[0].key == rec.key
        assert list(mirror.key_words[1, 0]) == int_to_words(rec.key.value, 2)
        assert list(mirror.mask_words[1, 0]) == int_to_words(rec.key.mask, 2)
        assert int(mirror.reach[1]) == 1
