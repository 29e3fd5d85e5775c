"""Unit tests for the bucket row layout."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bucket import BucketLayout
from repro.core.key import TernaryKey
from repro.core.record import Record, RecordFormat
from repro.errors import ConfigurationError
from repro.memory.mirror import int_to_words, keys_to_words, words_for_bits


def make_layout(row_bits=128, key_bits=16, data_bits=8, aux_bits=8, **kw):
    return BucketLayout(
        row_bits=row_bits,
        record_format=RecordFormat(key_bits=key_bits, data_bits=data_bits),
        aux_bits=aux_bits,
        **kw,
    )


def make_record(layout, key, data=0):
    return Record.make(key, data, layout.record_format)


class TestGeometry:
    def test_slots_per_bucket(self):
        layout = make_layout()  # slot = 25 bits, (128-8)//25 = 4
        assert layout.slots_per_bucket == 4

    def test_paper_floor_c_over_n(self):
        # No aux, no data, no valid-bit economy: floor(C / slot_bits).
        layout = BucketLayout(
            row_bits=12_288,
            record_format=RecordFormat(key_bits=128),
            aux_bits=0,
        )
        assert layout.slots_per_bucket == 12_288 // 129

    def test_slots_override(self):
        layout = make_layout(slots_override=2)
        assert layout.slots_per_bucket == 2

    def test_slots_override_too_large(self):
        with pytest.raises(ConfigurationError):
            make_layout(slots_override=10).slots_per_bucket

    def test_row_too_small(self):
        with pytest.raises(ConfigurationError):
            make_layout(row_bits=16)

    def test_max_reach(self):
        assert make_layout(aux_bits=8).max_reach == 255
        assert make_layout(aux_bits=0).max_reach == 0


class TestAuxField:
    def test_round_trip(self):
        layout = make_layout()
        row = layout.write_aux(0, 42)
        assert layout.read_aux(row) == 42

    def test_aux_does_not_clobber_slots(self):
        layout = make_layout()
        record = make_record(layout, 0xABCD, 0x12)
        row = layout.write_slot(0, 0, record)
        row = layout.write_aux(row, 7)
        valid, decoded = layout.read_slot(row, 0)
        assert valid and decoded == record
        assert layout.read_aux(row) == 7

    def test_reach_overflow_rejected(self):
        layout = make_layout(aux_bits=4)
        with pytest.raises(ConfigurationError):
            layout.write_aux(0, 16)

    def test_disabled_aux(self):
        layout = make_layout(aux_bits=0)
        assert layout.read_aux(123) == 0
        with pytest.raises(ConfigurationError):
            layout.write_aux(0, 1)


class TestSlots:
    def test_write_read_each_slot(self):
        layout = make_layout()
        row = 0
        records = [make_record(layout, 100 + i, i) for i in range(4)]
        for slot, record in enumerate(records):
            row = layout.write_slot(row, slot, record)
        for slot, record in enumerate(records):
            valid, decoded = layout.read_slot(row, slot)
            assert valid and decoded == record

    def test_clear_slot(self):
        layout = make_layout()
        row = layout.write_slot(0, 1, make_record(layout, 5))
        row = layout.write_slot(row, 1, None)
        valid, _ = layout.read_slot(row, 1)
        assert not valid

    def test_write_preserves_neighbors(self):
        layout = make_layout()
        a, b = make_record(layout, 1, 1), make_record(layout, 2, 2)
        row = layout.write_slot(0, 0, a)
        row = layout.write_slot(row, 1, b)
        row = layout.write_slot(row, 0, None)
        valid, decoded = layout.read_slot(row, 1)
        assert valid and decoded == b

    def test_slot_out_of_range(self):
        layout = make_layout()
        with pytest.raises(ConfigurationError):
            layout.read_slot(0, 4)


class TestHelpers:
    def test_find_free_slot(self):
        layout = make_layout()
        row = layout.write_slot(0, 0, make_record(layout, 1))
        assert layout.find_free_slot(row) == 1
        for slot in range(1, 4):
            row = layout.write_slot(row, slot, make_record(layout, slot + 1))
        assert layout.find_free_slot(row) is None

    def test_occupancy(self):
        layout = make_layout()
        row = layout.write_slot(0, 2, make_record(layout, 9))
        assert layout.occupancy(row) == 1

    def test_read_all(self):
        layout = make_layout()
        row = layout.write_slot(0, 1, make_record(layout, 3))
        slots = layout.read_all(row)
        assert len(slots) == 4
        assert [valid for valid, _ in slots] == [False, True, False, False]

    def test_pack(self):
        layout = make_layout()
        records = [make_record(layout, i + 1, i) for i in range(3)]
        row = layout.pack(records, reach=5)
        assert layout.read_aux(row) == 5
        assert layout.occupancy(row) == 3
        valid, decoded = layout.read_slot(row, 0)
        assert valid and decoded == records[0]
        valid, _ = layout.read_slot(row, 3)
        assert not valid

    def test_pack_too_many(self):
        layout = make_layout()
        records = [make_record(layout, i, 0) for i in range(5)]
        with pytest.raises(ConfigurationError):
            layout.pack(records)


@st.composite
def codec_case(draw):
    """A layout (binary or ternary, keys of 1-130 bits, data of 0-70 bits,
    aux of 0, 8 or 70 bits, maybe a slot override) and rows packed with
    a prefix of records each, plus their reach fields."""
    fmt = RecordFormat(
        key_bits=draw(st.integers(1, 130)),
        data_bits=draw(st.integers(0, 70)),
        ternary=draw(st.booleans()),
    )
    aux_bits = draw(st.sampled_from([0, 8, 70]))
    fitting = draw(st.integers(1, 4))
    layout = BucketLayout(
        row_bits=aux_bits + fitting * fmt.slot_bits + draw(st.integers(0, 9)),
        record_format=fmt,
        aux_bits=aux_bits,
        slots_override=draw(st.none() | st.integers(1, fitting)),
    )
    key_limit = (1 << fmt.key_bits) - 1
    record = st.builds(
        lambda value, mask, data: Record.make(
            TernaryKey(value, mask if fmt.ternary else 0, fmt.key_bits),
            data,
            fmt,
        ),
        st.integers(0, key_limit),
        st.integers(0, key_limit),
        st.integers(0, (1 << fmt.data_bits) - 1),
    )
    rows = draw(
        st.lists(
            st.lists(record, max_size=layout.slots_per_bucket),
            min_size=1,
            max_size=5,
        )
    )
    reach_limit = layout.max_reach if aux_bits <= 8 else (1 << 16) - 1
    reach = [draw(st.integers(0, reach_limit)) for _ in rows]
    return layout, rows, reach


class TestVectorizedCodec:
    """``encode_rows``/``decode_rows`` against the scalar ``pack`` and
    ``read_aux``/``read_all``."""

    @settings(max_examples=150, deadline=None)
    @given(case=codec_case(), data=st.data())
    def test_encode_rows_matches_pack(self, case, data):
        layout, rows, reach = case
        fmt = layout.record_format
        copies = [
            (row, slot, rec)
            for row, records in enumerate(rows)
            for slot, rec in enumerate(records)
        ]
        copies = data.draw(st.permutations(copies))
        recs = [rec for _, _, rec in copies]
        with_reach = bool(layout.aux_bits) and data.draw(st.booleans())
        image = layout.encode_rows(
            len(rows),
            reach if with_reach else None,
            np.array([row for row, _, _ in copies], dtype=np.int64),
            np.array([slot for _, slot, _ in copies], dtype=np.int64),
            keys_to_words([r.key.value for r in recs], fmt.key_bits),
            keys_to_words([r.key.mask for r in recs], fmt.key_bits),
            keys_to_words([r.data for r in recs], max(fmt.data_bits, 1)),
        )
        assert image == [
            layout.pack(records, reach[i] if with_reach else 0)
            for i, records in enumerate(rows)
        ]

    @settings(max_examples=150, deadline=None)
    @given(case=codec_case(), data=st.data())
    def test_decode_rows_matches_read_all(self, case, data):
        layout, rows, reach = case
        fmt = layout.record_format
        shift = layout.row_bits - layout.aux_bits
        values = [
            layout.pack(records, reach[i])
            for i, records in enumerate(rows)
        ]
        # Junk below the aux field: stray valid bits, bits under masks,
        # padding and contents of empty slots.
        values += [
            (r << shift) | data.draw(st.integers(0, (1 << shift) - 1))
            for r in reach
        ]
        got_reach, valid, keys, masks, words = layout.decode_rows(values)
        key_words = words_for_bits(fmt.key_bits)
        data_words = words_for_bits(fmt.data_bits) if fmt.data_bits else 0
        slots = layout.slots_per_bucket
        assert keys.shape == (len(values), slots, key_words)
        assert words.shape == (len(values), slots, data_words)
        assert (masks is None) == (not fmt.ternary)
        assert got_reach.tolist() == [layout.read_aux(v) for v in values]
        for i, value in enumerate(values):
            for j, (is_valid, rec) in enumerate(layout.read_all(value)):
                assert valid[i, j] == is_valid
                want_key = rec.key.value if is_valid else 0
                want_mask = rec.key.mask if is_valid else 0
                want_data = rec.data if is_valid else 0
                assert keys[i, j].tolist() == int_to_words(want_key, key_words)
                if masks is not None:
                    assert masks[i, j].tolist() == int_to_words(
                        want_mask, key_words
                    )
                assert words[i, j].tolist() == int_to_words(
                    want_data, data_words
                )
