"""Unit tests for slice configuration."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.config import (
    Arrangement,
    BucketGeometry,
    PROTOTYPE_KEY_BYTES,
    SliceConfig,
    prototype_key_supported,
)
from repro.core.record import RecordFormat
from repro.errors import ConfigurationError


def make_config(**kw):
    defaults = dict(
        index_bits=8,
        row_bits=256,
        record_format=RecordFormat(key_bits=16, data_bits=8),
    )
    defaults.update(kw)
    return SliceConfig(**defaults)


class TestGeometry:
    def test_rows(self):
        assert make_config(index_bits=11).rows == 2048

    def test_slots_per_bucket(self):
        config = make_config()  # slot 25 bits, (256-8)//25 = 9
        assert config.slots_per_bucket == 9

    def test_capacity(self):
        config = make_config()
        assert config.capacity_records == 256 * 9
        assert config.capacity_bits == 256 * 256

    def test_load_factor(self):
        config = make_config()
        assert config.load_factor(config.capacity_records) == pytest.approx(1.0)

    def test_describe_mentions_geometry(self):
        text = make_config().describe()
        assert "2^8 rows" in text
        assert "16-bit" in text


class TestValidation:
    def test_bad_index_bits(self):
        with pytest.raises(ConfigurationError):
            make_config(index_bits=0)
        with pytest.raises(ConfigurationError):
            make_config(index_bits=32)

    def test_row_too_narrow(self):
        with pytest.raises(ConfigurationError):
            make_config(row_bits=16)


class TestTernaryToggle:
    def test_with_ternary_halves_slots(self):
        binary = make_config(row_bits=512)
        ternary = binary.with_ternary(True)
        assert ternary.record_format.ternary
        assert ternary.slots_per_bucket < binary.slots_per_bucket

    def test_round_trip(self):
        config = make_config()
        assert config.with_ternary(True).with_ternary(False) == config


class TestPrototypeKeySizes:
    def test_supported_sizes(self):
        # Section 3.3: "1, 2, 3, 4, 6, 8, 12, and 16 bytes".
        for size in PROTOTYPE_KEY_BYTES:
            assert prototype_key_supported(size * 8)

    def test_unsupported(self):
        assert not prototype_key_supported(5 * 8)
        assert not prototype_key_supported(12)  # not byte-aligned


class TestArrangement:
    def test_values(self):
        assert Arrangement.HORIZONTAL.value == "horizontal"
        assert Arrangement.VERTICAL.value == "vertical"


class TestBucketGeometry:
    def test_vertical_stacks_rows(self):
        geometry = BucketGeometry(Arrangement.VERTICAL, 8, 3, 4)
        assert geometry.bucket_count == 24
        assert geometry.slots_per_bucket == 4
        assert geometry.rows_fetched == 1
        assert geometry.rows_of(10) == [(1, 2)]
        assert all(geometry.holds_reach(s) for s in range(3))

    def test_horizontal_widens_buckets(self):
        geometry = BucketGeometry(Arrangement.HORIZONTAL, 8, 3, 4)
        assert geometry.bucket_count == 8
        assert geometry.slots_per_bucket == 12
        assert geometry.rows_fetched == 3
        assert geometry.rows_of(5) == [(0, 5), (1, 5), (2, 5)]
        assert [geometry.holds_reach(s) for s in range(3)] == [
            True, False, False
        ]

    def test_rejects_bad_shapes(self):
        with pytest.raises(ConfigurationError):
            BucketGeometry(Arrangement.VERTICAL, 8, 0, 4)
        with pytest.raises(ConfigurationError):
            BucketGeometry(Arrangement.HORIZONTAL, 8, 2, 4).rows_of(8)

    @given(
        arrangement=st.sampled_from(list(Arrangement)),
        rows=st.integers(1, 6),
        slices=st.integers(1, 4),
        slots=st.integers(1, 4),
    )
    def test_array_forms_agree_with_rows_of(
        self, arrangement, rows, slices, slots
    ):
        geometry = BucketGeometry(arrangement, rows, slices, slots)
        assert geometry.capacity_records == (
            geometry.bucket_count * geometry.slots_per_bucket
        )
        buckets = np.arange(geometry.bucket_count)
        per_slice = geometry.rows_by_slice(buckets)
        for s in range(slices):
            expected = [
                row
                for b in buckets.tolist()
                for slice_id, row in geometry.rows_of(b)
                if slice_id == s
            ]
            assert per_slice[s].tolist() == expected
        for b in buckets.tolist():
            pairs = geometry.rows_of(b)
            assert geometry.holds_reach(pairs[0][0])
            for slice_id, row in pairs:
                assert geometry.bucket_of(slice_id, row) == b
            slot_ids = np.arange(geometry.slots_per_bucket)
            placed = geometry.place(np.full_like(slot_ids, b), slot_ids)
            expected_slots = [
                (slice_id, row, slot)
                for slice_id, row in pairs
                for slot in range(slots)
            ]
            assert list(zip(*(column.tolist() for column in placed))) == (
                expected_slots
            )
            assert [geometry.slot_offset(s) for s, _ in pairs] == [
                i * slots for i in range(len(pairs))
            ]
