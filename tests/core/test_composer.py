"""Unit tests for mixed-arrangement database composition."""

import pytest

from repro.cam.tcam import TCAM
from repro.core.composer import (
    ComposedDatabase,
    OverflowKind,
    compose_database,
)
from repro.core.config import Arrangement, SliceConfig
from repro.core.record import RecordFormat
from repro.core.subsystem import CARAMSubsystem, SliceGroup
from repro.hashing.base import ModuloHash


def make_config(index_bits=4, slots=4):
    record_format = RecordFormat(key_bits=16, data_bits=8)
    return SliceConfig(
        index_bits=index_bits,
        row_bits=8 + slots * record_format.slot_bits,
        record_format=record_format,
        slots_override=slots,
    )


def compose(overflow=OverflowKind.NONE, slice_count=2, **kw):
    sub = CARAMSubsystem()
    config = make_config()
    composed = compose_database(
        sub,
        name="db",
        config=config,
        slice_count=slice_count,
        arrangement=Arrangement.VERTICAL,
        hash_function=ModuloHash(config.rows * slice_count),
        overflow=overflow,
        **kw,
    )
    return sub, composed


class TestComposition:
    def test_no_overflow(self):
        sub, composed = compose()
        assert composed.overflow is None
        assert composed.total_slices == 2
        assert composed.overflow_entry_count == 0
        assert sub.group("db") is composed.main

    def test_port_mapped(self):
        sub, composed = compose()
        sub.insert("db", 5, data=9)
        assert sub.search_port("db", 5).data == 9

    def test_tcam_overflow(self):
        sub, composed = compose(overflow=OverflowKind.TCAM, tcam_entries=64)
        assert isinstance(composed.overflow, TCAM)
        assert composed.total_slices == 2  # TCAM is not a pool slice

    def test_caram_slice_overflow(self):
        sub, composed = compose(overflow=OverflowKind.CA_RAM_SLICE)
        assert isinstance(composed.overflow, SliceGroup)
        assert composed.total_slices == 3  # "the remaining one set aside"


class TestOverflowBehavior:
    def overload_bucket(self, sub, composed):
        """Force more records into bucket 0 than its slots."""
        slots = composed.main.slots_per_bucket
        buckets = composed.main.bucket_count
        keys = [i * buckets for i in range(slots + 3)]
        for key in keys:
            sub.insert("db", key, data=key % 251)
        return keys

    def test_tcam_absorbs_spills_amal_one(self):
        sub, composed = compose(overflow=OverflowKind.TCAM, tcam_entries=64)
        keys = self.overload_bucket(sub, composed)
        assert composed.overflow_entry_count == 3
        for key in keys:
            result = sub.search("db", key)
            assert result.hit and result.data == key % 251
            assert result.bucket_accesses == 1

    def test_caram_slice_absorbs_spills(self):
        sub, composed = compose(overflow=OverflowKind.CA_RAM_SLICE)
        keys = self.overload_bucket(sub, composed)
        assert composed.overflow_entry_count == 3
        for key in keys:
            result = sub.search("db", key)
            assert result.hit and result.data == key % 251
            # Overflow slice is searched in parallel with the home bucket.
            assert result.bucket_accesses == 1

    def test_overflow_slice_shares_hash_locality(self):
        """Records in the overflow slice land at their home index there."""
        sub, composed = compose(overflow=OverflowKind.CA_RAM_SLICE)
        self.overload_bucket(sub, composed)
        overflow = composed.overflow
        rows = {bucket for bucket, _, _ in overflow.records()}
        # All spills share home bucket 0 of the main group; the overflow
        # hash maps them to row 0 of the overflow slice.
        assert rows == {0}
