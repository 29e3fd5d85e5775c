"""Unit tests for mixed-arrangement database composition."""

import pytest

from repro.apps.iplookup.caram import prefix_priority
from repro.cam.tcam import TCAM
from repro.core.composer import (
    ComposedDatabase,
    OverflowKind,
    compose_database,
)
from repro.core.config import Arrangement, SliceConfig
from repro.core.key import TernaryKey
from repro.core.record import RecordFormat
from repro.core.subsystem import CARAMSubsystem, SliceGroup
from repro.hashing.base import ModuloHash
from repro.hashing.bit_select import BitSelectHash


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


def prefix(value, length):
    return TernaryKey.from_prefix(value, length, 16)


class TestOverflowLpm:
    """A longer prefix in the overflow area beats a shorter one in the
    home bucket, scalar and batch."""

    def compose_lpm(self, overflow, routes):
        record_format = RecordFormat(key_bits=16, data_bits=8, ternary=True)
        config = SliceConfig(
            index_bits=2,
            row_bits=8 + 2 * record_format.slot_bits,
            record_format=record_format,
            aux_bits=8,
        )
        sub = CARAMSubsystem()
        compose_database(
            sub,
            name="db",
            config=config,
            slice_count=1,
            arrangement=Arrangement.VERTICAL,
            hash_function=BitSelectHash(16, (0, 1)),
            overflow=overflow,
            tcam_entries=16,
            slot_priority=prefix_priority,
        )
        for key, hop in routes:
            sub.insert("db", key, data=hop)
        return sub

    def assert_answers(self, sub, address, hop):
        assert sub.search("db", address).data == hop
        assert sub.search_batch("db", [address])[0].data == hop

    @pytest.mark.parametrize(
        "overflow", [OverflowKind.TCAM, OverflowKind.CA_RAM_SLICE]
    )
    def test_overflowed_longer_prefix_wins(self, overflow):
        sub = self.compose_lpm(
            overflow,
            [(prefix(0x01, 8), 1), (prefix(0x02, 8), 2), (prefix(0x012, 12), 3)],
        )
        assert sub.overflow_store("db").record_count == 1
        self.assert_answers(sub, 0x0123, 3)
        self.assert_answers(sub, 0x0155, 1)

    def test_overflow_slice_keeps_lpm_order(self):
        """Two prefixes overflow; the slice sorts them like the home
        bucket.  (An overflow TCAM keeps arrival order.)"""
        sub = self.compose_lpm(
            OverflowKind.CA_RAM_SLICE,
            [
                (prefix(0x02, 8), 2),
                (prefix(0x03, 8), 4),
                (prefix(0x01, 8), 1),
                (prefix(0x012, 12), 3),
            ],
        )
        assert sub.overflow_store("db").record_count == 2
        self.assert_answers(sub, 0x0123, 3)
