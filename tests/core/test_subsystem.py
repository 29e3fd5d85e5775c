"""Unit tests for slice groups and the CA-RAM subsystem."""

import pytest

from repro.core.config import Arrangement, SliceConfig
from repro.core.key import TernaryKey
from repro.core.record import RecordFormat
from repro.core.subsystem import CARAMSubsystem, SliceGroup
from repro.errors import CapacityError, ConfigurationError, LookupError_
from repro.cam.tcam import TCAM
from repro.hashing.base import ModuloHash
from repro.hashing.bit_select import BitSelectHash


def make_config(index_bits=3, row_bits=128, key_bits=16, data_bits=8):
    return SliceConfig(
        index_bits=index_bits,
        row_bits=row_bits,
        record_format=RecordFormat(key_bits=key_bits, data_bits=data_bits),
    )


def make_group(slice_count=2, arrangement=Arrangement.VERTICAL, **kw):
    config = make_config()
    buckets = (
        config.rows * slice_count
        if arrangement is Arrangement.VERTICAL
        else config.rows
    )
    return SliceGroup(
        config=config,
        slice_count=slice_count,
        arrangement=arrangement,
        hash_function=ModuloHash(buckets),
        name=kw.pop("name", "test"),
        **kw,
    )


class TestGeometry:
    def test_vertical_more_rows(self):
        group = make_group(slice_count=3, arrangement=Arrangement.VERTICAL)
        assert group.bucket_count == 24
        assert group.slots_per_bucket == group.config.slots_per_bucket
        assert group.rows_fetched_per_access == 1

    def test_horizontal_wider_buckets(self):
        group = make_group(slice_count=3, arrangement=Arrangement.HORIZONTAL)
        assert group.bucket_count == 8
        assert group.slots_per_bucket == 3 * group.config.slots_per_bucket
        assert group.rows_fetched_per_access == 3

    def test_equal_capacity_both_arrangements(self):
        v = make_group(slice_count=2, arrangement=Arrangement.VERTICAL)
        h = make_group(slice_count=2, arrangement=Arrangement.HORIZONTAL)
        assert v.capacity_records == h.capacity_records

    def test_hash_function_must_match_buckets(self):
        config = make_config()
        with pytest.raises(ConfigurationError):
            SliceGroup(
                config, 2, Arrangement.VERTICAL, ModuloHash(config.rows)
            )


class TestOperations:
    @pytest.mark.parametrize(
        "arrangement", [Arrangement.VERTICAL, Arrangement.HORIZONTAL]
    )
    def test_round_trip(self, arrangement):
        group = make_group(arrangement=arrangement)
        for k in range(40):
            group.insert(k, data=k % 256)
        for k in range(40):
            assert group.lookup(k) == k % 256
        assert group.record_count == 40

    def test_horizontal_parallel_fetch_counts_one_access(self):
        group = make_group(slice_count=4, arrangement=Arrangement.HORIZONTAL)
        group.insert(5, data=1)
        result = group.search(5)
        assert result.bucket_accesses == 1
        # But four physical rows were fetched.
        assert group.physical_row_fetches == 4

    def test_vertical_routes_to_one_slice(self):
        group = make_group(slice_count=4, arrangement=Arrangement.VERTICAL)
        group.insert(5, data=1)
        group.search(5)
        # Only the owning slice's row is fetched (inserts peek, searches
        # count).
        assert group.physical_row_fetches == 1

    def test_spill_across_slice_boundary_vertical(self):
        group = make_group(slice_count=2, arrangement=Arrangement.VERTICAL)
        slots = group.slots_per_bucket
        # Fill bucket 7 (last of slice 0) so it spills into bucket 8
        # (first of slice 1).
        keys = [7 + 16 * i for i in range(slots + 1)]
        for k in keys:
            group.insert(k, data=k % 251)
        for k in keys:
            assert group.lookup(k) == k % 251

    def test_delete(self):
        group = make_group()
        group.insert(5, data=1)
        assert group.delete(5) == 1
        assert group.lookup(5) is None
        with pytest.raises(LookupError_):
            group.delete(5)

    def test_records_iterator(self):
        group = make_group()
        group.insert(1, data=1)
        group.insert(20, data=2)
        assert {r.key.value for _, _, r in group.records()} == {1, 20}

    def test_clear(self):
        group = make_group()
        group.insert(1)
        group.clear()
        assert group.record_count == 0
        assert group.physical_row_fetches == 0

    def test_insert_no_spill_raises_when_home_full(self):
        """With an overflow area the home bucket is the only CA-RAM
        bucket tried; once the area is full too, the insert fails."""
        group = make_group()
        group.attach_overflow(TCAM(1, 16))
        slots = group.slots_per_bucket
        for i in range(slots + 1):
            group.insert(i * 16, data=0)
        assert group.record_count == slots
        assert group.overflow_store.entry_count == 1
        with pytest.raises(CapacityError):
            group.insert((slots + 1) * 16, data=0)


class TestSlotPriority:
    def test_sorted_bucket(self):
        # Two records with the same key: the priority encoder must return
        # the higher-priority one (lower slot after sorted insert).
        group = make_group(slot_priority=lambda keys, masks, data: data[:, 0])
        group.insert(0, data=1)
        group.insert(0, data=9)
        result = group.search(0)
        assert result.record.data == 9
        assert result.multiple_matches


class TestSubsystem:
    def test_group_registration(self):
        sub = CARAMSubsystem()
        group = sub.add_group(make_group(name="ip"))
        assert sub.group("ip") is group
        assert sub.group_names == ["ip"]
        with pytest.raises(ConfigurationError):
            sub.add_group(make_group(name="ip"))

    def test_unknown_group(self):
        sub = CARAMSubsystem()
        with pytest.raises(ConfigurationError):
            sub.group("nope")

    def test_ports(self):
        sub = CARAMSubsystem()
        sub.add_group(make_group(name="db"))
        sub.map_port("port0", "db")
        sub.insert("db", 3, data=7)
        assert sub.search_port("port0", 3).data == 7
        with pytest.raises(ConfigurationError):
            sub.search_port("portX", 3)

    def test_multiple_databases(self):
        sub = CARAMSubsystem()
        sub.add_group(make_group(name="a"))
        sub.add_group(make_group(name="b"))
        sub.insert("a", 1, data=10)
        sub.insert("b", 1, data=20)
        assert sub.search("a", 1).data == 10
        assert sub.search("b", 1).data == 20

    def test_total_stats(self):
        sub = CARAMSubsystem()
        sub.add_group(make_group(name="a"))
        sub.insert("a", 1, data=1)
        sub.search("a", 1)
        assert sub.total_stats().lookups == 1


class TestVictimOverflow:
    def make_subsystem(self):
        sub = CARAMSubsystem()
        sub.add_group(make_group(slice_count=1, name="db"))
        sub.attach_overflow("db", TCAM(64, 16))
        return sub

    def test_overflow_insert_diverts_to_tcam(self):
        sub = self.make_subsystem()
        group = sub.group("db")
        slots = group.slots_per_bucket
        keys = [i * 8 for i in range(slots + 3)]  # all hash to bucket 0
        for k in keys:
            sub.insert("db", k, data=k % 100)
        store = sub.overflow_store("db")
        assert store.entry_count == 3

    def test_amal_is_one_with_victim(self):
        # Section 4.3: "If this TCAM is accessed simultaneously with the
        # main CA-RAM, AMAL becomes 1."
        sub = self.make_subsystem()
        group = sub.group("db")
        slots = group.slots_per_bucket
        keys = [i * 8 for i in range(slots + 3)]
        for k in keys:
            sub.insert("db", k, data=k % 100)
        for k in keys:
            result = sub.search("db", k)
            assert result.hit
            assert result.data == k % 100
            assert result.bucket_accesses == 1

    def test_miss_with_victim(self):
        sub = self.make_subsystem()
        result = sub.search("db", 999)
        assert not result.hit


class TestAllOrNothing:
    """``clear`` and a failed ``insert`` leave nothing behind."""

    def make_group(self, overflow=None):
        record_format = RecordFormat(key_bits=16, data_bits=8, ternary=True)
        config = SliceConfig(
            index_bits=2,
            row_bits=8 + 2 * record_format.slot_bits,
            record_format=record_format,
            aux_bits=8,
        )
        group = SliceGroup(
            config, 1, Arrangement.VERTICAL, BitSelectHash(16, (0, 1))
        )
        if overflow is not None:
            group.attach_overflow(overflow)
        return group

    def test_clear_empties_the_overflow_area(self):
        group = self.make_group(TCAM(1, 16))
        for key in (0x0100, 0x0200, 0x0300):
            group.insert(key, data=key >> 8)
        assert group.overflow_store.entry_count == 1
        group.clear()
        assert group.record_count == 0
        assert group.overflow_store.entry_count == 0
        assert not group.search(0x0300).hit
        assert not group.search_batch([0x0300])[0].hit

    def test_failed_insert_into_full_area_stores_nothing(self):
        group = self.make_group(TCAM(1, 16))
        for key in (0x0100, 0x0200, 0x0300):
            group.insert(key, data=key >> 8)
        inserts = group.stats.inserts
        # Homes 0 (full) and 2 (free); the full TCAM refuses the spill.
        with pytest.raises(CapacityError):
            group.insert(TernaryKey(value=0x0400, mask=0x8000, width=16), 4)
        assert group.record_count == 2
        assert group.stats.inserts == inserts
        assert not group.search(0x8400).hit
        assert not group.search_batch([0x8400])[0].hit
        assert group.search(0x0300).data == 3

    def test_failed_probing_insert_stores_nothing(self):
        group = self.make_group()
        for key in (0x0100, 0x0200, 0x4100, 0x4200, 0x8100, 0x8200, 0xC100):
            group.insert(key, data=1)
        assert group.record_count == 7
        # Home 0's copy takes the last free slot; home 2's finds none.
        with pytest.raises(CapacityError):
            group.insert(TernaryKey(value=0x0400, mask=0x8000, width=16), 4)
        assert group.record_count == 7
        assert not group.search(0x0400).hit
        assert not group.search_batch([0x0400])[0].hit
        assert group.insert(0xC200, data=1) == 1


class TestOverflowOverlay:
    """The overflow area answers with the home bucket's rules."""

    def make_subsystem(self):
        record_format = RecordFormat(key_bits=16, data_bits=8)
        config = SliceConfig(
            index_bits=2,
            row_bits=8 + 2 * record_format.slot_bits,
            record_format=record_format,
            aux_bits=8,
        )
        sub = CARAMSubsystem()
        sub.add_group(
            SliceGroup(
                config, 1, Arrangement.VERTICAL, BitSelectHash(16, (0, 1)),
                name="db",
            )
        )
        sub.attach_overflow("db", TCAM(16, 16))
        # One bucket of two slots: 0x0300 is sent to the TCAM.
        for key in (0x0100, 0x0200, 0x0300):
            sub.insert("db", key, data=key >> 8)
        assert sub.overflow_store("db").entry_count == 1
        return sub

    def test_masked_lookup_reaches_overflow(self):
        sub = self.make_subsystem()
        assert sub.search("db", 0x0301, search_mask=1).data == 3
        assert sub.search_batch("db", [0x0301], search_mask=1)[0].data == 3

    def test_delete_reaches_overflow(self):
        sub = self.make_subsystem()
        group = sub.group("db")
        assert group.delete(0x0300) == 1
        assert sub.overflow_store("db").entry_count == 0
        assert not sub.search("db", 0x0300).hit
        assert group.delete(0x0100) == 1
        with pytest.raises(LookupError_):
            group.delete(0x0300)
