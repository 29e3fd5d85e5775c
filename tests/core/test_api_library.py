"""Unit tests for the Section 3.2 class-library API."""

import pytest

from repro.api import CaRamLibrary, ExceptionEvent
from repro.core.composer import OverflowKind
from repro.core.config import Arrangement
from repro.core.record import RecordFormat
from repro.cost.powermgmt import PowerPolicy
from repro.errors import CapacityError, ConfigurationError
from repro.hashing.base import ModuloHash


def make_library(slice_count=8):
    return CaRamLibrary(slice_count=slice_count, index_bits=5, row_bits=512)


FMT16 = RecordFormat(key_bits=16, data_bits=8)


class TestAllocation:
    def test_database_claims_slices(self):
        lib = make_library()
        db = lib.allocate_database("a", FMT16, slice_count=3)
        assert lib.free_slices == 5
        assert len(db.slice_ids) == 3

    def test_overflow_slice_claims_extra(self):
        lib = make_library()
        db = lib.allocate_database(
            "a", FMT16, slice_count=2, overflow=OverflowKind.CA_RAM_SLICE
        )
        assert lib.free_slices == 5
        assert len(db.slice_ids) == 3

    def test_scratchpad(self):
        lib = make_library()
        pad = lib.allocate_scratchpad("pad", 2)
        assert lib.free_slices == 6
        pad.write(3, 0xABCD)
        assert pad.read(3) == 0xABCD
        assert pad.rows == 2 * 32

    def test_pool_exhaustion(self):
        lib = make_library(slice_count=2)
        lib.allocate_database("a", FMT16, slice_count=2)
        with pytest.raises(CapacityError):
            lib.allocate_database("b", FMT16, slice_count=1)

    def test_duplicate_name_rejected(self):
        lib = make_library()
        lib.allocate_database("a", FMT16, slice_count=1)
        with pytest.raises(ConfigurationError):
            lib.allocate_database("a", FMT16, slice_count=1)
        with pytest.raises(ConfigurationError):
            lib.allocate_scratchpad("a", 1)

    @pytest.mark.parametrize("count", [0, -1, -3])
    def test_rejected_allocation_claims_nothing(self, count):
        lib = make_library(slice_count=4)
        with pytest.raises(ConfigurationError):
            lib.allocate_database("a", FMT16, slice_count=count)
        assert lib.free_slices == 4
        with pytest.raises(ConfigurationError):
            lib.allocate_scratchpad("pad", count)
        assert lib.free_slices == 4
        assert lib.allocation_names == []
        # The slices are still there to claim.
        lib.allocate_database("a", FMT16, slice_count=4)
        assert lib.free_slices == 0

    def test_failed_database_build_frees_its_claim(self):
        # The overflow slice is claimed, then the group geometry fails.
        lib = make_library(slice_count=4)
        with pytest.raises(ConfigurationError):
            lib.allocate_database(
                "a", FMT16, slice_count=0, overflow=OverflowKind.CA_RAM_SLICE
            )
        assert lib.free_slices == 4

    def test_free_returns_slices(self):
        lib = make_library()
        db = lib.allocate_database("a", FMT16, slice_count=4)
        lib.free("a")
        assert lib.free_slices == 8
        assert "a" not in lib.allocation_names
        # The name is reusable.
        lib.allocate_database("a", FMT16, slice_count=8)

    def test_close_is_idempotent(self):
        lib = make_library()
        db = lib.allocate_database("a", FMT16, slice_count=1)
        db.close()
        db.close()
        assert lib.free_slices == 8

    def test_freed_handle_rejects_operations(self):
        lib = make_library()
        db = lib.allocate_database("a", FMT16, slice_count=1)
        db.close()
        with pytest.raises(ConfigurationError):
            db.lookup(1)

    def test_free_unknown_name(self):
        lib = make_library()
        with pytest.raises(ConfigurationError):
            lib.free("nope")


class TestDatabaseOperations:
    def test_round_trip(self):
        lib = make_library()
        db = lib.allocate_database("a", FMT16, slice_count=2)
        for k in range(100):
            db.insert(k * 31, data=k % 200)
        for k in range(100):
            assert db.lookup(k * 31) == k % 200
        assert db.record_count == 100
        assert 0 < db.load_factor < 1

    def test_contains_and_delete(self):
        lib = make_library()
        db = lib.allocate_database("a", FMT16, slice_count=1)
        db.insert(7, data=1)
        assert 7 in db
        db.delete(7)
        assert 7 not in db

    def test_ternary_database(self):
        from repro.core.key import TernaryKey
        from repro.hashing.bit_select import BitSelectHash

        lib = make_library()
        db = lib.allocate_database(
            "t", RecordFormat(key_bits=16, data_bits=8, ternary=True),
            slice_count=1,
            # Bit selection over the top 5 bits so prefix keys (concrete
            # high bits) index without duplication surprises.
            hash_function=BitSelectHash(16, range(5)),
        )
        db.insert(TernaryKey.from_prefix(0xAB, 8, 16), data=5)
        assert db.lookup(0xAB00) == 5
        assert db.lookup(0xABFF) == 5

    def test_stats_exposed(self):
        lib = make_library()
        db = lib.allocate_database("a", FMT16, slice_count=1)
        db.insert(1, data=1)
        db.search(1)
        assert db.stats.lookups == 1


class TestExceptionConditions:
    def test_miss_handler(self):
        lib = make_library()
        db = lib.allocate_database("a", FMT16, slice_count=1)
        events = []
        db.on_exception(ExceptionEvent.MISS, lambda e, p: events.append(p))
        db.search(42)
        assert events == [42]

    def test_multiple_match_handler(self):
        lib = make_library()
        db = lib.allocate_database("a", FMT16, slice_count=1)
        events = []
        db.on_exception(
            ExceptionEvent.MULTIPLE_MATCH, lambda e, p: events.append(p)
        )
        db.insert(9, data=1)
        db.insert(9, data=2)
        result = db.search(9)
        assert result.multiple_matches
        assert len(events) == 1

    def test_capacity_handler(self):
        lib = CaRamLibrary(slice_count=1, index_bits=1, row_bits=64)
        db = lib.allocate_database(
            "tiny", RecordFormat(key_bits=16), slice_count=1,
            hash_function=ModuloHash(2),
        )
        events = []
        db.on_exception(ExceptionEvent.CAPACITY, lambda e, p: events.append(p))
        with pytest.raises(CapacityError):
            for k in range(64):
                db.insert(k)
        assert len(events) == 1


class TestOverflowIntegration:
    def test_victim_tcam_through_handle(self):
        lib = make_library()
        db = lib.allocate_database(
            "a", FMT16, slice_count=1, overflow=OverflowKind.TCAM,
            tcam_entries=32, hash_function=ModuloHash(32),
        )
        slots = db._composed.main.slots_per_bucket
        keys = [i * 32 for i in range(slots + 2)]
        for key in keys:
            db.insert(key, data=key % 100)
        assert db.overflow_entry_count == 2
        for key in keys:
            result = db.search(key)
            assert result.hit and result.bucket_accesses == 1


class TestPowerManagement:
    def test_breakdown(self):
        lib = make_library()
        lib.allocate_database("a", FMT16, slice_count=2)
        breakdown = lib.power_breakdown(10e6)
        assert breakdown.policy is PowerPolicy.BANK_SELECT
        assert breakdown.total_w > 0

    def test_policy_switch(self):
        lib = make_library()
        lib.allocate_database("a", FMT16, slice_count=2)
        lib.power_policy = PowerPolicy.DROWSY
        assert lib.power_breakdown(1e6).wakeup_latency_cycles > 0

    def test_no_databases_rejected(self):
        lib = make_library()
        with pytest.raises(ConfigurationError):
            lib.power_breakdown(1e6)
