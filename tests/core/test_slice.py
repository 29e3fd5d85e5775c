"""Unit tests for the CA-RAM slice behavioral model."""

import numpy as np
import pytest

from repro.core.config import SliceConfig
from repro.core.index import make_index_generator
from repro.core.key import TernaryKey
from repro.core.probing import DoubleHashing
from repro.core.record import RecordFormat
from repro.core.slice import CARAMSlice
from repro.errors import CapacityError, ConfigurationError, LookupError_
from repro.hashing.base import ModuloHash
from repro.hashing.bit_select import BitSelectHash


def make_slice(
    index_bits=4,
    row_bits=128,
    key_bits=16,
    data_bits=8,
    ternary=False,
    hash_positions=None,
    **kw,
):
    config = SliceConfig(
        index_bits=index_bits,
        row_bits=row_bits,
        record_format=RecordFormat(
            key_bits=key_bits, data_bits=data_bits, ternary=ternary
        ),
    )
    positions = hash_positions or range(key_bits - index_bits, key_bits)
    gen = make_index_generator(BitSelectHash(key_bits, list(positions)))
    return CARAMSlice(config, gen, **kw)


class TestBasicOperations:
    def test_insert_search_round_trip(self):
        sl = make_slice()
        sl.insert(0x1234, data=0x56)
        result = sl.search(0x1234)
        assert result.hit
        assert result.data == 0x56
        assert result.bucket_accesses == 1

    def test_lookup_convenience(self):
        sl = make_slice()
        sl.insert(7, data=9)
        assert sl.lookup(7) == 9
        assert sl.lookup(8) is None

    def test_contains(self):
        sl = make_slice()
        sl.insert(7)
        assert 7 in sl
        assert 8 not in sl

    def test_miss_costs_one_access(self):
        sl = make_slice()
        result = sl.search(42)
        assert not result.hit
        assert result.bucket_accesses == 1

    def test_record_count_and_load_factor(self):
        sl = make_slice()
        for k in range(10):
            sl.insert(k * 16)  # spread over buckets
        assert sl.record_count == 10
        assert sl.load_factor == pytest.approx(
            10 / sl.config.capacity_records
        )

    def test_records_iterator(self):
        sl = make_slice()
        sl.insert(3, data=1)
        sl.insert(300, data=2)
        stored = {record.key.value for _, _, record in sl.records()}
        assert stored == {3, 300}

    def test_stats_track_amal(self):
        sl = make_slice()
        sl.insert(1, data=1)
        sl.search(1)
        sl.search(1)
        assert sl.stats.amal == pytest.approx(1.0)
        assert sl.stats.hits == 2


class TestGeometry:
    def test_index_generator_must_address_every_row(self):
        """A slice checks its geometry like any group: a generator over the
        wrong row count is a configuration mistake, not a full table."""
        config = SliceConfig(
            index_bits=4,
            row_bits=128,
            record_format=RecordFormat(key_bits=16, data_bits=8),
        )
        with pytest.raises(ConfigurationError):
            CARAMSlice(config, make_index_generator(ModuloHash(8)))


class TestOverflowBehavior:
    def test_spill_to_next_bucket(self):
        # Bucket 0 has 4 slots; the 5th record hashed there must spill.
        sl = make_slice(index_bits=4, key_bits=16)
        slots = sl.config.slots_per_bucket
        keys = [i << 4 for i in range(slots + 1)]  # all hash to bucket 0
        for k in keys:
            sl.insert(k, data=k & 0xFF)
        # Every key is still findable.
        for k in keys:
            assert sl.lookup(k) == k & 0xFF
        # The spilled record costs 2 accesses.
        accesses = [sl.search(k).bucket_accesses for k in keys]
        assert sorted(accesses)[-1] == 2
        assert sum(a == 2 for a in accesses) == 1

    def test_reach_limits_miss_cost(self):
        sl = make_slice()
        slots = sl.config.slots_per_bucket
        for i in range(slots + 2):
            sl.insert(i << 4)
        # A miss on bucket 0 must scan home + reach.
        miss = sl.search(0xFFF0)  # hashes to bucket 0, absent key
        reach = sl.memory.peek_row(0) >> (sl.config.row_bits - 8)
        assert miss.bucket_accesses == 1 + reach

    def test_capacity_error_when_full(self):
        sl = make_slice(index_bits=1, row_bits=64, key_bits=16)
        capacity = sl.config.capacity_records * 2  # both rows
        with pytest.raises(CapacityError):
            for i in range(capacity + 8):
                sl.insert(i << 1)

    def test_double_hashing_policy(self):
        sl = make_slice(probing=DoubleHashing(ModuloHash(16)))
        slots = sl.config.slots_per_bucket
        keys = [i << 4 for i in range(slots + 2)]
        for k in keys:
            sl.insert(k)
        for k in keys:
            assert sl.search(k).hit


class TestDelete:
    def test_delete_removes(self):
        sl = make_slice()
        sl.insert(5, data=1)
        assert sl.delete(5) == 1
        assert sl.lookup(5) is None
        assert sl.record_count == 0

    def test_delete_missing_raises(self):
        sl = make_slice()
        with pytest.raises(LookupError_):
            sl.delete(5)

    def test_delete_spilled_record(self):
        sl = make_slice()
        slots = sl.config.slots_per_bucket
        keys = [i << 4 for i in range(slots + 1)]
        for k in keys:
            sl.insert(k)
        spilled = max(keys, key=lambda k: sl.search(k).bucket_accesses)
        assert sl.delete(spilled) == 1
        assert sl.lookup(spilled) is None

    def test_delete_only_exact_key(self):
        sl = make_slice()
        sl.insert(5, data=1)
        sl.insert(0x15, data=2)
        sl.delete(5)
        assert sl.lookup(0x15) == 2


class TestTernary:
    def test_prefix_match(self):
        sl = make_slice(ternary=True, row_bits=256)
        prefix = TernaryKey.from_prefix(0xAB, 8, 16)  # "AB" then dont care
        sl.insert(prefix, data=3)
        assert sl.lookup(0xAB00) == 3
        assert sl.lookup(0xABFF) == 3
        assert sl.lookup(0xAC00) is None

    def test_duplication_across_hash_buckets(self):
        # Hash uses the last 4 bits; a key with Xs there duplicates.
        sl = make_slice(ternary=True, row_bits=256,
                        hash_positions=range(12, 16))
        key = TernaryKey.from_prefix(0xAB, 8, 16)
        copies = sl.insert(key, data=1)
        assert copies == 16
        assert sl.record_count == 16
        # Any concrete address matches via its own bucket in one access.
        for low in (0x0, 0x7, 0xF):
            result = sl.search(0xAB00 | low)
            assert result.hit
            assert result.bucket_accesses == 1

    def test_delete_removes_all_copies(self):
        sl = make_slice(ternary=True, row_bits=256,
                        hash_positions=range(12, 16))
        key = TernaryKey.from_prefix(0xAB, 8, 16)
        sl.insert(key, data=1)
        assert sl.delete(key) == 16
        assert sl.record_count == 0

    def test_masked_search_probes_multiple_buckets(self):
        sl = make_slice(ternary=True, row_bits=256,
                        hash_positions=range(12, 16))
        sl.insert(TernaryKey.exact(0x1234, 16), data=9)
        result = sl.search(0x1230, search_mask=0x000F)
        assert result.hit
        assert result.data == 9


class TestSlotPriority:
    def test_priority_orders_bucket(self):
        # Longer "prefix" (higher priority) must win the priority encoder.
        def priority(keys, masks, data):
            return 16 - np.bitwise_count(masks).sum(axis=1)

        sl = make_slice(ternary=True, row_bits=512, slot_priority=priority)
        short = TernaryKey.from_prefix(0xA, 4, 16)
        long = TernaryKey.from_prefix(0xAB, 8, 16)
        sl.insert(short, data=1)   # inserted first
        sl.insert(long, data=2)    # more specific, inserted second
        result = sl.search(0xAB00)
        assert result.data == 2  # LPM semantics within the bucket


class TestRebuildAndClear:
    def test_rebuild_compacts_reach(self):
        sl = make_slice()
        slots = sl.config.slots_per_bucket
        keys = [i << 4 for i in range(slots + 1)]
        for k in keys:
            sl.insert(k)
        spilled = max(keys, key=lambda k: sl.search(k).bucket_accesses)
        sl.delete(spilled)
        sl.rebuild()
        # After rebuild, all lookups are single-access again.
        for k in keys:
            if k != spilled:
                assert sl.search(k).bucket_accesses == 1

    def test_clear(self):
        sl = make_slice()
        sl.insert(1)
        sl.clear()
        assert sl.record_count == 0
        assert sl.lookup(1) is None
        assert sl.stats.lookups == 1  # the lookup above


class TestRamMode:
    def test_ram_read_write(self):
        sl = make_slice()
        sl.ram_write(3, 0xDEAD)
        assert sl.ram_read(3) == 0xDEAD

    def test_dma_load_recounts_records(self):
        source = make_slice()
        source.insert(0x0102, data=7)
        image = source.memory.snapshot()
        target = make_slice()
        target.dma_load(image)
        assert target.record_count == 1
        assert target.lookup(0x0102) == 7
