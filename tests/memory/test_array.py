"""Unit tests for the row-organized memory array."""

import pytest

from repro.errors import ConfigurationError, RamModeError
from repro.memory.array import MemoryArray
from repro.memory.timing import DRAM_TIMING


class TestConstruction:
    def test_geometry(self):
        array = MemoryArray(rows=16, row_bits=128)
        assert array.rows == 16
        assert array.row_bits == 128
        assert array.capacity_bits == 2048

    def test_zero_initialized(self):
        array = MemoryArray(rows=4, row_bits=8)
        assert all(array.peek_row(r) == 0 for r in range(4))

    def test_invalid_geometry_rejected(self):
        with pytest.raises(ConfigurationError):
            MemoryArray(rows=0, row_bits=8)
        with pytest.raises(ConfigurationError):
            MemoryArray(rows=8, row_bits=0)

    def test_timing_attached(self):
        array = MemoryArray(rows=4, row_bits=8, timing=DRAM_TIMING)
        assert array.timing.access_cycles == 6


class TestRowAccess:
    def test_write_read_round_trip(self):
        array = MemoryArray(rows=8, row_bits=64)
        array.write_row(3, 0xDEADBEEF)
        assert array.read_row(3) == 0xDEADBEEF

    def test_wide_row(self):
        array = MemoryArray(rows=2, row_bits=12_288)
        value = (1 << 12_287) | 1
        array.write_row(0, value)
        assert array.read_row(0) == value

    def test_out_of_range_row(self):
        array = MemoryArray(rows=4, row_bits=8)
        with pytest.raises(RamModeError):
            array.read_row(4)
        with pytest.raises(RamModeError):
            array.write_row(-1, 0)

    def test_value_too_wide(self):
        array = MemoryArray(rows=4, row_bits=8)
        with pytest.raises(RamModeError):
            array.write_row(0, 256)

    def test_access_counters(self):
        array = MemoryArray(rows=4, row_bits=8)
        array.write_row(0, 1)
        array.read_row(0)
        array.read_row(1)
        assert array.stats.writes == 1
        assert array.stats.reads == 2
        assert array.stats.total_accesses == 3
        assert array.stats.as_dict() == {
            "reads": 2,
            "writes": 1,
            "total_accesses": 3,
        }

    def test_peek_does_not_count(self):
        array = MemoryArray(rows=4, row_bits=8)
        array.peek_row(0)
        assert array.stats.total_accesses == 0


class TestFieldAccess:
    def test_read_field(self):
        array = MemoryArray(rows=2, row_bits=16)
        array.write_row(0, 0b1010_1111_0000_0101)
        assert array.read_field(0, 0, 4) == 0b1010
        assert array.read_field(0, 4, 4) == 0b1111
        assert array.read_field(0, 12, 4) == 0b0101

    def test_write_field_preserves_rest(self):
        array = MemoryArray(rows=2, row_bits=16)
        array.write_row(0, 0xFFFF)
        array.write_field(0, 4, 4, 0)
        assert array.peek_row(0) == 0xF0FF

    def test_write_field_counts_read_modify_write(self):
        array = MemoryArray(rows=2, row_bits=16)
        array.write_field(0, 0, 4, 5)
        assert array.stats.reads == 1
        assert array.stats.writes == 1

    def test_field_value_too_wide(self):
        array = MemoryArray(rows=2, row_bits=16)
        with pytest.raises(RamModeError):
            array.write_field(0, 0, 4, 16)


class TestBulkOperations:
    def test_fill(self):
        array = MemoryArray(rows=4, row_bits=8)
        array.fill(0xAA)
        assert all(array.peek_row(r) == 0xAA for r in range(4))
        assert array.stats.total_accesses == 0

    def test_snapshot_is_copy(self):
        array = MemoryArray(rows=2, row_bits=8)
        array.write_row(0, 7)
        snap = array.snapshot()
        array.write_row(0, 9)
        assert snap == [7, 0]

    def test_load_at_offset(self):
        array = MemoryArray(rows=4, row_bits=8)
        array.load([1, 2], offset=1)
        assert [array.peek_row(r) for r in range(4)] == [0, 1, 2, 0]

    def test_load_counts_writes(self):
        array = MemoryArray(rows=4, row_bits=8)
        array.load([1, 2, 3])
        assert array.stats.writes == 3

    def test_load_overflow_rejected(self):
        array = MemoryArray(rows=2, row_bits=8)
        with pytest.raises(RamModeError):
            array.load([1, 2, 3])

    def test_load_bad_value_rejected(self):
        array = MemoryArray(rows=2, row_bits=8)
        with pytest.raises(RamModeError):
            array.load([300])


class TestInvalidationListeners:
    def test_multiple_listeners_all_notified_in_order(self):
        array = MemoryArray(rows=8, row_bits=8)
        first, second = [], []
        array.subscribe_invalidation(lambda s, n: first.append((s, n)))
        array.subscribe_invalidation(lambda s, n: second.append((s, n)))
        array.write_row(3, 1)
        array.load([1, 2], offset=5)
        array.fill(0)
        expected = [(3, 1), (5, 2), (0, 8)]
        assert first == expected
        assert second == expected

    def test_listeners_fire_per_mutation_not_per_read(self):
        array = MemoryArray(rows=4, row_bits=8)
        calls = []
        array.subscribe_invalidation(lambda s, n: calls.append((s, n)))
        array.read_row(0)
        array.peek_row(1)
        assert calls == []

    def test_late_subscriber_sees_only_later_mutations(self):
        array = MemoryArray(rows=4, row_bits=8)
        array.write_row(0, 1)
        calls = []
        array.subscribe_invalidation(lambda s, n: calls.append((s, n)))
        array.write_row(1, 1)
        assert calls == [(1, 1)]


class TestTracerHooks:
    def test_no_tracer_by_default(self):
        assert MemoryArray(rows=4, row_bits=8).tracer is None

    def test_read_and_charge_emit_bucket_read(self):
        from repro.telemetry.trace import Tracer

        array = MemoryArray(rows=4, row_bits=8)
        array.tracer = Tracer()
        array.read_row(2)
        events = array.tracer.events("bucket_read")
        assert [e.payload for e in events] == [{"row": 2}]
        assert array.stats.reads == 1

    def test_mutations_emit_invalidate_and_dma(self):
        from repro.telemetry.trace import Tracer

        array = MemoryArray(rows=8, row_bits=8)
        array.tracer = Tracer()
        array.write_row(1, 3)
        array.load([1, 2, 3], offset=4)
        assert [e.payload for e in array.tracer.events("mirror_invalidate")] \
            == [{"start": 1, "rows": 1}, {"start": 4, "rows": 3}]
        assert array.tracer.events("dma_burst")[0].payload == {
            "offset": 4,
            "rows": 3,
        }

    def test_tracer_and_listeners_compose(self):
        from repro.telemetry.trace import Tracer

        array = MemoryArray(rows=4, row_bits=8)
        calls = []
        array.subscribe_invalidation(lambda s, n: calls.append((s, n)))
        array.tracer = Tracer()
        array.write_row(0, 1)
        assert calls == [(0, 1)]
        assert array.tracer.summary()["mirror_invalidate"] == 1
