"""Row guard: checkword maintenance, detect-or-correct reads, scrubbing."""

import pytest

from repro.core.stats import SearchStats
from repro.errors import CorruptionError
from repro.memory.array import MemoryArray
from repro.reliability.ecc import (
    ECC_CLEAN,
    ECC_CORRECTED,
    ECC_DETECTED,
    encode_row,
)
from repro.reliability.faults import FaultConfig, FaultInjector
from repro.reliability.guard import RowGuard

ROWS = 16
ROW_BITS = 96


def _guarded(config=None, **kwargs):
    array = MemoryArray(ROWS, ROW_BITS)
    injector = None
    if config is not None:
        injector = FaultInjector(config, ROWS, ROW_BITS)
    guard = RowGuard(array, injector=injector, **kwargs)
    return array, guard


class TestCheckwordMaintenance:
    def test_install_covers_existing_content(self):
        array = MemoryArray(ROWS, ROW_BITS)
        array.write_row(3, 0xDEAD)
        guard = RowGuard(array)
        assert guard.checkwords[3] == encode_row(0xDEAD, ROW_BITS)

    def test_write_updates_checkword(self):
        array, guard = _guarded()
        array.write_row(5, 0xBEEF)
        assert guard.checkwords[5] == encode_row(0xBEEF, ROW_BITS)

    def test_load_vectorized_encode(self):
        array, guard = _guarded()
        rows = [7, 0x123456789, (1 << ROW_BITS) - 1]
        array.load(rows, 2)
        assert guard.checkwords[2:5] == [
            encode_row(v, ROW_BITS) for v in rows
        ]

    def test_fill_resets_all(self):
        array, guard = _guarded()
        array.write_row(1, 99)
        array.fill(0)
        assert guard.checkwords == [encode_row(0, ROW_BITS)] * ROWS


class TestReadPath:
    def test_clean_read_passes_through(self):
        array, guard = _guarded()
        array.write_row(0, 0xABC)
        assert array.read_row(0) == 0xABC

    def test_corruption_corrected_and_written_back(self):
        array, guard = _guarded()
        array.write_row(0, 0xABC)
        array._data[0] ^= 1 << 7  # cosmic ray
        assert array.read_row(0) == 0xABC
        assert array._data[0] == 0xABC  # write-back healed the cell
        assert guard.stats.corrections == 1

    def test_double_flip_raises(self):
        array, guard = _guarded()
        array.write_row(0, 0xABC)
        array._data[0] ^= 0b11 << 4
        with pytest.raises(CorruptionError) as info:
            array.read_row(0)
        assert info.value.row == 0
        assert guard.stats.detections == 1

    def test_flips_in_distinct_segments_corrected(self):
        array, guard = _guarded()
        array.write_row(0, 0xABC)
        array._data[0] ^= (1 << 3) | (1 << 70)  # two segments
        assert array.read_row(0) == 0xABC

    def test_soft_flips_persist_until_corrected(self):
        """A sampled read flip is persisted into the array, and the read
        that samples it corrects it and writes the correction back."""
        config = FaultConfig(seed=5, bit_flip_rate=0.02)
        array, guard = _guarded(config)
        array.write_row(0, 0xF00)
        for _ in range(200):
            try:
                assert array.read_row(0) == 0xF00
            except CorruptionError:
                break  # a double flip in one segment: detected, not returned
            assert array._data[0] == 0xF00
        assert guard.stats.faults_injected, (
            "no fault in 200 reads at rate 0.02 x 96 bits"
        )
        assert guard.stats.corrections or guard.stats.detections

    def test_dead_row_always_raises(self):
        config = FaultConfig(dead_rows=(4,))
        array, guard = _guarded(config)
        array.write_row(4, 0x1)
        for _ in range(3):
            with pytest.raises(CorruptionError):
                array.read_row(4)

    def test_ecc_off_returns_silently_wrong_data(self):
        config = FaultConfig(dead_rows=(4,))
        array, guard = _guarded(config, ecc=False)
        array.write_row(4, 0)
        assert array.read_row(4) != 0  # the overlay leaks through


class TestStuckCells:
    def test_stuck_cell_correctable_on_every_read(self):
        config = FaultConfig(stuck_cells=((2, 9, 1),))
        array, guard = _guarded(config)
        array.write_row(2, 0)
        assert array._data[2] == 1 << 9
        for _ in range(3):
            assert array.read_row(2) == 0
        # Write-back cannot heal a stuck cell: the bit re-sticks.
        assert array._data[2] == 1 << 9
        assert guard.stats.corrections == 3


class TestScrub:
    def test_scrub_row_repairs(self):
        array, guard = _guarded()
        array.write_row(0, 0x77)
        array._data[0] ^= 1 << 2
        assert guard.scrub_row(0) == ECC_CORRECTED
        assert array._data[0] == 0x77
        assert guard.scrub_row(0) == ECC_CLEAN

    def test_scrub_row_flags_dead(self):
        config = FaultConfig(dead_rows=(1,))
        array, guard = _guarded(config)
        assert guard.scrub_row(1) == ECC_DETECTED

    def test_recheck_write_read_back(self):
        config = FaultConfig(stuck_cells=((2, 9, 1),))
        array, guard = _guarded(config)
        array.write_row(2, 0)
        assert guard.scrub_row(2) == ECC_CORRECTED
        # The repair did not hold: the cell is stuck.
        assert guard.recheck(2) == ECC_CORRECTED
        # A transient flip, by contrast, stays healed.
        array.write_row(3, 0x55)
        array._data[3] ^= 1 << 1
        assert guard.scrub_row(3) == ECC_CORRECTED
        assert guard.recheck(3) == ECC_CLEAN


class TestStatsWiring:
    def test_events_land_in_search_stats(self):
        array, guard = _guarded()
        stats = SearchStats()
        guard.search_stats = stats
        array.write_row(0, 0xAA)
        array._data[0] ^= 1 << 3
        array.read_row(0)
        array._data[0] ^= 0b11
        with pytest.raises(CorruptionError):
            array.read_row(0)
        assert stats.ecc_corrections == 1
        assert stats.corruption_detections == 1

    def test_quarantine_resets_row_state(self):
        config = FaultConfig(dead_rows=(4,))
        array, guard = _guarded(config)
        guard.corrected_counts[4] = 7
        guard.quarantine(4)
        assert 4 in guard.quarantined
        assert 4 not in guard.corrected_counts
        assert not guard.injector.is_dead(4)
