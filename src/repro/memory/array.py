"""Row-organized bit-addressable memory array.

This is the dense storage a CA-RAM slice is built on (Figure 3 of the paper):
``2**R`` rows of ``C`` bits each.  The array itself is content-agnostic — it
only knows rows of bits.  Bucket/record structure is layered on top by
:mod:`repro.core.bucket`.  The array also serves the "RAM mode" of Section
3.2 directly: it is an ordinary address-in/data-out memory.

Rows are stored as Python integers (arbitrary-precision bit vectors, MSB
first) which keeps sub-field extraction exact for any row width, including
the paper's 12,288-bit trigram rows.  Access counters are kept so behavioral
experiments can report memory-access statistics without any instrumentation
in calling code.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Optional

from repro.errors import ConfigurationError, RamModeError
from repro.memory.timing import MemoryTiming, SRAM_TIMING
from repro.utils.bits import extract_bits, mask_of

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.telemetry.trace import Tracer


@dataclass
class ArrayStats:
    """Access counters for one memory array."""

    reads: int = 0
    writes: int = 0

    def reset(self) -> None:
        self.reads = 0
        self.writes = 0

    @property
    def total_accesses(self) -> int:
        return self.reads + self.writes

    def as_dict(self) -> Dict[str, int]:
        """Structured export (the telemetry provider contract)."""
        return {
            "reads": self.reads,
            "writes": self.writes,
            "total_accesses": self.total_accesses,
        }


class MemoryArray:
    """A ``rows x row_bits`` memory array with read/write row access.

    Args:
        rows: number of rows (the paper's ``2**R``; any positive count is
            accepted so partial arrays can model overflow areas).
        row_bits: row width ``C`` in bits.
        timing: device timing; defaults to single-cycle SRAM.
    """

    def __init__(
        self,
        rows: int,
        row_bits: int,
        timing: MemoryTiming = SRAM_TIMING,
    ) -> None:
        if rows <= 0:
            raise ConfigurationError(f"rows must be positive, got {rows}")
        if row_bits <= 0:
            raise ConfigurationError(f"row_bits must be positive, got {row_bits}")
        self._rows = rows
        self._row_bits = row_bits
        self._timing = timing
        self._data: List[int] = [0] * rows
        self._invalidation_listeners: List[Callable[[int, int], None]] = []
        self.stats = ArrayStats()
        #: Optional structured-event tracer; ``None`` (the default) keeps
        #: the hot paths at a single attribute check.
        self.tracer: Optional["Tracer"] = None
        #: Optional :class:`~repro.reliability.guard.RowGuard` intercepting
        #: reads/writes for fault injection + ECC; ``None`` (the default)
        #: keeps every access at a single attribute check.
        self.guard = None

    # ------------------------------------------------------------------
    # Content-change notification (decoded-mirror invalidation)
    # ------------------------------------------------------------------

    def subscribe_invalidation(self, listener: Callable[[int, int], None]) -> None:
        """Register ``listener(start_row, row_count)`` to be called whenever
        row content changes (write, bulk load, fill).

        Decoded mirrors (:mod:`repro.memory.mirror`) subscribe here so they
        can re-decode only the rows that actually changed.
        """
        self._invalidation_listeners.append(listener)

    def _invalidate(self, start_row: int, row_count: int) -> None:
        if self.tracer is not None:
            self.tracer.emit(
                "mirror_invalidate", start=start_row, rows=row_count
            )
        for listener in self._invalidation_listeners:
            listener(start_row, row_count)

    # ------------------------------------------------------------------
    # Geometry
    # ------------------------------------------------------------------

    @property
    def rows(self) -> int:
        """Number of rows."""
        return self._rows

    @property
    def row_bits(self) -> int:
        """Row width in bits (the paper's ``C``)."""
        return self._row_bits

    @property
    def capacity_bits(self) -> int:
        """Total storage in bits."""
        return self._rows * self._row_bits

    @property
    def timing(self) -> MemoryTiming:
        """Device timing of this array."""
        return self._timing

    # ------------------------------------------------------------------
    # Row access (RAM mode)
    # ------------------------------------------------------------------

    def _check_row(self, row: int) -> None:
        if not 0 <= row < self._rows:
            raise RamModeError(f"row {row} out of range [0, {self._rows})")

    def _check_field(self, msb_offset: int, length: int) -> None:
        if length <= 0:
            raise RamModeError(f"field length must be positive: {length}")
        if msb_offset < 0 or msb_offset + length > self._row_bits:
            raise RamModeError(
                f"field [{msb_offset}, {msb_offset + length}) exceeds the "
                f"{self._row_bits}-bit row"
            )

    def read_row(self, row: int) -> int:
        """Read a full row as an MSB-first bit vector (integer).

        With a reliability guard installed, the read passes through fault
        injection and the ECC check — it returns corrected data or raises
        :class:`~repro.errors.CorruptionError`, never silently wrong bits.
        """
        self._check_row(row)
        self.stats.reads += 1
        if self.tracer is not None:
            self.tracer.emit("bucket_read", row=row)
        value = self._data[row]
        if self.guard is not None:
            value = self.guard.on_read(row, value)
        return value

    def write_row(self, row: int, value: int) -> None:
        """Overwrite a full row."""
        self._check_row(row)
        if value < 0 or value > mask_of(self._row_bits):
            raise RamModeError(
                f"value does not fit in a {self._row_bits}-bit row"
            )
        self.stats.writes += 1
        if self.guard is not None:
            value = self.guard.on_write(row, value)
        self._data[row] = value
        self._invalidate(row, 1)

    def read_field(self, row: int, msb_offset: int, length: int) -> int:
        """Read ``length`` bits of a row starting ``msb_offset`` from the MSB.

        Counts as one row read (a real array always fetches the whole row).
        """
        self._check_field(msb_offset, length)
        value = self.read_row(row)
        return extract_bits(value, self._row_bits, msb_offset, length)

    def write_field(self, row: int, msb_offset: int, length: int, value: int) -> None:
        """Read-modify-write ``length`` bits of a row.

        Counts as one read plus one write.
        """
        self._check_field(msb_offset, length)
        if value < 0 or value > mask_of(length):
            raise RamModeError(f"field value does not fit in {length} bits")
        old = self.read_row(row)
        shift = self._row_bits - msb_offset - length
        cleared = old & ~(mask_of(length) << shift)
        self.write_row(row, cleared | (value << shift))

    def peek_row(self, row: int) -> int:
        """Read a row without touching the access counters (for tests/debug)."""
        self._check_row(row)
        return self._data[row]

    def verified_peek_row(self, row: int) -> int:
        """Uncounted row read through the ECC check when a guard is
        installed (plain :meth:`peek_row` otherwise).

        Maintenance paths (insert/delete read-modify-writes) use this so
        they never fold silently corrupted row content back into a fresh
        checkword.
        """
        if self.guard is not None:
            return self.guard.verified_peek(row)
        self._check_row(row)
        return self._data[row]

    def fill(self, value: int = 0) -> None:
        """Initialize every row to ``value`` without counting accesses."""
        if value < 0 or value > mask_of(self._row_bits):
            raise RamModeError(f"value does not fit in a {self._row_bits}-bit row")
        self._data = [value] * self._rows
        if self.guard is not None:
            self.guard.on_fill(value)
        self._invalidate(0, self._rows)

    def snapshot(self) -> List[int]:
        """Return a copy of all rows (for save/restore and DMA-style copies)."""
        return list(self._data)

    def load(self, rows: List[int], offset: int = 0) -> None:
        """Bulk-load rows starting at ``offset`` (models the paper's DMA
        construction of a pre-hashed database in RAM mode)."""
        if offset < 0 or offset + len(rows) > self._rows:
            raise RamModeError(
                f"cannot load {len(rows)} rows at offset {offset} "
                f"into a {self._rows}-row array"
            )
        limit = mask_of(self._row_bits)
        # Validate the whole image before mutating anything, so a bad row
        # cannot leave the array partially loaded.
        for i, value in enumerate(rows):
            if value < 0 or value > limit:
                raise RamModeError(f"row {offset + i} value does not fit")
        if self.guard is not None:
            rows = self.guard.on_load(offset, rows)
        for i, value in enumerate(rows):
            self._data[offset + i] = value
        self.stats.writes += len(rows)
        if self.tracer is not None:
            self.tracer.emit("dma_burst", offset=offset, rows=len(rows))
        self._invalidate(offset, len(rows))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MemoryArray(rows={self._rows}, row_bits={self._row_bits}, "
            f"tech={self._timing.technology.value})"
        )


__all__ = ["MemoryArray", "ArrayStats"]
