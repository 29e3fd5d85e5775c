"""The CA-RAM slice: index generator + memory array + match processors.

"A CA-RAM slice takes as an input a search key and outputs the result of a
lookup.  Its main components include an index generator, a memory array
(either SRAM or DRAM), and P match processors." (Section 3.1, Figure 3)

A lone slice is a slice group of one (Section 3.2 builds every database
from slices), so :class:`CARAMSlice` is a one-array
:class:`~repro.core.subsystem.SliceGroup`: search, insert/delete, bulk
load, batch lookup, scan/update, reliability, telemetry and rebuild are the
group's.  The slice adds only what a single array has — construction from
an :class:`~repro.core.index.IndexGenerator`, its :attr:`memory`, RAM mode
(Section 3.2: the slice doubles as plain addressable memory, including
DMA-style loading of a pre-hashed database) and the cycle latency of one
lookup.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.errors import ConfigurationError
from repro.core.config import Arrangement, SliceConfig
from repro.core.index import IndexGenerator
from repro.core.probing import ProbingPolicy
from repro.core.record import Record
from repro.core.results import SearchResult
from repro.core.subsystem import SliceGroup
from repro.memory.array import MemoryArray


class CARAMSlice(SliceGroup):
    """One CA-RAM slice (Figure 3): a one-array :class:`SliceGroup` named
    ``slice``, whose buckets are its rows.

    Args:
        config: slice geometry.
        index_generator: the hash front-end; must address ``config.rows``.
        probing: overflow policy (the paper uses linear probing).
        slot_priority: optional record-priority function; when given, bucket
            slots are kept sorted descending so the priority encoder returns
            the highest-priority match (LPM ordering).
        account_reads, batch_chunk_size: as for :class:`SliceGroup`.
    """

    def __init__(
        self,
        config: SliceConfig,
        index_generator: IndexGenerator,
        probing: Optional[ProbingPolicy] = None,
        slot_priority: Optional[Callable[[Record], float]] = None,
        account_reads: bool = False,
        batch_chunk_size: Optional[int] = None,
    ) -> None:
        super().__init__(
            config,
            1,
            Arrangement.VERTICAL,
            index_generator.hash_function,
            probing=probing,
            slot_priority=slot_priority,
            name="slice",
            account_reads=account_reads,
            batch_chunk_size=batch_chunk_size,
        )
        self._index = index_generator

    @property
    def memory(self) -> MemoryArray:
        return self._arrays[0]

    def search_latency_cycles(self, result: SearchResult) -> int:
        """Cycles one lookup took: memory accesses plus matching passes.

        The first matching pass of each access overlaps the *next* memory
        access in a pipelined design; this conservative model charges
        ``T_mem + passes`` per bucket visited (Section 3.4's
        ``T_mem + T_match`` with multi-pass matching).
        """
        per_access = (
            self._config.timing.access_cycles + self._config.match_passes
        )
        return result.bucket_accesses * per_access

    # ------------------------------------------------------------------
    # RAM mode (Section 3.2)
    # ------------------------------------------------------------------

    def ram_read(self, row: int) -> int:
        """Address-based row read — the slice as plain on-chip memory."""
        return self.memory.read_row(row)

    def ram_write(self, row: int, value: int) -> None:
        """Address-based row write.

        The record count tracks the occupancy delta of the overwritten row,
        so CAM-mode bookkeeping survives RAM-mode writes.
        """
        removed = self._layout.occupancy(self.memory.peek_row(row))
        self.memory.write_row(row, value)
        self._record_count += self._layout.occupancy(value) - removed

    def dma_load(
        self,
        rows: List[int],
        offset: int = 0,
        record_count: Optional[int] = None,
    ) -> None:
        """Bulk-load pre-packed rows ("a series of memory copy operations or
        ... an existing DMA mechanism", Section 3.2).

        The record count is updated incrementally from the valid bits of the
        overwritten and incoming rows — no full-database re-scan.  A caller
        that already knows the incoming image's occupant count may pass
        ``record_count`` to skip the per-row occupancy scans; this shortcut
        requires a full-array load so the displaced count is exactly the
        current record count.
        """
        if record_count is not None:
            if offset != 0 or len(rows) != self._config.rows:
                raise ConfigurationError(
                    "record_count shortcut requires a full-array load"
                )
            self.memory.load(rows, offset)
            self._record_count = record_count
            return
        removed = sum(
            self._layout.occupancy(self.memory.peek_row(offset + i))
            for i in range(len(rows))
        )
        self.memory.load(rows, offset)
        added = sum(self._layout.occupancy(value) for value in rows)
        self._record_count += added - removed


__all__ = ["CARAMSlice"]
