"""The CA-RAM class library (Section 3.2).

The paper enumerates the operations such a library must provide:
"initializing an empty database, allocating/deallocating CA-RAM space
(similar to malloc()/free()), defining slice membership and role (e.g.,
use a slice as an overflow area), defining the hash function, declaring a
record type and its format, enabling ternary searching, defining exception
conditions, selecting operating modes, and setting power management
policies."

:class:`CaRamLibrary` implements all of them over a fixed pool of physical
slices:

* ``allocate_database`` — claim slices, define record format / hash /
  arrangement / overflow role, get a :class:`DatabaseHandle`;
* ``allocate_scratchpad`` — claim slices in RAM mode (non-searchable
  on-chip memory, "applications which do not utilize the lookup capability
  of CA-RAM can still benefit");
* ``free`` — return slices to the pool;
* exception conditions — handles accept callbacks for multiple-match and
  capacity events;
* power management — a per-library policy fed into
  :class:`~repro.cost.powermgmt.SubsystemPowerModel`.
"""

from __future__ import annotations

import enum
from typing import Callable, Dict, List, Optional, Set

from repro.core.bucket import SlotPriority
from repro.core.composer import ComposedDatabase, OverflowKind, compose_database
from repro.core.config import Arrangement, BucketGeometry, SliceConfig
from repro.core.index import KeyInput
from repro.core.record import Record, RecordFormat
from repro.core.results import SearchResult
from repro.core.subsystem import CARAMSubsystem
from repro.cost.powermgmt import PowerPolicy, SubsystemPowerModel
from repro.errors import CapacityError, ConfigurationError
from repro.hashing.base import HashFunction, ModuloHash
from repro.hashing.universal import MultiplicativeHash
from repro.memory.bank import BankedMemory
from repro.memory.timing import MemoryTiming, SRAM_TIMING


class ExceptionEvent(enum.Enum):
    """Exception conditions a handle can be configured to report."""

    MULTIPLE_MATCH = "multiple-match"
    CAPACITY = "capacity"
    MISS = "miss"


ExceptionHandler = Callable[[ExceptionEvent, object], None]


class DatabaseHandle:
    """A searchable database: the object-like access surface of §3.2.

    Obtained from :meth:`CaRamLibrary.allocate_database`; all operations go
    through the handle, never the raw slices.
    """

    def __init__(
        self,
        library: "CaRamLibrary",
        composed: ComposedDatabase,
        slice_ids: List[int],
    ) -> None:
        self._library = library
        self._composed = composed
        self._slice_ids = slice_ids
        self._handlers: Dict[ExceptionEvent, ExceptionHandler] = {}
        self._closed = False

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def name(self) -> str:
        return self._composed.name

    @property
    def slice_ids(self) -> List[int]:
        """Physical slices backing this database (membership, §3.2)."""
        return list(self._slice_ids)

    @property
    def record_count(self) -> int:
        self._check_open()
        return self._composed.main.record_count

    @property
    def load_factor(self) -> float:
        self._check_open()
        return self._composed.main.load_factor

    @property
    def stats(self):
        self._check_open()
        return self._composed.main.stats

    @property
    def overflow_entry_count(self) -> int:
        self._check_open()
        return self._composed.overflow_entry_count

    def _check_open(self) -> None:
        if self._closed:
            raise ConfigurationError(
                f"database {self.name!r} has been freed"
            )

    # ------------------------------------------------------------------
    # Exception conditions
    # ------------------------------------------------------------------

    def on_exception(
        self, event: ExceptionEvent, handler: ExceptionHandler
    ) -> None:
        """Register a callback for an exception condition."""
        self._handlers[event] = handler

    def _raise_event(self, event: ExceptionEvent, payload: object) -> None:
        handler = self._handlers.get(event)
        if handler is not None:
            handler(event, payload)

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------

    def insert(self, key: KeyInput, data: int = 0) -> int:
        """Insert a record; diverts to the overflow area when configured.

        A capacity failure triggers the CAPACITY exception handler before
        re-raising.
        """
        self._check_open()
        try:
            return self._library._subsystem.insert(self.name, key, data)
        except CapacityError as error:
            self._raise_event(ExceptionEvent.CAPACITY, error)
            raise

    def search(self, key: KeyInput, search_mask: int = 0) -> SearchResult:
        """Search the database (and its overflow area, in parallel)."""
        self._check_open()
        result = self._library._subsystem.search(self.name, key, search_mask)
        if result.multiple_matches:
            self._raise_event(ExceptionEvent.MULTIPLE_MATCH, result)
        if not result.hit:
            self._raise_event(ExceptionEvent.MISS, key)
        return result

    def lookup(self, key: KeyInput, search_mask: int = 0) -> Optional[int]:
        """Convenience: the matched record's data, or None."""
        return self.search(key, search_mask).data

    def __contains__(self, key: KeyInput) -> bool:
        return self.search(key).hit

    def delete(self, key: KeyInput) -> int:
        """Remove a key from the database, its overflow area included."""
        self._check_open()
        return self._composed.main.delete(key)

    def scan(self, search_key: int = 0, search_mask: Optional[int] = None):
        """Massive data evaluation over the main group (§1 / §3.2)."""
        self._check_open()
        return self._composed.main.scan(search_key, search_mask)

    def update_where(
        self,
        search_key: int,
        search_mask: int,
        transform: Callable[[Record], int],
    ) -> int:
        """Massive modification over the main group (§1 / §3.2)."""
        self._check_open()
        return self._composed.main.update_where(
            search_key, search_mask, transform
        )

    def close(self) -> None:
        """Free the database and return its slices to the pool."""
        if not self._closed:
            self._library._release(self)
            self._closed = True


class ScratchpadHandle:
    """Slices operated purely in RAM mode (§3.2's on-chip memory use)."""

    def __init__(
        self,
        library: "CaRamLibrary",
        name: str,
        memory: BankedMemory,
        slice_ids: List[int],
    ) -> None:
        self._library = library
        self.name = name
        self._memory = memory
        self._slice_ids = slice_ids
        self._closed = False

    @property
    def rows(self) -> int:
        return self._memory.rows

    @property
    def row_bits(self) -> int:
        return self._memory.row_bits

    @property
    def slice_ids(self) -> List[int]:
        return list(self._slice_ids)

    def _check_open(self) -> None:
        if self._closed:
            raise ConfigurationError(
                f"scratchpad {self.name!r} has been freed"
            )

    def read(self, row: int) -> int:
        self._check_open()
        return self._memory.read_row(row)

    def write(self, row: int, value: int) -> None:
        self._check_open()
        self._memory.write_row(row, value)

    def close(self) -> None:
        if not self._closed:
            self._library._release(self)
            self._closed = True


class CaRamLibrary:
    """Manages a pool of physical CA-RAM slices (§3.2 class library).

    Args:
        slice_count: physical slices available.
        index_bits: rows per slice (``2**index_bits``).
        row_bits: row width ``C`` of every slice.
        timing: device timing shared by the pool.
        power_policy: subsystem power-management policy.
    """

    def __init__(
        self,
        slice_count: int,
        index_bits: int,
        row_bits: int,
        timing: MemoryTiming = SRAM_TIMING,
        power_policy: PowerPolicy = PowerPolicy.BANK_SELECT,
    ) -> None:
        if slice_count <= 0:
            raise ConfigurationError(
                f"slice_count must be positive: {slice_count}"
            )
        self._slice_count = slice_count
        self._index_bits = index_bits
        self._row_bits = row_bits
        self._timing = timing
        self.power_policy = power_policy
        self._free: Set[int] = set(range(slice_count))
        self._subsystem = CARAMSubsystem()
        self._allocations: Dict[str, object] = {}

    # ------------------------------------------------------------------
    # Pool state
    # ------------------------------------------------------------------

    @property
    def total_slices(self) -> int:
        return self._slice_count

    @property
    def free_slices(self) -> int:
        return len(self._free)

    @property
    def allocation_names(self) -> List[str]:
        return sorted(self._allocations)

    def _claim(self, count: int) -> List[int]:
        if count < 1:
            raise ConfigurationError(
                f"an allocation needs at least one slice, not {count}"
            )
        if count > len(self._free):
            raise CapacityError(
                f"requested {count} slices but only {len(self._free)} free"
            )
        claimed = sorted(self._free)[:count]
        self._free.difference_update(claimed)
        return claimed

    def _release(self, handle: object) -> None:
        name = handle.name
        if name not in self._allocations:
            return
        del self._allocations[name]
        self._free.update(handle.slice_ids)
        if isinstance(handle, DatabaseHandle):
            self._subsystem.remove_group(name)

    def _check_name(self, name: str) -> None:
        if name in self._allocations:
            raise ConfigurationError(f"allocation {name!r} already exists")

    # ------------------------------------------------------------------
    # Allocation (malloc/free)
    # ------------------------------------------------------------------

    def allocate_database(
        self,
        name: str,
        record_format: RecordFormat,
        slice_count: int,
        arrangement: Arrangement = Arrangement.VERTICAL,
        hash_function: Optional[HashFunction] = None,
        overflow: OverflowKind = OverflowKind.NONE,
        tcam_entries: int = 4096,
        slot_priority: Optional[SlotPriority] = None,
    ) -> DatabaseHandle:
        """Create a searchable database over freshly claimed slices.

        ``hash_function`` defaults to multiplicative hashing over the
        bucket count (modulo for non-power-of-two counts).  Enabling
        ternary search is part of the record format, and sorted buckets a
        ``slot_priority`` (:data:`~repro.core.bucket.SlotPriority`).
        """
        self._check_name(name)
        extra = 1 if overflow is OverflowKind.CA_RAM_SLICE else 0
        slice_ids = self._claim(slice_count + extra)
        try:
            config = SliceConfig(
                index_bits=self._index_bits,
                row_bits=self._row_bits,
                record_format=record_format,
                timing=self._timing,
            )
            buckets = BucketGeometry(
                arrangement, config.rows, slice_count, config.slots_per_bucket
            ).bucket_count
            if hash_function is None:
                if buckets & (buckets - 1) == 0:
                    hash_function = MultiplicativeHash(buckets)
                else:
                    hash_function = ModuloHash(buckets)
            composed = compose_database(
                self._subsystem,
                name=name,
                config=config,
                slice_count=slice_count,
                arrangement=arrangement,
                hash_function=hash_function,
                overflow=overflow,
                tcam_entries=tcam_entries,
                slot_priority=slot_priority,
            )
        except Exception:
            self._free.update(slice_ids)
            raise
        handle = DatabaseHandle(self, composed, slice_ids)
        self._allocations[name] = handle
        return handle

    def allocate_scratchpad(self, name: str, slice_count: int) -> ScratchpadHandle:
        """Claim slices as plain RAM-mode on-chip memory."""
        self._check_name(name)
        slice_ids = self._claim(slice_count)
        try:
            memory = BankedMemory(
                rows=(1 << self._index_bits) * slice_count,
                row_bits=self._row_bits,
                bank_count=slice_count,
                timing=self._timing,
            )
        except Exception:
            self._free.update(slice_ids)
            raise
        handle = ScratchpadHandle(self, name, memory, slice_ids)
        self._allocations[name] = handle
        return handle

    def free(self, name: str) -> None:
        """Release an allocation by name (free())."""
        if name not in self._allocations:
            raise ConfigurationError(f"no allocation named {name!r}")
        handle = self._allocations[name]
        handle.close()

    # ------------------------------------------------------------------
    # Power management
    # ------------------------------------------------------------------

    def power_breakdown(self, lookups_per_second: float, amal: float = 1.0):
        """Average power under the library's policy at a lookup rate."""
        groups = [
            handle._composed.main
            for handle in self._allocations.values()
            if isinstance(handle, DatabaseHandle)
        ]
        if not groups:
            raise ConfigurationError("no databases allocated")
        model = SubsystemPowerModel(groups)
        return model.breakdown(self.power_policy, lookups_per_second, amal)


__all__ = [
    "ExceptionEvent",
    "DatabaseHandle",
    "ScratchpadHandle",
    "CaRamLibrary",
]
