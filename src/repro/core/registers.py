"""Memory-mapped control registers and request/result ports.

Section 3.3: "Control registers are provided in the form of memory-mapped
peripheral registers to program various configuration options in our
design", and Section 3.2: "request and result ports can be assigned a
memory address, similar to memory-mapped I/O ports, so that ordinary load
and store instructions can be used to access CA-RAM.  For example, to
submit a request, an application will issue a store instruction at the
port address, passing the search key as the store data."

:class:`MemoryMappedCaRam` exposes exactly that device model over a
reconfigurable slice:

======================  =====  ==============================================
register                offset behavior
======================  =====  ==============================================
``REG_KEY_BYTES``       0x00   key size select (1/2/3/4/6/8/12/16, §3.3)
``REG_TERNARY``         0x08   ternary storage enable (halves slot count)
``REG_DATA_BITS``       0x10   payload width
``REG_MODE``            0x18   0 = CAM mode, 1 = RAM mode
``REG_STATUS``          0x20   bit0 result-valid, bit1 hit, bit2 multi-match
``REG_SEARCH_MASK``     0x28   don't-care bits applied to search keys
``REG_INSERT_DATA``     0x30   payload used by the next insert
``REG_RAM_ADDR``        0x38   row address for RAM-mode access
``PORT_SEARCH``         0x40   store = submit search; load = matched data
``PORT_INSERT``         0x48   store = insert key (with REG_INSERT_DATA)
``PORT_DELETE``         0x50   store = delete key
``PORT_RAM_DATA``       0x58   RAM-mode data window at REG_RAM_ADDR
======================  =====  ==============================================

Reconfiguring the key geometry (key size / ternary / data bits) clears the
array — the stored bit layout changes, exactly as in hardware.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.core.config import (
    PROTOTYPE_KEY_BYTES,
    SliceConfig,
    prototype_key_supported,
)
from repro.core.index import IndexGenerator
from repro.core.record import RecordFormat
from repro.core.results import SearchResult
from repro.core.slice import CARAMSlice
from repro.errors import ConfigurationError, LookupError_, RamModeError
from repro.hashing.bit_select import BitSelectHash

REG_KEY_BYTES = 0x00
REG_TERNARY = 0x08
REG_DATA_BITS = 0x10
REG_MODE = 0x18
REG_STATUS = 0x20
REG_SEARCH_MASK = 0x28
REG_INSERT_DATA = 0x30
REG_RAM_ADDR = 0x38
PORT_SEARCH = 0x40
PORT_INSERT = 0x48
PORT_DELETE = 0x50
PORT_RAM_DATA = 0x58

MODE_CAM = 0
MODE_RAM = 1

STATUS_RESULT_VALID = 1 << 0
STATUS_HIT = 1 << 1
STATUS_MULTI_MATCH = 1 << 2


class MemoryMappedCaRam:
    """A CA-RAM slice behind a memory-mapped register file.

    Args:
        index_bits: rows (``2**index_bits``) of the fixed array.
        row_bits: row width ``C`` of the fixed array.
        hash_factory: builds the index hash for a given row count;
            defaults to modulo over the key value.
        key_bytes / ternary / data_bits: initial geometry.

    ``hash_factory(rows, key_bits)`` builds the index hash after each
    reconfiguration; the default is bit selection over the key's low
    ``index_bits`` (pure wiring, and it lets masked searches enumerate
    their candidate rows).
    """

    def __init__(
        self,
        index_bits: int,
        row_bits: int,
        key_bytes: int = 4,
        ternary: bool = False,
        data_bits: int = 16,
        hash_factory=None,
    ) -> None:
        self._index_bits = index_bits
        self._row_bits = row_bits
        self._hash_factory = hash_factory or (
            lambda rows, key_bits: BitSelectHash(
                key_bits, range(key_bits - index_bits, key_bits)
            )
        )
        self._registers: Dict[int, int] = {
            REG_SEARCH_MASK: 0,
            REG_INSERT_DATA: 0,
            REG_RAM_ADDR: 0,
            REG_MODE: MODE_CAM,
        }
        self._status = 0
        self._result_data = 0
        self._slice: Optional[CARAMSlice] = None
        self._configure(key_bytes, ternary, data_bits)

    # ------------------------------------------------------------------
    # Geometry / reconfiguration
    # ------------------------------------------------------------------

    @property
    def slice(self) -> CARAMSlice:
        """The backing slice (test/introspection access)."""
        assert self._slice is not None
        return self._slice

    @property
    def key_bytes(self) -> int:
        return self._registers[REG_KEY_BYTES]

    @property
    def slots_per_bucket(self) -> int:
        return self.slice.config.slots_per_bucket

    def _configure(self, key_bytes: int, ternary: bool, data_bits: int) -> None:
        if not prototype_key_supported(key_bytes * 8):
            raise ConfigurationError(
                f"key size {key_bytes} bytes not supported; choose from "
                f"{PROTOTYPE_KEY_BYTES}"
            )
        record_format = RecordFormat(
            key_bits=key_bytes * 8, data_bits=data_bits, ternary=ternary
        )
        config = SliceConfig(
            index_bits=self._index_bits,
            row_bits=self._row_bits,
            record_format=record_format,
        )
        rows = config.rows
        if record_format.key_bits < self._index_bits:
            raise ConfigurationError(
                f"{record_format.key_bits}-bit keys cannot index "
                f"{rows} rows"
            )
        self._slice = CARAMSlice(
            config,
            IndexGenerator(
                self._hash_factory(rows, record_format.key_bits), rows
            ),
        )
        self._registers[REG_KEY_BYTES] = key_bytes
        self._registers[REG_TERNARY] = int(ternary)
        self._registers[REG_DATA_BITS] = data_bits
        self._status = 0
        self._result_data = 0

    # ------------------------------------------------------------------
    # Memory-mapped access
    # ------------------------------------------------------------------

    def load(self, address: int) -> int:
        """A load instruction at a device address."""
        if address == REG_STATUS:
            return self._status
        if address == PORT_SEARCH:
            # Reading the result port consumes the result.
            self._status &= ~STATUS_RESULT_VALID
            return self._result_data
        if address == PORT_RAM_DATA:
            self._require_mode(MODE_RAM)
            return self.slice.ram_read(self._registers[REG_RAM_ADDR])
        if address in self._registers:
            return self._registers[address]
        raise RamModeError(f"load from unmapped address {address:#x}")

    def store(self, address: int, value: int) -> None:
        """A store instruction at a device address."""
        if value < 0:
            raise ConfigurationError("stored values must be non-negative")
        if address == REG_KEY_BYTES:
            self._configure(
                value,
                bool(self._registers[REG_TERNARY]),
                self._registers[REG_DATA_BITS],
            )
        elif address == REG_TERNARY:
            self._configure(
                self._registers[REG_KEY_BYTES],
                bool(value),
                self._registers[REG_DATA_BITS],
            )
        elif address == REG_DATA_BITS:
            self._configure(
                self._registers[REG_KEY_BYTES],
                bool(self._registers[REG_TERNARY]),
                value,
            )
        elif address == REG_MODE:
            if value not in (MODE_CAM, MODE_RAM):
                raise ConfigurationError(f"invalid mode {value}")
            self._registers[REG_MODE] = value
        elif address in (REG_SEARCH_MASK, REG_INSERT_DATA, REG_RAM_ADDR):
            self._registers[address] = value
        elif address == PORT_SEARCH:
            self._require_mode(MODE_CAM)
            self._do_search(value)
        elif address == PORT_INSERT:
            self._require_mode(MODE_CAM)
            self.slice.insert(value, self._registers[REG_INSERT_DATA])
        elif address == PORT_DELETE:
            self._require_mode(MODE_CAM)
            try:
                self.slice.delete(value)
            except LookupError_:
                # Hardware reports via status, it does not trap.
                self._status &= ~STATUS_HIT
        elif address == PORT_RAM_DATA:
            self._require_mode(MODE_RAM)
            self.slice.ram_write(self._registers[REG_RAM_ADDR], value)
        else:
            raise RamModeError(f"store to unmapped address {address:#x}")

    def _require_mode(self, mode: int) -> None:
        if self._registers[REG_MODE] != mode:
            wanted = "RAM" if mode == MODE_RAM else "CAM"
            raise ConfigurationError(
                f"operation requires {wanted} mode (set REG_MODE)"
            )

    def _do_search(self, key: int) -> None:
        result: SearchResult = self.slice.search(
            key, self._registers[REG_SEARCH_MASK]
        )
        self._status = STATUS_RESULT_VALID
        if result.hit:
            self._status |= STATUS_HIT
        if result.multiple_matches:
            self._status |= STATUS_MULTI_MATCH
        self._result_data = result.data if result.hit else 0

    # ------------------------------------------------------------------
    # Driver-level convenience (what the §3.2 class library would wrap)
    # ------------------------------------------------------------------

    def search(self, key: int) -> Optional[int]:
        """Store to the search port, poll status, load the result."""
        self.store(PORT_SEARCH, key)
        status = self.load(REG_STATUS)
        if not status & STATUS_RESULT_VALID:  # pragma: no cover - immediate
            raise RamModeError("result not ready")
        data = self.load(PORT_SEARCH)
        return data if status & STATUS_HIT else None


__all__ = [
    "MemoryMappedCaRam",
    "REG_KEY_BYTES",
    "REG_TERNARY",
    "REG_DATA_BITS",
    "REG_MODE",
    "REG_STATUS",
    "REG_SEARCH_MASK",
    "REG_INSERT_DATA",
    "REG_RAM_ADDR",
    "PORT_SEARCH",
    "PORT_INSERT",
    "PORT_DELETE",
    "PORT_RAM_DATA",
    "MODE_CAM",
    "MODE_RAM",
    "STATUS_RESULT_VALID",
    "STATUS_HIT",
    "STATUS_MULTI_MATCH",
]
