"""Slice configuration: the design parameters of Section 3.1.

A slice is defined by three key numbers the paper sweeps throughout the
evaluation — ``R`` (index bits, so ``2**R`` rows), ``C`` (row width in
bits), and ``N`` (key width) — plus the record format (data bits, ternary),
auxiliary-field width, backing-store technology, and probing policy.

:class:`SliceConfig` validates the combination and derives the quantities
the tables report: slots per bucket ``S``, capacity ``M*S``, and the load
factor for a given record count.  :class:`BucketGeometry` says where the
buckets of a group of such slices live (Section 3.2).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from typing import List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.core.bucket import BucketLayout
from repro.core.record import RecordFormat
from repro.memory.timing import MemoryTiming, SRAM_TIMING

#: Key sizes supported by the prototype implementation (Section 3.3):
#: "we limited the key size to be 1, 2, 3, 4, 6, 8, 12, and 16 bytes."
PROTOTYPE_KEY_BYTES = (1, 2, 3, 4, 6, 8, 12, 16)


class Arrangement(enum.Enum):
    """How multiple slices combine into one database (Section 3.2).

    * HORIZONTAL — wider buckets: the same row index across all slices forms
      one logical bucket, fetched in parallel.
    * VERTICAL — more rows: slice row spaces are concatenated.
    """

    HORIZONTAL = "horizontal"
    VERTICAL = "vertical"


@dataclass(frozen=True)
class BucketGeometry:
    """Where each logical bucket of a slice group lives (Section 3.2).

    The one place that branches on :class:`Arrangement`.  Buckets,
    slots and rows are numbered from 0; every ``(slice, row)`` list is
    in slot order, and a bucket's first row holds its reach field.

    * VERTICAL — the row spaces concatenate: bucket ``b`` is row
      ``b % rows`` of slice ``b // rows``, one slice wide.
    * HORIZONTAL — bucket ``b`` is row ``b`` of every slice, fetched in
      parallel, its slots concatenated in slice order.

    Attributes:
        arrangement: how the slices combine.
        rows: rows per slice (``2**R``).
        slices: number of slices ``k``.
        slots: record slots per row of one slice.
    """

    arrangement: Arrangement
    rows: int
    slices: int
    slots: int

    def __post_init__(self) -> None:
        if self.slices <= 0:
            raise ConfigurationError(
                f"slice_count must be positive: {self.slices}"
            )

    @property
    def _wide(self) -> bool:
        return self.arrangement is Arrangement.HORIZONTAL

    @property
    def bucket_count(self) -> int:
        """Logical buckets ``M``: rows stack vertically, merge horizontally."""
        return self.rows if self._wide else self.rows * self.slices

    @property
    def slots_per_bucket(self) -> int:
        """Logical slots ``S`` per bucket."""
        return self.slots * self.slices if self._wide else self.slots

    @property
    def capacity_records(self) -> int:
        """``M * S``: every slot of every slice, whatever the arrangement."""
        return self.rows * self.slices * self.slots

    @property
    def rows_fetched(self) -> int:
        """Physical rows fetched by one logical bucket access."""
        return self.slices if self._wide else 1

    def rows_of(self, bucket: int) -> List[Tuple[int, int]]:
        """The ``(slice, row)`` pairs composing one bucket, in slot order."""
        if not 0 <= bucket < self.bucket_count:
            raise ConfigurationError(
                f"bucket {bucket} out of range [0, {self.bucket_count})"
            )
        if self._wide:
            return [(s, bucket) for s in range(self.slices)]
        return [(bucket // self.rows, bucket % self.rows)]

    def bucket_of(self, slice_id: int, row):
        """The bucket a physical row belongs to (``row`` may be an array)."""
        return row if self._wide else slice_id * self.rows + row

    def slot_offset(self, slice_id: int) -> int:
        """The bucket slot at which slice ``slice_id``'s row begins."""
        return slice_id * self.slots if self._wide else 0

    def holds_reach(self, slice_id: int) -> bool:
        """Whether the rows of slice ``slice_id`` carry a reach field."""
        return slice_id == 0 or not self._wide

    def place(self, buckets, slots):
        """Array form of the slot placement: logical ``(bucket, slot)``
        arrays to physical ``(slice, row, slot)`` arrays."""
        if self._wide:
            return slots // self.slots, buckets, slots % self.slots
        return buckets // self.rows, buckets % self.rows, slots

    def rows_by_slice(self, buckets) -> List:
        """Array form of :meth:`rows_of` for a batch of bucket fetches:
        per slice, the rows those fetches read from it, in fetch order."""
        if self._wide:
            return [buckets] * self.slices
        owner = buckets // self.rows
        return [buckets[owner == s] % self.rows for s in range(self.slices)]


@dataclass(frozen=True)
class SliceConfig:
    """Full geometry of one CA-RAM slice.

    Attributes:
        index_bits: ``R``; the slice has ``2**R`` rows.
        row_bits: ``C``, the row width in bits.
        record_format: key/data/ternary layout of one record.
        aux_bits: auxiliary (reach) field width; 0 disables extended-search
            bookkeeping.
        slots_override: cap the slot count below what physically fits.
        timing: backing-store device timing (SRAM default).
        match_processors: the paper's ``P``.  "It is desirable that
            P = ceil(C/N); however ... it is possible that P != ceil(C/N).
            When ceil(C/N) <= P, matching of all the keys can be done in
            one step.  Otherwise, necessary matching actions can be
            divided into a few pipelined actions."  None (default) means
            one per slot — single-pass matching.
    """

    index_bits: int
    row_bits: int
    record_format: RecordFormat
    aux_bits: int = 8
    slots_override: Optional[int] = None
    timing: MemoryTiming = SRAM_TIMING
    match_processors: Optional[int] = None

    def __post_init__(self) -> None:
        if not 1 <= self.index_bits <= 31:
            raise ConfigurationError(
                f"index_bits must be in [1, 31]: {self.index_bits}"
            )
        if self.match_processors is not None and self.match_processors <= 0:
            raise ConfigurationError(
                f"match_processors must be positive: {self.match_processors}"
            )
        # Constructing the layout validates that at least one slot fits.
        _ = self.layout

    @property
    def rows(self) -> int:
        """Number of rows (``2**R``, the paper's ``M`` for one slice)."""
        return 1 << self.index_bits

    @property
    def layout(self) -> BucketLayout:
        """The bit-level bucket layout implied by this configuration."""
        return BucketLayout(
            row_bits=self.row_bits,
            record_format=self.record_format,
            aux_bits=self.aux_bits,
            slots_override=self.slots_override,
        )

    @property
    def slots_per_bucket(self) -> int:
        """``S``: record slots per row."""
        return self.layout.slots_per_bucket

    @property
    def capacity_records(self) -> int:
        """``M * S`` for one slice."""
        return self.rows * self.slots_per_bucket

    @property
    def capacity_bits(self) -> int:
        """Raw storage in bits (``2**R * C``)."""
        return self.rows * self.row_bits

    def load_factor(self, record_count: int) -> float:
        """``alpha = N_records / (M * S)`` for this slice alone."""
        return record_count / self.capacity_records

    @property
    def match_processor_count(self) -> int:
        """Effective ``P``: defaults to one comparator per slot."""
        if self.match_processors is None:
            return self.slots_per_bucket
        return self.match_processors

    @property
    def match_passes(self) -> int:
        """Pipelined matching steps per bucket: ``ceil(S / P)``."""
        slots = self.slots_per_bucket
        return -(-slots // self.match_processor_count)

    def with_ternary(self, ternary: bool) -> "SliceConfig":
        """Copy with ternary storage toggled (halves/doubles slot count)."""
        return replace(
            self, record_format=replace(self.record_format, ternary=ternary)
        )

    def describe(self) -> str:
        """One-line human-readable geometry summary."""
        fmt = self.record_format
        mode = "ternary" if fmt.ternary else "binary"
        return (
            f"2^{self.index_bits} rows x {self.row_bits} bits, "
            f"{self.slots_per_bucket} x {fmt.key_bits}-bit {mode} keys"
            + (f" + {fmt.data_bits}-bit data" if fmt.data_bits else "")
        )


def prototype_key_supported(key_bits: int) -> bool:
    """Whether the Section 3.3 prototype supports this key width."""
    return key_bits % 8 == 0 and key_bits // 8 in PROTOTYPE_KEY_BYTES


__all__ = [
    "Arrangement",
    "BucketGeometry",
    "SliceConfig",
    "PROTOTYPE_KEY_BYTES",
    "prototype_key_supported",
]
