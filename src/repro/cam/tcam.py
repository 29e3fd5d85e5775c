"""Behavioral ternary CAM (Section 2.2).

Stored keys are :class:`~repro.core.key.TernaryKey` patterns; a search key
matches an entry when every non-don't-care bit agrees.  The priority encoder
returns the lowest-index match, so longest-prefix-match falls out of storing
prefixes sorted by descending length — "the priority encoder in TCAM can be
used to perform LPM when prefixes in TCAM are sorted on prefix length".

This model is both the paper's comparison baseline (Figures 6/8) and the
overflow area of Section 4.3 — it satisfies the
:class:`~repro.core.subsystem.OverflowStore` protocol.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Union

from repro.errors import CapacityError, ConfigurationError, KeyFormatError, LookupError_
from repro.cam.cam import CamStats
from repro.core.key import TernaryKey
from repro.core.record import Record
from repro.utils.bits import mask_of

KeyLike = Union[int, TernaryKey]


@dataclass(frozen=True)
class TcamSearchResult:
    """Outcome of one TCAM search (``hit`` and ``record``, like the CA-RAM
    SearchResult, as the overflow-store protocol asks)."""

    hit: bool
    index: Optional[int]
    record: Optional[Record]
    match_count: int

    @property
    def data(self) -> Optional[int]:
        return self.record.data if self.record else None


@dataclass
class _TcamEntry:
    key: TernaryKey
    data: int


class TCAM:
    """A fixed-capacity ternary CAM with sorted-insert support.

    Args:
        entries: number of rows.
        key_bits: key width per entry.
    """

    def __init__(self, entries: int, key_bits: int) -> None:
        if entries <= 0:
            raise ConfigurationError(f"entries must be positive: {entries}")
        if key_bits <= 0:
            raise ConfigurationError(f"key_bits must be positive: {key_bits}")
        self._capacity = entries
        self._key_bits = key_bits
        self._entries: List[Optional[_TcamEntry]] = [None] * entries
        self._count = 0
        self.stats = CamStats()

    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def key_bits(self) -> int:
        return self._key_bits

    @property
    def entry_count(self) -> int:
        return self._count

    #: The overflow-store protocol's name for :attr:`entry_count`.
    record_count = entry_count

    def _normalize(self, key: KeyLike) -> TernaryKey:
        if isinstance(key, TernaryKey):
            if key.width != self._key_bits:
                raise KeyFormatError(
                    f"key width {key.width} != TCAM width {self._key_bits}"
                )
            return key
        key = int(key)
        if not 0 <= key <= mask_of(self._key_bits):
            raise KeyFormatError(
                f"key {key:#x} does not fit in {self._key_bits} bits"
            )
        return TernaryKey.exact(key, self._key_bits)

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------

    def insert(self, key: KeyLike, data: int = 0, index: Optional[int] = None) -> int:
        """Store a pattern at ``index`` or the first free row; returns the row."""
        pattern = self._normalize(key)
        if index is not None:
            if not 0 <= index < self._capacity:
                raise ConfigurationError(f"index {index} out of range")
            if self._entries[index] is not None:
                raise CapacityError(f"entry {index} already occupied")
            self._entries[index] = _TcamEntry(pattern, data)
            self._count += 1
            return index
        for row, entry in enumerate(self._entries):
            if entry is None:
                self._entries[row] = _TcamEntry(pattern, data)
                self._count += 1
                return row
        raise CapacityError("TCAM is full")

    def load_sorted(self, records: List[Record]) -> None:
        """Load records in priority order starting at row 0.

        For LPM the caller sorts by descending prefix length, matching the
        paper's TCAM usage.  Replaces the current contents.
        """
        if len(records) > self._capacity:
            raise CapacityError(
                f"{len(records)} records exceed TCAM capacity {self._capacity}"
            )
        entries = [
            _TcamEntry(self._normalize(record.key), record.data)
            for record in records
        ]
        self._entries = entries + [None] * (self._capacity - len(entries))
        self._count = len(entries)

    def clear(self) -> None:
        """Drop every entry."""
        self._entries = [None] * self._capacity
        self._count = 0

    def delete(self, key: KeyLike) -> int:
        """Remove every entry with exactly this pattern; returns how many."""
        pattern = self._normalize(key)
        removed = 0
        for row, entry in enumerate(self._entries):
            if entry is not None and entry.key == pattern:
                self._entries[row] = None
                removed += 1
        if not removed:
            raise LookupError_(f"pattern {pattern} not present")
        self._count -= removed
        return removed

    # ------------------------------------------------------------------
    # Search
    # ------------------------------------------------------------------

    def search(self, key: KeyLike, search_mask: int = 0) -> TcamSearchResult:
        """Fully parallel ternary search with priority encoding.

        ``search_mask`` marks don't-care bits in the *search* key (the
        paper's search-key bit masking).
        """
        probe = self._normalize(key)
        search_mask |= probe.mask
        self.stats.searches += 1
        self.stats.rows_activated += self._capacity
        first: Optional[int] = None
        matches = 0
        for row, entry in enumerate(self._entries):
            if entry is None:
                continue
            if entry.key.matches(probe.value, self._key_bits, search_mask):
                matches += 1
                if first is None:
                    first = row
        if first is None:
            return TcamSearchResult(hit=False, index=None, record=None, match_count=0)
        found = self._entries[first]
        assert found is not None
        return TcamSearchResult(
            hit=True,
            index=first,
            record=Record(key=found.key, data=found.data),
            match_count=matches,
        )

    def lookup(self, key: KeyLike) -> Optional[int]:
        """Convenience: matched entry's data, or None."""
        return self.search(key).data


__all__ = ["TCAM", "TcamSearchResult"]
