"""The four CA-RAM designs of Table 3.

All designs store 96 keys of 128 bits per row (C = 12,288 bits) with
R = 14 index bits per slice; they differ in slice count and arrangement:

====  ==  ========  ========  ===========
name  R   C (bits)  # slices  arrangement
====  ==  ========  ========  ===========
A     14  128x96    4         vertical
B     14  128x96    5         vertical
C     14  128x96    4         horizontal
D     14  128x96    5         horizontal
====  ==  ========  ========  ===========

"Designs A and C or designs B and D show the trade-off between horizontal
vs. vertical slice arrangement."

Scaled evaluation: the full database is 5.39M entries; a run at scale
``1/2**k`` shrinks both the database and each design's row count (R - k),
preserving every load factor and therefore the Table 3 statistics.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict

from repro.core.config import Arrangement, BucketGeometry
from repro.errors import ConfigurationError

#: Key width: "each entry has up to 16 characters, the length of a key (N)
#: is 16x8 = 128 bits".
TRIGRAM_KEY_BITS = 128

#: "We choose to store 96 keys in each bucket, and accordingly, C is
#: 96 x 128 = 12,288 bits."
KEYS_PER_ROW = 96

BASE_INDEX_BITS = 14


@dataclass(frozen=True)
class TrigramDesign:
    """One Table 3 design point."""

    name: str
    slice_count: int
    arrangement: Arrangement
    index_bits: int = BASE_INDEX_BITS

    def __post_init__(self) -> None:
        if self.slice_count <= 0:
            raise ConfigurationError(
                f"slice_count must be positive: {self.slice_count}"
            )
        if not 1 <= self.index_bits <= 30:
            raise ConfigurationError(
                f"index_bits out of range: {self.index_bits}"
            )

    @property
    def row_bits(self) -> int:
        """The paper's C for one slice."""
        return KEYS_PER_ROW * TRIGRAM_KEY_BITS

    @property
    def geometry(self) -> BucketGeometry:
        return BucketGeometry(
            self.arrangement, 1 << self.index_bits, self.slice_count,
            KEYS_PER_ROW,
        )

    @property
    def bucket_count(self) -> int:
        return self.geometry.bucket_count

    @property
    def slots_per_bucket(self) -> int:
        return self.geometry.slots_per_bucket

    @property
    def capacity_records(self) -> int:
        return self.geometry.capacity_records

    @property
    def capacity_bits(self) -> int:
        return (1 << self.index_bits) * self.row_bits * self.slice_count

    def scaled(self, shift: int) -> "TrigramDesign":
        """The design at scale ``1/2**shift`` (fewer rows, same S)."""
        if shift < 0 or shift >= self.index_bits:
            raise ConfigurationError(f"invalid scale shift {shift}")
        return replace(self, index_bits=self.index_bits - shift)

    def describe(self) -> str:
        return (
            f"design {self.name}: R={self.index_bits}, "
            f"C={TRIGRAM_KEY_BITS}x{KEYS_PER_ROW}, "
            f"{self.slice_count} slices {self.arrangement.value}"
        )


TRIGRAM_DESIGNS: Dict[str, TrigramDesign] = {
    "A": TrigramDesign("A", 4, Arrangement.VERTICAL),
    "B": TrigramDesign("B", 5, Arrangement.VERTICAL),
    "C": TrigramDesign("C", 4, Arrangement.HORIZONTAL),
    "D": TrigramDesign("D", 5, Arrangement.HORIZONTAL),
}

__all__ = [
    "TrigramDesign",
    "TRIGRAM_DESIGNS",
    "TRIGRAM_KEY_BITS",
    "KEYS_PER_ROW",
    "BASE_INDEX_BITS",
]
