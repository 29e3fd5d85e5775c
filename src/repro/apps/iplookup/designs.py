"""The six CA-RAM designs of Table 2.

Each design fixes ``R`` (index bits per slice), the row's key capacity
(32 or 64 keys of N = 64 stored bits — a 32-symbol ternary prefix), the
slice count, and the arrangement:

====  ==  =======  ========  ===========
name  R   C (bits) # slices  arrangement
====  ==  =======  ========  ===========
A     11  32x64    6         horizontal
B     11  32x64    7         horizontal
C     11  32x64    8         horizontal
D     12  64x64    2         horizontal
E     12  64x64    3         horizontal
F     12  64x64    2         vertical
====  ==  =======  ========  ===========

The designs span the paper's three comparisons: same hash / more area
(A→B→C, D→E), same area / different hash granularity (D vs F), and the
vertical-vs-horizontal trade-off.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.core.config import Arrangement, BucketGeometry
from repro.errors import ConfigurationError

#: Stored key width: 32 ternary symbols at 2 bits each (Section 4.1:
#: "Because a prefix consists of 32 ternary bits, the length of the key (N)
#: is 64").
STORED_KEY_BITS = 64
KEY_SYMBOLS = 32


@dataclass(frozen=True)
class IpDesign:
    """One Table 2 design point."""

    name: str
    index_bits: int
    keys_per_row: int
    slice_count: int
    arrangement: Arrangement

    def __post_init__(self) -> None:
        if self.keys_per_row not in (32, 64):
            raise ConfigurationError(
                f"keys_per_row must be 32 or 64: {self.keys_per_row}"
            )
        if self.slice_count <= 0:
            raise ConfigurationError(
                f"slice_count must be positive: {self.slice_count}"
            )
        if self.bucket_count & (self.bucket_count - 1):
            # Only a vertical stack of a non-power-of-two slice count has
            # a bucket count bit selection cannot address.
            raise ConfigurationError(
                "vertical arrangements need a power-of-two slice count for "
                "bit-selection indexing"
            )

    @property
    def row_bits(self) -> int:
        """The paper's C for one slice."""
        return self.keys_per_row * STORED_KEY_BITS

    @property
    def geometry(self) -> BucketGeometry:
        return BucketGeometry(
            self.arrangement, 1 << self.index_bits, self.slice_count,
            self.keys_per_row,
        )

    @property
    def bucket_count(self) -> int:
        """Logical buckets M."""
        return self.geometry.bucket_count

    @property
    def effective_index_bits(self) -> int:
        """Hash bits consumed, including vertical slice-select bits."""
        return self.bucket_count.bit_length() - 1

    @property
    def slots_per_bucket(self) -> int:
        """Logical slots S per bucket."""
        return self.geometry.slots_per_bucket

    @property
    def capacity_records(self) -> int:
        return self.geometry.capacity_records

    @property
    def capacity_bits(self) -> int:
        """Raw key storage bits across all slices (area accounting)."""
        return (1 << self.index_bits) * self.row_bits * self.slice_count

    def describe(self) -> str:
        return (
            f"design {self.name}: R={self.index_bits}, "
            f"C={self.keys_per_row}x{STORED_KEY_BITS}, "
            f"{self.slice_count} slices {self.arrangement.value}"
        )


IP_DESIGNS: Dict[str, IpDesign] = {
    "A": IpDesign("A", 11, 32, 6, Arrangement.HORIZONTAL),
    "B": IpDesign("B", 11, 32, 7, Arrangement.HORIZONTAL),
    "C": IpDesign("C", 11, 32, 8, Arrangement.HORIZONTAL),
    "D": IpDesign("D", 12, 64, 2, Arrangement.HORIZONTAL),
    "E": IpDesign("E", 12, 64, 3, Arrangement.HORIZONTAL),
    "F": IpDesign("F", 12, 64, 2, Arrangement.VERTICAL),
}

__all__ = ["IpDesign", "IP_DESIGNS", "STORED_KEY_BITS", "KEY_SYMBOLS"]
