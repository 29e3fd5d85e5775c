"""Records and their storage format inside a CA-RAM row.

A searchable record is a (key, data) pair (Section 2.1).  The
:class:`RecordFormat` fixes how a record is serialized into a bucket slot:

``[ valid (1 bit) | key storage | data ]``

* In **binary** mode the key storage is the ``key_bits`` key value.
* In **ternary** mode each stored key carries an equal-width don't-care
  mask, doubling the key storage — the paper's "the number of records that
  can fit in a given CA-RAM will be halved when the ternary search
  capability is enabled".

The valid bit distinguishes empty slots from a legitimate all-zero record;
it is the behavioral stand-in for the slot-occupancy bookkeeping the paper
delegates to the auxiliary field.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple, Union

from repro.errors import ConfigurationError, KeyFormatError
from repro.core.key import TernaryKey
from repro.utils.bits import mask_of

KeyLike = Union[int, TernaryKey]


@dataclass(frozen=True)
class RecordFormat:
    """Serialized layout of one record inside a bucket slot.

    Attributes:
        key_bits: search-key width ``N``.
        data_bits: payload width (0 when data lives in a separate array, as
            in the paper's baseline presentation).
        ternary: whether stored keys carry a don't-care mask.
    """

    key_bits: int
    data_bits: int = 0
    ternary: bool = False

    def __post_init__(self) -> None:
        if self.key_bits <= 0:
            raise ConfigurationError(f"key_bits must be positive: {self.key_bits}")
        if self.data_bits < 0:
            raise ConfigurationError(
                f"data_bits must be non-negative: {self.data_bits}"
            )

    @property
    def key_storage_bits(self) -> int:
        """Bits of key storage per slot (2x key for ternary encoding)."""
        return self.key_bits * (2 if self.ternary else 1)

    @property
    def slot_bits(self) -> int:
        """Total bits of one slot including the valid bit."""
        return 1 + self.key_storage_bits + self.data_bits

    def normalize_key(self, key: KeyLike) -> TernaryKey:
        """Coerce an int or TernaryKey into a validated TernaryKey."""
        if isinstance(key, TernaryKey):
            if key.width != self.key_bits:
                raise KeyFormatError(
                    f"key width {key.width} != format key_bits {self.key_bits}"
                )
            if key.mask and not self.ternary:
                raise KeyFormatError(
                    "don't-care bits require a ternary record format"
                )
            return key
        return TernaryKey.exact(int(key), self.key_bits)


@dataclass(frozen=True)
class Record:
    """A searchable (key, data) item.

    ``data`` is an unsigned integer payload; applications encode whatever
    they need into it (a next-hop index, a language-model probability id...).
    """

    key: TernaryKey
    data: int = 0

    @classmethod
    def make(cls, key: KeyLike, data: int, record_format: RecordFormat) -> "Record":
        """Build a record validated against ``record_format`` (a format
        without a data field takes data 0 only)."""
        normalized = record_format.normalize_key(key)
        if not 0 <= data <= mask_of(record_format.data_bits):
            raise KeyFormatError(
                f"data {data} does not fit in {record_format.data_bits} bits"
            )
        return cls(key=normalized, data=data)


def encode_record(record: Record, record_format: RecordFormat) -> int:
    """Serialize a record into its slot bit pattern (valid bit set).

    Layout, MSB first: valid, key value, [key mask,] data.
    """
    bits = 1  # valid
    bits = (bits << record_format.key_bits) | record.key.value
    if record_format.ternary:
        bits = (bits << record_format.key_bits) | record.key.mask
    if record_format.data_bits:
        bits = (bits << record_format.data_bits) | record.data
    return bits


def decode_record(slot_bits: int, record_format: RecordFormat) -> Tuple[bool, Record]:
    """Deserialize one slot.  Returns (valid, record).

    An invalid slot decodes to a zero record; callers must check ``valid``.
    """
    data = 0
    remaining = slot_bits
    if record_format.data_bits:
        data = remaining & mask_of(record_format.data_bits)
        remaining >>= record_format.data_bits
    mask = 0
    if record_format.ternary:
        mask = remaining & mask_of(record_format.key_bits)
        remaining >>= record_format.key_bits
    value = remaining & mask_of(record_format.key_bits)
    remaining >>= record_format.key_bits
    valid = bool(remaining & 1)
    key = TernaryKey(value=value, mask=mask, width=record_format.key_bits)
    return valid, Record(key=key, data=data)


__all__ = ["RecordFormat", "Record", "KeyLike", "encode_record", "decode_record"]
