"""Bucket layout: packing records and the auxiliary field into a row.

A CA-RAM row (Figure 3) holds up to ``floor(C / slot_bits)`` record slots,
optionally preceded by an *auxiliary field* that "provide[s] information on
the status of the associated bucket" — here, how far overflowed records were
spilled (the probing reach) so extended searches know when to stop.

Row layout, MSB first::

    [ aux: reach (aux_bits) | slot 0 | slot 1 | ... | slot S-1 | padding ]

Slot 0 is the highest-priority slot (the priority encoder picks the lowest
matching slot index), which is how LPM ordering is realized inside a bucket.

The layout owns both codecs: the scalar reference (``read_all``,
``pack``) and its vectorized twin over many rows at once
(:meth:`BucketLayout.decode_rows`, :meth:`BucketLayout.encode_rows`), which
the mirror's re-decode, the bulk build and every bucket rewrite call.
Fields travel as little-endian uint64 word matrices, as the kernel reads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.core.record import Record, RecordFormat, decode_record, encode_record
from repro.memory.mirror import (
    KEY_WORD_BITS,
    bits_to_words,
    keys_to_words,
    rows_from_bits,
    words_to_bits,
)
from repro.utils.bits import extract_bits, mask_of

#: Rows encoded per chunk by :meth:`BucketLayout.encode_rows` — bounds the
#: peak ``(chunk, row_bits)`` bit matrix to a few MB even for the trigram
#: study's 13,928-bit rows.
ENCODE_CHUNK_ROWS = 1024

#: A sorted bucket's slot priority: ``(n, W)`` uint64 key, mask (zero for
#: binary formats) and data words, as :meth:`BucketLayout.decode_rows` gives
#: them, to one number per row; higher priorities take lower slots.
SlotPriority = Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]


@dataclass(frozen=True)
class BucketLayout:
    """Bit-level layout of one bucket (one memory row).

    Attributes:
        row_bits: row width ``C``.
        record_format: slot serialization.
        aux_bits: width of the auxiliary reach field (0 disables it).
        slots_override: force a slot count smaller than what fits (used by
            designs that reserve row bits for other purposes).
    """

    row_bits: int
    record_format: RecordFormat
    aux_bits: int = 8
    slots_override: Optional[int] = None

    def __post_init__(self) -> None:
        if self.row_bits <= 0:
            raise ConfigurationError(f"row_bits must be positive: {self.row_bits}")
        if self.aux_bits < 0:
            raise ConfigurationError(f"aux_bits must be >= 0: {self.aux_bits}")
        if self.slots_per_bucket <= 0:
            raise ConfigurationError(
                f"row of {self.row_bits} bits cannot hold any "
                f"{self.record_format.slot_bits}-bit slot after "
                f"{self.aux_bits} aux bits"
            )

    @property
    def slots_per_bucket(self) -> int:
        """Record slots per row (the paper's ``S`` = floor(C/N) family)."""
        natural = (self.row_bits - self.aux_bits) // self.record_format.slot_bits
        if self.slots_override is None:
            return natural
        if self.slots_override > natural:
            raise ConfigurationError(
                f"slots_override {self.slots_override} exceeds the "
                f"{natural} slots that fit"
            )
        return self.slots_override

    @property
    def max_reach(self) -> int:
        """Largest spill distance the aux field can record."""
        return mask_of(self.aux_bits) if self.aux_bits else 0

    def _slot_offset(self, slot: int) -> int:
        if not 0 <= slot < self.slots_per_bucket:
            raise ConfigurationError(
                f"slot {slot} out of range [0, {self.slots_per_bucket})"
            )
        return self.aux_bits + slot * self.record_format.slot_bits

    # ------------------------------------------------------------------
    # Row <-> structured content
    # ------------------------------------------------------------------

    def read_aux(self, row_value: int) -> int:
        """The bucket's reach field (0 when aux is disabled)."""
        if not self.aux_bits:
            return 0
        return extract_bits(row_value, self.row_bits, 0, self.aux_bits)

    def write_aux(self, row_value: int, reach: int) -> int:
        """Return the row with its reach field replaced."""
        if not self.aux_bits:
            if reach:
                raise ConfigurationError("aux field disabled; cannot store reach")
            return row_value
        if not 0 <= reach <= self.max_reach:
            raise ConfigurationError(
                f"reach {reach} does not fit in {self.aux_bits} aux bits"
            )
        shift = self.row_bits - self.aux_bits
        cleared = row_value & ~(mask_of(self.aux_bits) << shift)
        return cleared | (reach << shift)

    def read_slot(self, row_value: int, slot: int) -> Tuple[bool, Record]:
        """Decode one slot.  Returns (valid, record)."""
        offset = self._slot_offset(slot)
        bits = extract_bits(
            row_value, self.row_bits, offset, self.record_format.slot_bits
        )
        return decode_record(bits, self.record_format)

    def write_slot(self, row_value: int, slot: int, record: Optional[Record]) -> int:
        """Return the row with ``slot`` replaced (None clears the slot)."""
        offset = self._slot_offset(slot)
        width = self.record_format.slot_bits
        shift = self.row_bits - offset - width
        cleared = row_value & ~(mask_of(width) << shift)
        if record is None:
            return cleared
        bits = encode_record(record, self.record_format)
        return cleared | (bits << shift)

    def read_all(self, row_value: int) -> List[Tuple[bool, Record]]:
        """Decode every slot — what the match processors receive in parallel."""
        return [
            self.read_slot(row_value, slot)
            for slot in range(self.slots_per_bucket)
        ]

    def slot_valid(self, row_value: int, slot: int) -> bool:
        """Check one slot's valid bit without decoding the record.

        The valid bit is the MSB of the slot (see
        :func:`~repro.core.record.encode_record`), so occupancy questions
        never need the full big-int record decode.
        """
        offset = self._slot_offset(slot)
        shift = self.row_bits - offset - 1
        return bool((row_value >> shift) & 1)

    def find_free_slot(self, row_value: int) -> Optional[int]:
        """Lowest-index invalid slot, or None when the bucket is full."""
        for slot in range(self.slots_per_bucket):
            if not self.slot_valid(row_value, slot):
                return slot
        return None

    def occupancy(self, row_value: int) -> int:
        """Number of valid slots in the row (valid-bit test only)."""
        return sum(
            1
            for slot in range(self.slots_per_bucket)
            if self.slot_valid(row_value, slot)
        )

    def pack(self, records: List[Record], reach: int = 0) -> int:
        """Build a full row from a record list (slot 0 first).

        Used for DMA-style bulk database construction in RAM mode.
        """
        if len(records) > self.slots_per_bucket:
            raise ConfigurationError(
                f"{len(records)} records exceed {self.slots_per_bucket} slots"
            )
        row_value = self.write_aux(0, reach) if self.aux_bits else 0
        for slot, record in enumerate(records):
            row_value = self.write_slot(row_value, slot, record)
        return row_value

    # ------------------------------------------------------------------
    # Vectorized codec: many rows <-> word matrices
    # ------------------------------------------------------------------

    def decode_rows(
        self, row_values: Sequence[int]
    ) -> Tuple[
        np.ndarray, np.ndarray, np.ndarray, Optional[np.ndarray], np.ndarray
    ]:
        """:meth:`read_aux` and :meth:`read_all` over many rows at once.

        Returns ``(reach, valid, keys, masks, data)``: the ``(n,)`` int64
        reach fields, the ``(n, S)`` valid bits and the ``(n, S, W)``
        uint64 key, mask and data words (little-endian).  ``masks`` is
        None for binary formats and ``data`` has no words without a data
        field.  Invalid slots decode to zero, and key bits under a
        don't-care are zeroed, as :class:`~repro.core.key.TernaryKey`
        normalizes them.
        """
        fmt = self.record_format
        n = len(row_values)
        slots = self.slots_per_bucket
        row_bits = self.row_bits
        nbytes = (row_bits + 7) // 8
        packed = b"".join(v.to_bytes(nbytes, "big") for v in row_values)
        bit_rows = np.unpackbits(
            np.frombuffer(packed, dtype=np.uint8).reshape(n, nbytes), axis=1
        )[:, nbytes * 8 - row_bits :]
        aux = self.aux_bits
        if 0 < aux <= KEY_WORD_BITS:
            reach = bits_to_words(bit_rows[:, :aux], aux)[:, 0]
            reach = reach.astype(np.int64)
        else:  # no field, or one wider than a word
            reach = np.array([self.read_aux(v) for v in row_values], np.int64)
        region = bit_rows[:, aux : aux + slots * fmt.slot_bits].reshape(
            n, slots, fmt.slot_bits
        )
        valid = region[:, :, 0].astype(bool)

        def words(columns: np.ndarray) -> np.ndarray:
            bits = columns.shape[2]
            out = bits_to_words(columns.reshape(n * slots, bits), bits)
            out = out.reshape(n, slots, -1)
            out[~valid] = 0
            return out

        key_bits = fmt.key_bits
        key_columns = region[:, :, 1 : 1 + key_bits]
        masks = None
        if fmt.ternary:
            mask_columns = region[:, :, 1 + key_bits : 1 + 2 * key_bits]
            key_columns = key_columns & (1 - mask_columns)
            masks = words(mask_columns)
        data_start = 1 + fmt.key_storage_bits
        data = (
            words(region[:, :, data_start : data_start + fmt.data_bits])
            if fmt.data_bits
            else np.zeros((n, slots, 0), dtype=np.uint64)
        )
        return reach, valid, words(key_columns), masks, data

    def encode_rows(
        self,
        row_count: int,
        reach: Optional[np.ndarray],
        rows: np.ndarray,
        slots: np.ndarray,
        keys: np.ndarray,
        masks: Optional[np.ndarray],
        data: Optional[np.ndarray],
    ) -> List[int]:
        """:meth:`pack` for a whole array: ``row_count`` row values holding
        the given stored copies, rendered ``ENCODE_CHUNK_ROWS`` at a time.

        Args:
            reach: ``(row_count,)`` aux-field values, or None when these
                rows hold no reach field.
            rows / slots: ``(copies,)`` row and slot of each stored copy.
            keys / masks / data: ``(copies, W)`` uint64 words per copy, as
                :meth:`decode_rows` returns them; ``masks`` is read only
                for ternary formats and ``data`` only with a data field.
        """
        fmt = self.record_format
        aux = self.aux_bits
        width = fmt.slot_bits
        row_bits = self.row_bits
        columns = [
            np.ones((len(rows), 1), dtype=bool),
            words_to_bits(keys, fmt.key_bits),
        ]
        if fmt.ternary:
            columns.append(words_to_bits(masks, fmt.key_bits))
        if fmt.data_bits:
            columns.append(words_to_bits(data, fmt.data_bits))
        copy_bits = np.concatenate(columns, axis=1)
        reach_bits = (
            words_to_bits(keys_to_words(reach, aux), aux)
            if aux and reach is not None
            else None
        )
        order = np.argsort(rows, kind="stable")
        rows, slots, copy_bits = rows[order], slots[order], copy_bits[order]
        bit_columns = np.arange(width, dtype=np.int64)
        out: List[int] = []
        for start in range(0, row_count, ENCODE_CHUNK_ROWS):
            stop = min(start + ENCODE_CHUNK_ROWS, row_count)
            chunk = np.zeros((stop - start, row_bits), dtype=bool)
            if reach_bits is not None:
                chunk[:, :aux] = reach_bits[start:stop]
            lo, hi = np.searchsorted(rows, [start, stop]).tolist()
            if hi > lo:
                flat = (
                    (rows[lo:hi, None] - start) * row_bits
                    + aux
                    + slots[lo:hi, None] * width
                    + bit_columns
                ).ravel()
                chunk.reshape(-1)[flat] = copy_bits[lo:hi].ravel()
            out.extend(rows_from_bits(chunk, row_bits))
        return out


__all__ = ["BucketLayout", "ENCODE_CHUNK_ROWS", "SlotPriority"]
