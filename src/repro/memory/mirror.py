"""Decoded NumPy mirror of one or more CA-RAM memory arrays.

The behavioral model stores rows as arbitrary-precision Python integers,
which keeps sub-field extraction exact for any row width — but forces every
search to re-decode every slot of the fetched row through big-int bit
slicing.  A :class:`DecodedMirror` maintains the *decoded* view of the
array(s) as dense NumPy matrices of numbers only — per logical bucket:
valid bits, stored key values, stored care bits (ternary formats only),
data words and the auxiliary reach field — so steady-state batch lookups
never touch Python-int bit extraction.  A
:class:`~repro.core.record.Record` is built only when a reader asks for
one (:meth:`DecodedMirror.records_at`), as the paper reads data out only
at the slot the priority encoder returns.

The mirror stays coherent through *dirty-row invalidation*: it subscribes to
:meth:`~repro.memory.array.MemoryArray.subscribe_invalidation`, and every
``write_row`` / ``load`` / ``fill`` marks the affected rows dirty.  A
:meth:`DecodedMirror.sync` before each batch operation re-decodes only the
dirty rows, so a read-heavy workload pays the decode cost once per mutation,
not once per lookup.  The re-decode itself is the layout's vectorized
codec (:meth:`~repro.core.bucket.BucketLayout.decode_rows`), the inverse
of the one the bulk build encodes with; the mirror only places its word
matrices into the planes.

Keys are held word-major: one contiguous ``(buckets, slots)`` plane per
key word (word 0 = the low bits), so a key wider than 64 bits (e.g. the
trigram study's 128-bit keys) costs one more plane gather, not a wider
temporary.  The plane width follows the key width (:func:`plane_dtype`):
keys of at most 32 bits get one uint32 plane, as the paper sizes each match
processor to the key width N (§3.1); wider keys get 64-bit words.  Ternary
formats add a care plane per word (``~mask`` over the key's width); binary
formats, whose masks are all zero, keep none.  The comparison is an exact
word-wise rendering of Figure 4(b): a slot matches when, in every word,
``(stored ^ search) & care & ~search_mask`` is zero.  Outside the planes
every word matrix is ``(n, W)`` uint64, as :func:`keys_to_words` packs it.

Logical-bucket composition is the group's
:class:`~repro.core.config.BucketGeometry`: each array's rows land in the
buckets and slot columns the geometry names, and only rows that hold a
reach field write the reach column.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.key import TernaryKey
from repro.core.record import Record
from repro.errors import ConfigurationError, KeyFormatError
from repro.utils.bits import mask_of

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.core.bucket import BucketLayout
    from repro.core.config import BucketGeometry
    from repro.core.record import RecordFormat
    from repro.memory.array import MemoryArray

#: Width of one word of the ``(n, W)`` uint64 key form.
KEY_WORD_BITS = 64

_WORD_MASK = (1 << KEY_WORD_BITS) - 1


def plane_dtype(key_bits: int) -> np.dtype:
    """The dtype of the mirror's key and care planes for ``key_bits``-wide
    keys: uint32 for keys of at most 32 bits, uint64 words otherwise.  A
    32-bit key then gathers four bytes per slot, not eight."""
    return np.dtype(np.uint32 if key_bits <= 32 else np.uint64)


def words_for_bits(bits: int) -> int:
    """Number of 64-bit words needed to hold a ``bits``-wide key."""
    if bits <= 0:
        raise ConfigurationError(f"bits must be positive: {bits}")
    return -(-bits // KEY_WORD_BITS)


def int_to_words(value: int, word_count: int) -> List[int]:
    """Split an unsigned integer into ``word_count`` little-endian words."""
    if value < 0:
        raise KeyFormatError(f"value must be non-negative: {value}")
    if value >> (KEY_WORD_BITS * word_count):
        raise KeyFormatError(
            f"value {value:#x} does not fit in {word_count} words"
        )
    return [
        (value >> (KEY_WORD_BITS * w)) & _WORD_MASK for w in range(word_count)
    ]


def wrapped_negative(values: Sequence[int], top: int) -> bool:
    """Whether ``values``, whose uint64 conversion peaks at ``top``, held a
    negative NumPy scalar.

    NumPy converts a signed NumPy scalar to uint64 by wrapping it
    (``np.int64(-1)`` reads ``0xffff_ffff_ffff_ffff``), where a negative
    Python int raises.  A wrapped value has its top bit set, so only a
    conversion whose maximum has it pays the look at ``values``.
    """
    return bool(top >> (KEY_WORD_BITS - 1)) and bool(np.min(values) < 0)


def keys_to_words(values: Sequence[int], key_bits: int) -> np.ndarray:
    """Pack integer keys into a ``(len(values), words)`` uint64 matrix.

    Little-endian word order (word 0 holds the key's low 64 bits).  Raises
    :class:`~repro.errors.KeyFormatError` when any key does not fit in
    ``key_bits`` bits — the same contract the scalar match processor
    enforces per key.
    """
    n = len(values)
    word_count = words_for_bits(key_bits)
    full = mask_of(key_bits)
    if word_count == 1:
        try:
            arr = np.array(values, dtype=np.uint64)
        except (OverflowError, TypeError) as exc:
            raise KeyFormatError(
                f"search key does not fit in {key_bits} bits: {exc}"
            ) from None
        if n:
            bad = int(arr.max())
            if wrapped_negative(values, bad):
                bad = int(min(values))
            if not 0 <= bad <= full:
                raise KeyFormatError(
                    f"search key {bad:#x} does not fit in {key_bits} bits"
                )
        return arr.reshape(n, 1)
    nbytes = word_count * (KEY_WORD_BITS // 8)
    try:
        packed = b"".join(int(v).to_bytes(nbytes, "little") for v in values)
    except OverflowError:  # negative, or wider than the word storage
        packed = None
    if packed is not None:
        words = np.frombuffer(packed, dtype="<u8").reshape(n, word_count)
        top_bits = key_bits - (word_count - 1) * KEY_WORD_BITS
        if top_bits == KEY_WORD_BITS or not (
            words[:, -1] >> np.uint64(top_bits)
        ).any():
            return words
    # Some key is out of range: the per-key check names the first one.
    for value in values:
        value = int(value)
        if not 0 <= value <= full:
            raise KeyFormatError(
                f"search key {value:#x} does not fit in {key_bits} bits"
            )
    raise AssertionError("an out-of-range key went unnamed")


def records_to_words(
    records: Sequence[Record], record_format: "RecordFormat"
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(keys, masks, data)`` word matrices of Records, one row each, as
    a ``slot_priority`` reads them (masks zero for binary keys)."""
    key_bits, data_bits = record_format.key_bits, record_format.data_bits
    data = np.zeros((len(records), 0), dtype=np.uint64)
    if data_bits:
        data = keys_to_words([record.data for record in records], data_bits)
    keys = [record.key.value for record in records]
    masks = [record.key.mask for record in records]
    return keys_to_words(keys, key_bits), keys_to_words(masks, key_bits), data


def records_from_words(keys, masks, data, key_bits: int) -> List[Record]:
    """Records from ``(n, W)`` key, mask (None: binary) and data words: the
    one way words become Records, for readers that hand one to user code."""
    values = words_to_ints(keys)
    masks = [0] * len(values) if masks is None else words_to_ints(masks)
    data = words_to_ints(data) if data.shape[1] else [0] * len(values)
    return [
        Record(TernaryKey(value, mask, key_bits), datum)
        for value, mask, datum in zip(values, masks, data)
    ]


def words_to_ints(words: np.ndarray) -> List[int]:
    """Python ints from a ``(n, words)`` uint64 matrix: the inverse of
    :func:`keys_to_words`, for the few consumers that need one int per
    value (scalar fallbacks, key-dependent probing, the side stores, data
    values and the mirror's Record memo)."""
    if words.shape[1] == 1:
        return words[:, 0].tolist()
    nbytes = words.shape[1] * (KEY_WORD_BITS // 8)
    data = words.astype("<u8", copy=False).tobytes()
    from_bytes = int.from_bytes
    return [
        from_bytes(data[start : start + nbytes], "little")
        for start in range(0, len(data), nbytes)
    ]


# ----------------------------------------------------------------------
# Bit codecs: word matrices <-> MSB-first bit patterns
# ----------------------------------------------------------------------
#
# The bit-level halves of the layout's vectorized row codec
# (:meth:`~repro.core.bucket.BucketLayout.decode_rows` and ``encode_rows``):
# turn whole columns of field values into MSB-first bit patterns and back
# without per-record big-int splicing.  Each is a pure reshape/bit-unpack —
# O(1) NumPy calls over the full matrix.


def words_to_bits(words: np.ndarray, bits: int) -> np.ndarray:
    """Unpack a little-endian uint64 word matrix into MSB-first bit columns.

    Args:
        words: ``(n, W)`` uint64 matrix (word 0 = low 64 bits), as produced
            by :func:`keys_to_words`.
        bits: field width; only the low ``bits`` of each value are kept.

    Returns:
        ``(n, bits)`` bool matrix, column 0 holding each value's MSB — the
        bit order :func:`~repro.core.record.encode_record` serializes.
    """
    if words.ndim != 2:
        raise ConfigurationError("words must be a (n, W) matrix")
    n, word_count = words.shape
    if bits > word_count * KEY_WORD_BITS:
        raise ConfigurationError(
            f"{bits} bits exceed the {word_count}-word storage"
        )
    # Reverse to big-endian word order, then view each word's bytes MSB
    # first, so unpackbits yields one MSB-first bit row per value.
    big_endian = words[:, ::-1].astype(">u8")
    byte_rows = big_endian.view(np.uint8).reshape(n, word_count * 8)
    bit_rows = np.unpackbits(byte_rows, axis=1)
    return bit_rows[:, word_count * KEY_WORD_BITS - bits :].astype(bool)


def bits_to_words(bit_matrix: np.ndarray, bits: int) -> np.ndarray:
    """Pack MSB-first bit columns into little-endian uint64 word columns.

    The exact inverse of :func:`words_to_bits`: column 0 of ``bit_matrix``
    holds each value's MSB; word 0 of the result holds the low 64 bits.
    Accepts any 0/1-valued dtype.
    """
    if bit_matrix.ndim != 2 or bit_matrix.shape[1] != bits:
        raise ConfigurationError(
            f"bit matrix must be (n, {bits}), got {bit_matrix.shape}"
        )
    word_count = words_for_bits(bits)
    n = bit_matrix.shape[0]
    padded = np.zeros((n, word_count * KEY_WORD_BITS), dtype=np.uint8)
    padded[:, word_count * KEY_WORD_BITS - bits :] = bit_matrix
    byte_rows = np.packbits(padded, axis=1)
    # Bytes are MSB-first per word and words are big-endian ordered here;
    # reverse the word axis back to little-endian storage order.
    words_be = np.ascontiguousarray(byte_rows).view(">u8")
    return words_be[:, ::-1].astype(np.uint64)


def rows_from_bits(bit_matrix: np.ndarray, row_bits: int) -> List[int]:
    """Pack an MSB-first bit matrix into one Python integer per row.

    The inverse of the per-row decode: column ``j`` carries weight
    ``2**(row_bits - 1 - j)``, matching the MSB-first row convention of
    :class:`~repro.memory.array.MemoryArray`.
    """
    if bit_matrix.ndim != 2 or bit_matrix.shape[1] != row_bits:
        raise ConfigurationError(
            f"bit matrix must be (n, {row_bits}), got {bit_matrix.shape}"
        )
    packed = np.packbits(bit_matrix, axis=1)
    pad = (-row_bits) % 8  # packbits zero-fills the low bits of the last byte
    nbytes = packed.shape[1]
    data = packed.tobytes()
    return [
        int.from_bytes(data[i * nbytes : (i + 1) * nbytes], "big") >> pad
        for i in range(bit_matrix.shape[0])
    ]


class DecodedMirror:
    """Incrementally-maintained decoded view of CA-RAM array content.

    Args:
        arrays: the physical :class:`~repro.memory.array.MemoryArray` list
            (one for a single slice).  All must share the same geometry.
        layout: the :class:`~repro.core.bucket.BucketLayout` that gives the
            rows their bucket/record structure.
        geometry: where each logical bucket lives across ``arrays``; None
            stacks the arrays' row spaces vertically.

    Attributes (all kept in sync by :meth:`sync`):
        valid: ``(buckets, slots)`` bool — slot occupancy.
        key_planes: ``(words, buckets, slots)`` — stored key values, one
            contiguous ``(buckets, slots)`` plane per key word (the layout
            the match kernel gathers from; see :attr:`key_words`), of
            :func:`plane_dtype` for the key width.
        care_planes: ``(words, buckets, slots)``, same dtype — the stored
            keys' care bits (``~mask`` over the key width; ``width`` in
            invalid slots), or None for binary record formats, whose keys
            have no don't-care bits to store.
        reach: ``(buckets,)`` int64 — the auxiliary spill-reach field.
        data_words: ``(buckets, slots, data_word_count)`` uint64 — stored
            data payloads as little-endian words (zero columns when the
            record format carries no data), the numeric source the columnar
            result set gathers values from without building a ``Record``.
        version: monotonically increasing content stamp, bumped whenever a
            sync re-decodes rows or a bulk build is installed — the
            coherence token a :class:`~repro.core.results.BatchResultSet`
            checks before materializing its coordinates.
    """

    def __init__(
        self,
        arrays: Sequence["MemoryArray"],
        layout: "BucketLayout",
        geometry: Optional["BucketGeometry"] = None,
    ) -> None:
        from repro.core.config import Arrangement, BucketGeometry

        if not arrays:
            raise ConfigurationError("at least one memory array is required")
        if geometry is None:
            geometry = BucketGeometry(
                Arrangement.VERTICAL,
                arrays[0].rows,
                len(arrays),
                layout.slots_per_bucket,
            )
        if len(arrays) != geometry.slices or any(
            array.rows != geometry.rows or array.row_bits != arrays[0].row_bits
            for array in arrays
        ):
            raise ConfigurationError(
                "all mirrored arrays must share the same geometry"
            )
        self._arrays = list(arrays)
        self._layout = layout
        self._geometry = geometry
        self.buckets = geometry.bucket_count
        self.slots = geometry.slots_per_bucket
        key_bits = layout.record_format.key_bits
        self._key_bits = key_bits
        self._word_count = words_for_bits(key_bits)
        data_bits = layout.record_format.data_bits
        self._data_word_count = words_for_bits(data_bits) if data_bits else 0
        planes = (self._word_count, self.buckets, self.slots)
        dtype = plane_dtype(key_bits)
        self.width_words = np.array(
            int_to_words(mask_of(key_bits), self._word_count), dtype=dtype
        )
        self.valid = np.zeros((self.buckets, self.slots), dtype=bool)
        self.key_planes = np.zeros(planes, dtype=dtype)
        self.care_planes: Optional[np.ndarray] = None
        if layout.record_format.ternary:
            self.care_planes = np.empty(planes, dtype=dtype)
            self.care_planes[...] = self.width_words[:, None, None]
        self.reach = np.zeros(self.buckets, dtype=np.int64)
        self._records = np.empty((self.buckets, self.slots), dtype=object)
        self._fill_memo = False
        self.data_words = np.zeros(
            (self.buckets, self.slots, self._data_word_count), dtype=np.uint64
        )
        self.version = 0
        self._dirty = [np.ones(geometry.rows, dtype=bool) for _ in arrays]
        self._any_dirty = True
        self.sync_count = 0
        self.rows_decoded = 0
        for slice_id, array in enumerate(self._arrays):
            array.subscribe_invalidation(self._listener_for(slice_id))

    # ------------------------------------------------------------------
    # Invalidation / synchronization
    # ------------------------------------------------------------------

    def _listener_for(self, slice_id: int) -> Callable[[int, int], None]:
        dirty = self._dirty[slice_id]

        def invalidate(start_row: int, row_count: int) -> None:
            dirty[start_row : start_row + row_count] = True
            self._any_dirty = True

        return invalidate

    @property
    def key_bits(self) -> int:
        return self._key_bits

    @property
    def word_count(self) -> int:
        return self._word_count

    @property
    def key_words(self) -> np.ndarray:
        """``(buckets, slots, words)`` view of :attr:`key_planes` (no copy,
        so of the planes' dtype)."""
        return self.key_planes.transpose(1, 2, 0)

    @property
    def mask_words(self) -> np.ndarray:
        """``(buckets, slots, words)`` uint64 stored don't-care masks,
        derived from :attr:`care_planes` (zeros for binary formats); a
        read-only copy."""
        if self.care_planes is None:
            masks = np.zeros(self.key_words.shape, dtype=np.uint64)
        else:
            masks = (
                ~self.care_planes & self.width_words[:, None, None]
            ).transpose(1, 2, 0).astype(np.uint64, copy=False)
        masks.flags.writeable = False
        return masks

    @property
    def data_word_count(self) -> int:
        """Words per stored data payload (0 when records carry no data)."""
        return self._data_word_count

    @property
    def dirty_row_count(self) -> int:
        """Rows waiting to be re-decoded on the next :meth:`sync`."""
        return int(sum(int(d.sum()) for d in self._dirty))

    def sync(self) -> int:
        """Re-decode every dirty row; returns the number of rows decoded."""
        if not self._any_dirty:
            return 0
        from repro.telemetry.profiling import profile

        decoded = 0
        with profile("mirror.incremental_decode"):
            for slice_id, array in enumerate(self._arrays):
                dirty = self._dirty[slice_id]
                dirty_rows = np.flatnonzero(dirty)
                if not dirty_rows.size:
                    continue
                # With a reliability guard installed the decode source is
                # the ECC-verified read: the mirror never adopts silently
                # corrupt rows.  All dirty rows are read *before* any mirror
                # state is overwritten, so an uncorrectable row raises while
                # the last-good decode is still intact — which is what makes
                # the mirror the recovery source of truth for quarantine.
                guard = array.guard
                row_reader = (
                    array.peek_row if guard is None else guard.verified_peek
                )
                row_values = [row_reader(row) for row in dirty_rows.tolist()]
                self._decode_rows(
                    row_values,
                    self._geometry.bucket_of(slice_id, dirty_rows),
                    self._geometry.slot_offset(slice_id),
                    read_reach=self._geometry.holds_reach(slice_id),
                )
                decoded += dirty_rows.size
                dirty[:] = False
        self._any_dirty = False
        self.sync_count += 1
        self.rows_decoded += decoded
        if decoded:
            self.version += 1
        return decoded

    def _decode_rows(
        self,
        row_values: List[int],
        buckets: np.ndarray,
        slot_base: int,
        read_reach: bool,
    ) -> None:
        """Place whole physical rows, decoded by the layout's vectorized
        codec, into the planes (the assignment narrows the codec's uint64
        words to the plane dtype; they fit the key width); their memo
        entries are reset."""
        reach, valid, keys, masks, data = self._layout.decode_rows(row_values)
        if read_reach:
            self.reach[buckets] = reach
        columns = slice(slot_base, slot_base + self._geometry.slots)
        self.valid[buckets, columns] = valid
        self.key_planes[:, buckets, columns] = keys.transpose(2, 0, 1)
        if masks is not None:
            self.care_planes[:, buckets, columns] = (
                ~masks & self.width_words
            ).transpose(2, 0, 1)
        self.data_words[buckets, columns] = data
        self._records[buckets, columns] = None

    def install(
        self,
        buckets: np.ndarray,
        slots: np.ndarray,
        keys: np.ndarray,
        masks: Optional[np.ndarray],
        data: np.ndarray,
        reach: np.ndarray,
    ) -> None:
        """Adopt a bulk build's planned copies as the whole content.

        ``buckets`` / ``slots`` are each copy's ``(copies,)`` logical
        coordinates and ``keys`` / ``masks`` / ``data`` its ``(copies, W)``
        uint64 words (``masks`` is read only for ternary formats).  Every
        slot is emptied, each copy placed (narrowed to the plane dtype),
        the reach column replaced and all dirty flags cleared: the caller
        vouches that the copies are what it just loaded into the arrays,
        which skips the O(rows x slots) big-int re-decode.  The Record memo
        is left empty, for the next :meth:`records_at` to fill.
        """
        copies = (len(buckets), self._word_count)
        for name, array, shape in (
            ("slot", slots, copies[:1]),
            ("key-word", keys, copies),
            ("mask-word", keys if masks is None else masks, copies),
            ("data-word", data, copies[:1] + (self._data_word_count,)),
            ("reach", reach, self.reach.shape),
        ):
            if array.shape != shape:
                raise ConfigurationError(
                    f"{name} shape {array.shape} != {shape}"
                )
        self.valid[...] = False
        self.valid[buckets, slots] = True
        self.key_planes[...] = 0
        self.key_planes[:, buckets, slots] = keys.T
        if self.care_planes is not None:
            self.care_planes[...] = self.width_words[:, None, None]
            self.care_planes[:, buckets, slots] = (~masks & self.width_words).T
        self.data_words[...] = 0
        self.data_words[buckets, slots] = data
        self.reach[...] = reach
        self._records[...] = None
        self._fill_memo = True
        for dirty in self._dirty:
            dirty[:] = False
        self._any_dirty = False
        self.sync_count += 1
        self.version += 1

    def clear_bucket(self, bucket: int, reach: int) -> None:
        """Empty every slot of ``bucket`` in place, keeping ``reach``.

        The decoded counterpart of rewriting the bucket's rows empty (the
        reliability layer's quarantine does both, so a repeat failure
        before the next :meth:`sync` cannot re-harvest the records).
        Bumps :attr:`version` like any other content change.
        """
        self.valid[bucket] = False
        self._records[bucket] = None
        self.key_planes[:, bucket] = 0
        if self.care_planes is not None:
            self.care_planes[:, bucket] = self.width_words[:, None]
        self.data_words[bucket] = 0
        self.reach[bucket] = reach
        self.version += 1

    # ------------------------------------------------------------------
    # Vectorized ternary matching (Figure 4(b), word-major)
    # ------------------------------------------------------------------

    def plane_words(
        self, words: Optional[np.ndarray]
    ) -> Optional[np.ndarray]:
        """Query words at the plane dtype; words already there (and None)
        pass as they are.  Exact for words that fit ``key_bits``."""
        if words is None or words.dtype == self.key_planes.dtype:
            return words
        return words.astype(self.key_planes.dtype)

    def _match(
        self,
        bucket_ids: Optional[np.ndarray],
        query_words: np.ndarray,
        query_mask_words: Optional[np.ndarray],
    ) -> np.ndarray:
        """The one per-word match formula behind :meth:`match_rows` and
        :meth:`match_all`.

        For each key word: gather that plane's rows (every bucket when
        ``bucket_ids`` is None), XOR the query word in, keep only the
        cared-for bits (stored care plane for ternary formats, the query's
        ``~mask`` when one is given), and OR into one accumulator.  A slot
        matches when its accumulator is zero.  No ``& width`` term: stored
        words and batch queries (checked by
        :func:`~repro.core.batch.query_words`) both stay within
        ``key_bits``.  ``query_words`` (and the mask) are ``(B, words)`` at
        the plane dtype, or ``(1, words)`` to broadcast one query over
        every row.
        """
        care_planes = self.care_planes
        query_care = None if query_mask_words is None else ~query_mask_words
        acc = None
        for w in range(self._word_count):
            plane = self.key_planes[w]
            diff = plane.copy() if bucket_ids is None else plane[bucket_ids]
            diff ^= query_words[:, w, None]
            if care_planes is not None:
                care = care_planes[w]
                diff &= care if bucket_ids is None else care[bucket_ids]
            if query_care is not None:
                diff &= query_care[:, w, None]
            if acc is None:
                acc = diff
            else:
                acc |= diff
        valid = self.valid if bucket_ids is None else self.valid[bucket_ids]
        return (acc == 0) & valid

    def match_rows(
        self,
        bucket_ids: np.ndarray,
        query_words: np.ndarray,
        query_mask_words: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Match a batch of queries against their (gathered) home buckets.

        Args:
            bucket_ids: ``(B,)`` bucket index per query.
            query_words: ``(B, words)`` packed search keys, uint64 or
                already at the plane dtype.
            query_mask_words: ``(B, words)`` packed search-key don't-care
                masks, or None for all-binary searches.

        Returns:
            ``(B, slots)`` bool match matrix, slot 0 first.

        Precondition: every query and mask word fits ``key_bits`` (as
        :func:`~repro.core.batch.query_words` checks once per batch).
        Words that arrive wider than the planes are cast to the plane
        dtype, which is exact only then: a 32-bit plane would otherwise
        drop a query's high bits and report a false match.

        Raises:
            ConfigurationError: on out-of-range bucket ids (negative ids
                would otherwise wrap around silently), or a query or mask
                matrix that is not ``(B, words)`` — a narrower mask would
                otherwise broadcast one word's bits over the others.
        """
        ids = np.asarray(bucket_ids)
        if ids.size and (
            int(ids.min()) < 0 or int(ids.max()) >= self.buckets
        ):
            raise ConfigurationError(
                f"bucket ids out of range [0, {self.buckets})"
            )
        if query_words.ndim != 2 or query_words.shape[1] != self._word_count:
            raise ConfigurationError(
                f"query matrix must be (B, {self._word_count}), "
                f"got {query_words.shape}"
            )
        if (
            query_mask_words is not None
            and query_mask_words.shape != query_words.shape
        ):
            raise ConfigurationError(
                f"query mask matrix must be {query_words.shape}, "
                f"got {query_mask_words.shape}"
            )
        return self._match(
            ids,
            self.plane_words(query_words),
            self.plane_words(query_mask_words),
        )

    def match_all(
        self, query_words: np.ndarray, query_mask_words: np.ndarray
    ) -> np.ndarray:
        """Match one ternary predicate against every bucket.

        Args:
            query_words / query_mask_words: ``(words,)`` packed predicate
                within ``key_bits``.

        Returns:
            ``(buckets, slots)`` bool match matrix.
        """
        shape = (1, self._word_count)
        return self._match(
            None,
            self.plane_words(query_words.reshape(shape)),
            self.plane_words(query_mask_words.reshape(shape)),
        )

    def match_predicate(self, search_key: int, search_mask: int) -> np.ndarray:
        """Integer-predicate convenience wrapper around :meth:`match_all`."""
        full = mask_of(self._key_bits)
        query = np.array(
            int_to_words(search_key & full, self._word_count), dtype=np.uint64
        )
        query_mask = np.array(
            int_to_words(search_mask & full, self._word_count), dtype=np.uint64
        )
        return self.match_all(query, query_mask)

    def records_at(self, buckets, slots) -> List[Optional[Record]]:
        """The stored ``Record`` at each ``(bucket, slot)``, None where the
        slot is empty.

        A Record is built from the planes the first time it is asked for
        and kept until its row is re-decoded, installed or cleared.  The
        first call after an :meth:`install` that misses the memo builds
        the Record of every valid slot in one pass, so the lookups after a
        build find theirs present; re-decoded rows refill slot by slot.
        """
        gathered = self._records[buckets, slots]
        if np.count_nonzero(gathered) < gathered.size:
            if self._fill_memo:
                self._fill_memo = False
                b, s = np.nonzero(self.valid)
            else:
                buckets, slots = np.asarray(buckets), np.asarray(slots)
                missing = ~gathered.astype(bool) & self.valid[buckets, slots]
                b, s = buckets[missing], slots[missing]
            built = np.empty(b.size, dtype=object)
            built[:] = records_from_words(*self._fields_at(b, s), self._key_bits)
            self._records[b, s] = built
            gathered = self._records[buckets, slots]
        return gathered.tolist()

    def _fields_at(self, buckets, slots):
        """``(keys, masks, data)`` uint64 words of the given slots, one row
        per slot (``masks`` is None for binary formats)."""
        keys = self.key_planes[:, buckets, slots].T
        masks = None
        if self.care_planes is not None:
            care = self.care_planes[:, buckets, slots]
            masks = (~care & self.width_words[:, None]).T
            masks = masks.astype(np.uint64, copy=False)
        keys = keys.astype(np.uint64, copy=False)
        return keys, masks, self.data_words[buckets, slots]

    def row_dirty(self, slice_id: int, row: int) -> bool:
        """Whether a physical row awaits re-decode."""
        return bool(self._dirty[slice_id][row])

    def row_value(self, slice_id: int, row: int) -> int:
        """The row value the mirror's decode of one physical row encodes
        to — what the row held when it was last decoded (or installed)."""
        geometry = self._geometry
        bucket = geometry.bucket_of(slice_id, row)
        first = geometry.slot_offset(slice_id)
        row_slots = np.flatnonzero(
            self.valid[bucket, first : first + geometry.slots]
        )
        buckets = np.full(row_slots.size, bucket)
        keys, masks, data = self._fields_at(buckets, first + row_slots)
        return self._layout.encode_rows(
            1,
            self.reach[[bucket]] if geometry.holds_reach(slice_id) else None,
            np.zeros(row_slots.size, dtype=np.int64),
            row_slots,
            keys,
            masks,
            data,
        )[0]

    def iter_valid(self):
        """Yield ``(bucket, slot, record)`` for every valid slot, row-major
        (bucket ascending, slot ascending — the scalar iteration order)."""
        buckets, slots = np.nonzero(self.valid)
        yield from zip(
            buckets.tolist(), slots.tolist(), self.records_at(buckets, slots)
        )


__all__ = [
    "DecodedMirror",
    "KEY_WORD_BITS",
    "plane_dtype",
    "words_for_bits",
    "int_to_words",
    "keys_to_words",
    "records_to_words",
    "records_from_words",
    "words_to_ints",
    "words_to_bits",
    "bits_to_words",
    "rows_from_bits",
]
