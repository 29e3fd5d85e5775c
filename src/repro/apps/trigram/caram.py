"""Behavioral CA-RAM construction for trigram lookup.

The core model stores integer keys; trigram strings are mapped through a
fixed-width codec (16 bytes, zero-padded — the paper's 128-bit key) and
hashed by DJB over the un-padded bytes, exactly as the hardware index
generator would consume the key register.

Used by examples and integration tests at small scale; the Table 3
analytics run through the vectorized :mod:`repro.apps.trigram.evaluate`.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.apps.trigram.designs import (
    KEYS_PER_ROW,
    TRIGRAM_KEY_BITS,
    TrigramDesign,
)
from repro.core.config import SliceConfig
from repro.core.record import RecordFormat
from repro.core.subsystem import SliceGroup
from repro.errors import KeyFormatError
from repro.hashing.base import HashFunction
from repro.hashing.djb import djb2_bytes, djb2_padded, row_chunks
from repro.memory.mirror import keys_to_words

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.reliability.faults import FaultConfig
    from repro.reliability.manager import ReliabilityPolicy
    from repro.telemetry.metrics import MetricsRegistry
    from repro.telemetry.trace import Tracer

BytesLike = Union[bytes, bytearray, str]

_KEY_BYTES = TRIGRAM_KEY_BITS // 8
_KEY_WORDS = _KEY_BYTES // 8
#: The batch parse's string width: one byte past the key, so NumPy's
#: truncating conversion leaves a nonzero last byte on an over-long key.
_PARSE_DTYPE = f"S{_KEY_BYTES + 1}"


class StringKeyCodec:
    """Fixed-width string <-> integer key conversion.

    Strings are zero-padded to 16 bytes, big-endian.  NUL bytes are
    rejected (they would be ambiguous with padding), matching the text
    domain of the application.
    """

    key_bits = TRIGRAM_KEY_BITS

    @staticmethod
    def encode(key: BytesLike) -> int:
        data = key.encode("ascii") if isinstance(key, str) else bytes(key)
        if len(data) > _KEY_BYTES:
            raise KeyFormatError(
                f"string of {len(data)} bytes exceeds the {_KEY_BYTES}-byte key"
            )
        if b"\x00" in data:
            raise KeyFormatError("string keys must not contain NUL bytes")
        return int.from_bytes(data.ljust(_KEY_BYTES, b"\x00"), "big")

    @staticmethod
    def decode(value: int) -> bytes:
        raw = int(value).to_bytes(_KEY_BYTES, "big")
        return raw.rstrip(b"\x00")

    @staticmethod
    def encode_batch(keys: Sequence[BytesLike]) -> np.ndarray:
        """Vectorized :meth:`encode` of a whole string array, as words.

        Parses every key in one NumPy conversion, to fixed-width strings
        one byte wider than the key, and returns them as a
        ``(len(keys), 2)`` uint64 matrix of little-endian 64-bit words:
        row ``i`` is :func:`~repro.memory.mirror.keys_to_words` of
        ``encode(keys[i])``, the form
        :meth:`SliceGroup.search_batch_columnar` takes, with no Python
        int per string.  A nonzero last byte marks an over-long key.
        Validation is the scalar path's: over-long keys and embedded NUL
        bytes raise :class:`~repro.errors.KeyFormatError`, non-ASCII text
        raises ``UnicodeEncodeError``.  One divergence: NUL bytes that end
        a key's first 17 bytes fold into the padding here (NumPy's
        fixed-width byte storage cannot distinguish them), where the
        scalar encoder rejects them.  So *trailing* NUL bytes are
        accepted, and a NUL 17th byte hides the bytes after it.
        """
        try:
            strings = np.asarray(keys, dtype=_PARSE_DTYPE)
        except ValueError:
            strings = None
        if strings is None or strings.ndim != 1:
            # NumPy reads a bytearray as a sequence of ints: a batch of
            # them comes out 2-D, or raises when lengths or kinds mix.
            keys = [
                bytes(key) if isinstance(key, bytearray) else key
                for key in keys
            ]
            strings = np.asarray(keys, dtype=_PARSE_DTYPE)
        # One row of bytes per string (the unit axis keeps a strided
        # input array viewable).
        rows = strings.reshape(-1, 1).view(np.uint8)
        overlong = rows[:, _KEY_BYTES]
        if overlong.any():
            # The parse truncated the key; the caller's string (ASCII, if
            # text) still has its length.
            length = len(keys[int(np.argmax(overlong != 0))])
            raise KeyFormatError(
                f"string of {length} bytes exceeds the {_KEY_BYTES}-byte key"
            )
        matrix = rows[:, :_KEY_BYTES]
        # An embedded NUL is a zero byte followed by a nonzero byte;
        # trailing zeros are the padding.
        if (matrix[:, :-1] < (matrix[:, 1:] != 0)).any():
            raise KeyFormatError("string keys must not contain NUL bytes")
        # Each row is one big-endian 128-bit key: its second 8 bytes are
        # the low word.
        return matrix.view(">u8")[:, ::-1].astype(np.uint64)


class PackedStringDJBHash(HashFunction):
    """DJB hash over integer-packed string keys.

    The integer key is decoded back to its byte string (padding stripped)
    and DJB-hashed — the same function the analytics path applies directly
    to the packed byte matrix, so behavioral and vectorized paths agree.
    """

    def __call__(self, key: int) -> int:
        return djb2_bytes(StringKeyCodec.decode(int(key))) % self.bucket_count

    def index_many(self, keys: Sequence[int]) -> np.ndarray:
        """Vectorized bucket mapping of packed 128-bit keys."""
        return self.index_words(keys_to_words(list(keys), TRIGRAM_KEY_BITS))

    def index_words(self, words: np.ndarray) -> np.ndarray:
        """Bucket mapping of keys already packed as little-endian 64-bit
        words (:func:`~repro.memory.mirror.keys_to_words` at 128 bits).

        Reads each string straight from the words: their byte view holds
        the zero-padded string last byte first, the order
        :func:`~repro.hashing.djb.djb2_padded` takes, and a row's padding
        is the trailing zero bytes of word 0, then of word 1 (the string
        ends at its last nonzero byte, as ``__call__``'s decode strips
        it).  Row for row equal to the scalar ``__call__``.
        """
        if words.shape[1] != _KEY_WORDS:
            raise KeyFormatError(
                f"packed string keys are {TRIGRAM_KEY_BITS}-bit "
                f"({_KEY_WORDS} words), got {words.shape[1]} words"
            )
        words = np.ascontiguousarray(words, dtype="<u8")
        buckets = np.empty(len(words), dtype=np.int64)
        # uint64, so bucket counts past 32 bits stay exact.
        divisor = np.uint64(self.bucket_count)
        for rows in row_chunks(len(words)):
            chunk = words[rows]
            # Trailing zero bytes per word: (x & -x) - 1 sets exactly the
            # trailing zero bits (all 64 for a zero word, so 8 bytes).
            trailing = np.bitwise_count((chunk & -chunk) - np.uint64(1)) >> 3
            padding = trailing[:, 0] + (trailing[:, 0] >> 3) * trailing[:, 1]
            hashes = djb2_padded(chunk.view(np.uint8), padding)
            np.remainder(hashes, divisor, out=buckets[rows])
        return buckets

    def rebucketed(self, bucket_count: int) -> "PackedStringDJBHash":
        return PackedStringDJBHash(bucket_count)


def trigram_record_format(probability_bits: int = 16) -> RecordFormat:
    """Stored record: 128-bit binary key + quantized probability."""
    return RecordFormat(
        key_bits=TRIGRAM_KEY_BITS, data_bits=probability_bits, ternary=False
    )


def trigram_slice_config(
    design: TrigramDesign, probability_bits: int = 16
) -> SliceConfig:
    """Slice geometry for a (possibly scaled) Table 3 design."""
    record_format = trigram_record_format(probability_bits)
    aux_bits = 8
    row_bits = aux_bits + KEYS_PER_ROW * record_format.slot_bits
    return SliceConfig(
        index_bits=design.index_bits,
        row_bits=row_bits,
        record_format=record_format,
        aux_bits=aux_bits,
    )


def build_trigram_caram(
    entries: Iterable[Tuple[BytesLike, int]],
    design: TrigramDesign,
    probability_bits: int = 16,
    tracer: Optional["Tracer"] = None,
    registry: Optional["MetricsRegistry"] = None,
    reliability: Optional["ReliabilityPolicy"] = None,
    faults: Optional["FaultConfig"] = None,
) -> SliceGroup:
    """Build and load a behavioral CA-RAM for a trigram database.

    Args:
        entries: (trigram string, probability payload) pairs.
        design: the target design (scale it down for behavioral runs).
        tracer: optional structured-event tracer, attached before the load
            so the bulk-build events are captured.
        registry: optional metrics registry; the group's counters mount
            under its ``trigram-<design>`` name.
        reliability / faults: optional
            :class:`~repro.reliability.manager.ReliabilityPolicy` and
            :class:`~repro.reliability.faults.FaultConfig`; when either is
            given, the ECC/fault layer is enabled after the load so the
            checkwords protect the installed image.
    """
    group = SliceGroup(
        config=trigram_slice_config(design, probability_bits),
        slice_count=design.slice_count,
        arrangement=design.arrangement,
        hash_function=PackedStringDJBHash(design.bucket_count),
        name=f"trigram-{design.name}",
    )
    if tracer is not None:
        group.tracer = tracer
    if registry is not None:
        group.register_telemetry(registry)
    pairs = list(entries)
    group.bulk_load(
        StringKeyCodec.encode_batch([text for text, _ in pairs]),
        [probability for _, probability in pairs],
    )
    if reliability is not None or faults is not None:
        group.enable_reliability(reliability, faults)
    return group


def trigram_lookup(group: SliceGroup, text: BytesLike) -> Optional[int]:
    """Exact-match lookup of one trigram string."""
    result = group.search(StringKeyCodec.encode(text))
    return result.data if result.hit else None


def trigram_lookup_batch(
    group: SliceGroup, texts: Sequence[BytesLike]
) -> List[Optional[int]]:
    """Vectorized exact-match lookup of many trigram strings at once.

    Results and statistics match per-string :func:`trigram_lookup` calls.
    :meth:`StringKeyCodec.encode_batch` turns the strings into one
    ``(n, 2)`` word matrix, which the batch kernel takes as its key form,
    so no Python int is made per string.  Probabilities come straight
    from the columnar result set's packed data words
    (:meth:`BatchResultSet.data_values`) — no per-string
    ``SearchResult`` materialization.
    """
    words = StringKeyCodec.encode_batch(texts)
    return group.search_batch_columnar(words).data_values()


__all__ = [
    "StringKeyCodec",
    "PackedStringDJBHash",
    "trigram_record_format",
    "trigram_slice_config",
    "build_trigram_caram",
    "trigram_lookup",
    "trigram_lookup_batch",
]
