"""The DJB string hash used by the trigram application.

Section 4.2: "we use the DJB hash function, which is an efficient string
hash function.  The function looks like:
``hash(i) = [hash(i-1) << 5] + hash(i-1) + str[i]``.  This method has been
also used in the software hashing technique in Sphinx."

This module provides the scalar reference (:func:`djb2_bytes`), the
:class:`DJBHash` bucket-mapping wrapper, and one vectorized kernel,
:func:`djb2_padded`, that hashes millions of strings in closed form from a
zero-padded byte matrix — the full-scale trigram database has 5.39M
entries, far too many for a per-string Python loop in the analytics path.
"""

from __future__ import annotations

import functools
from typing import Iterator, Sequence, Union

import numpy as np

from repro.errors import ConfigurationError
from repro.hashing.base import HashFunction

DJB_SEED = 5381
_MOD = 1 << 32
#: 33 is odd, so it is a unit mod 2**32: a padding zero byte multiplies a
#: hash by 33, and this inverse takes the factor back out.
_INVERSE_33 = pow(33, -1, _MOD)

#: Rows per pass of :func:`djb2_padded`'s callers.  It bounds the uint32
#: widening of the byte matrix (4 MiB for a chunk of 16-byte keys) however
#: many rows come in; the trigram build hashes 168,288 keys in one call.
CHUNK_ROWS = 1 << 16

BytesLike = Union[bytes, bytearray, str]


def _as_bytes(key: BytesLike) -> bytes:
    if isinstance(key, str):
        return key.encode("ascii")
    return bytes(key)


def djb2_bytes(key: BytesLike, seed: int = DJB_SEED) -> int:
    """Scalar DJB (a.k.a. djb2) hash of a byte string, truncated to 32 bits.

    >>> djb2_bytes(b"") == DJB_SEED
    True
    """
    h = seed
    for byte in _as_bytes(key):
        h = ((h << 5) + h + byte) & 0xFFFF_FFFF
    return h


#: Longest string :func:`pack_strings` takes: its length column is a byte.
MAX_PACKED_LENGTH = 255


def pack_strings(keys: Sequence[BytesLike], max_length: int) -> np.ndarray:
    """Pack variable-length strings into a zero-padded (N, max_length) byte
    matrix, with an extra last column holding each string's length.

    :func:`djb2_matrix` hashes this layout.  The length column is uint8,
    so a string longer than :data:`MAX_PACKED_LENGTH` bytes raises
    :class:`~repro.errors.ConfigurationError`.
    """
    count = len(keys)
    packed = np.zeros((count, max_length + 1), dtype=np.uint8)
    for i, key in enumerate(keys):
        data = _as_bytes(key)
        if len(data) > max_length:
            raise ConfigurationError(
                f"key of length {len(data)} exceeds max_length {max_length}"
            )
        if len(data) > MAX_PACKED_LENGTH:
            raise ConfigurationError(
                f"key of length {len(data)} exceeds the "
                f"{MAX_PACKED_LENGTH}-byte limit of the packed length column"
            )
        packed[i, : len(data)] = np.frombuffer(data, dtype=np.uint8)
        packed[i, max_length] = len(data)
    return packed


@functools.lru_cache(maxsize=256)
def _powers(base: int, count: int) -> np.ndarray:
    """``base**j mod 2**32`` for ``j < count``, read-only uint32.  Cached
    per row width; bounded, since ``index_many`` takes strings of any
    length."""
    powers = np.array(
        [pow(base, j, _MOD) for j in range(count)], dtype=np.uint32
    )
    powers.setflags(write=False)
    return powers


def row_chunks(count: int) -> Iterator[slice]:
    """Slices of at most :data:`CHUNK_ROWS` rows covering ``range(count)``."""
    for start in range(0, count, CHUNK_ROWS):
        yield slice(start, start + CHUNK_ROWS)


def djb2_padded(
    data: np.ndarray, padding: np.ndarray, seed: int = DJB_SEED
) -> np.ndarray:
    """DJB of zero-padded byte rows in closed form — the one DJB kernel.

    Row ``r`` of the ``(n, W)`` byte matrix ``data`` is a string of
    ``W - padding[r]`` bytes followed by ``padding[r]`` zero bytes, stored
    last byte first: column ``j`` holds byte ``W - 1 - j`` of the padded
    row (the order in which little-endian words hold a big-endian key).

    Unrolled over the padded row, the recurrence is one dot product:
    ``H_W = seed * 33**W + sum_j data[:, j] * 33**j (mod 2**32)``.  Each
    padding byte only multiplied the hash by 33, and 33 is odd, hence
    invertible mod 2**32, so the string's own hash is
    ``H_W * (33**-1)**padding``.  uint32 arithmetic wraps mod 2**32 as DJB
    does.  Returns uint32 hashes, row for row :func:`djb2_bytes`.
    """
    width = data.shape[1]
    hashes = data.astype(np.uint32) @ _powers(33, width)
    hashes += np.uint32(seed * pow(33, width, _MOD) % _MOD)
    hashes *= _powers(_INVERSE_33, width + 1)[padding]
    return hashes


def djb2_matrix(packed: np.ndarray, seed: int = DJB_SEED) -> np.ndarray:
    """Vectorized DJB over a packed byte matrix from :func:`pack_strings`.

    A row's length column decides where its string ends; bytes past it
    are ignored.  Returns uint64 hashes equal to :func:`djb2_bytes` per
    row.
    """
    if packed.ndim != 2 or packed.shape[1] < 2:
        raise ConfigurationError("packed must be a (N, max_length+1) matrix")
    width = packed.shape[1] - 1
    # String position of each column of the reversed byte matrix.
    positions = np.arange(width - 1, -1, -1)
    hashes = np.empty(packed.shape[0], dtype=np.uint64)
    for rows in row_chunks(packed.shape[0]):
        lengths = np.minimum(packed[rows, width], width).astype(np.intp)
        data = np.where(
            positions < lengths[:, None], packed[rows, width - 1 :: -1], 0
        )
        hashes[rows] = djb2_padded(data, width - lengths, seed)
    return hashes


class DJBHash(HashFunction):
    """DJB string hash reduced to a bucket index.

    The reduction is modulo when ``bucket_count`` is not a power of two, and
    a low-bit mask otherwise (what a hardware index generator would do).
    """

    def __init__(self, bucket_count: int, seed: int = DJB_SEED) -> None:
        super().__init__(bucket_count)
        self._seed = seed
        self._mask = (
            bucket_count - 1 if bucket_count & (bucket_count - 1) == 0 else None
        )

    @property
    def seed(self) -> int:
        return self._seed

    def _reduce(self, h: int) -> int:
        if self._mask is not None:
            return h & self._mask
        return h % self.bucket_count

    def __call__(self, key: BytesLike) -> int:
        return self._reduce(djb2_bytes(key, self._seed))

    def index_many(self, keys: Sequence[BytesLike]) -> np.ndarray:
        """Bucket indices of strings of any length: each one, zero-padded
        to the longest and reversed, goes to :func:`djb2_padded` with its
        padding."""
        strings = [_as_bytes(k) for k in keys]
        lengths = np.fromiter(map(len, strings), np.intp, len(strings))
        # At least one byte column, so a batch of empty strings hashes too.
        width = max(int(lengths.max(initial=0)), 1)
        data = np.frombuffer(
            b"".join(s.ljust(width, b"\0")[::-1] for s in strings),
            dtype=np.uint8,
        ).reshape(len(strings), width)
        hashes = np.empty(len(strings), dtype=np.uint64)
        for rows in row_chunks(len(strings)):
            hashes[rows] = djb2_padded(
                data[rows], width - lengths[rows], self._seed
            )
        return self._reduce_many(hashes)

    def index_packed(self, packed: np.ndarray) -> np.ndarray:
        """Bucket indices for a pre-packed byte matrix (the fast path the
        trigram generator uses, skipping re-packing)."""
        return self._reduce_many(djb2_matrix(packed, self._seed))

    def _reduce_many(self, hashes: np.ndarray) -> np.ndarray:
        """:meth:`_reduce` over a uint64 hash array, as int64 indices."""
        if self._mask is not None:
            return (hashes & np.uint64(self._mask)).astype(np.int64)
        return (hashes % np.uint64(self.bucket_count)).astype(np.int64)

    def rebucketed(self, bucket_count: int) -> "DJBHash":
        return DJBHash(bucket_count, self._seed)


__all__ = [
    "DJB_SEED",
    "CHUNK_ROWS",
    "djb2_bytes",
    "pack_strings",
    "row_chunks",
    "djb2_padded",
    "djb2_matrix",
    "DJBHash",
]
