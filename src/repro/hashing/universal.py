"""Alternative hash families for the hash-function ablation study.

Section 4.3 concludes that "the cost and performance of CA-RAM is contingent
upon the effectiveness of the hash function".  The ablation bench quantifies
that by swapping the paper's two choices (bit selection, DJB) against the
classic families implemented here: FNV-1a, Knuth's multiplicative method,
and tabulation hashing (3-independent, the strongest of the set).

All three accept either integer keys or byte strings; integers are hashed
over their big-endian byte representation so the families are directly
comparable on both application workloads.
"""

from __future__ import annotations

from typing import Sequence, Union

import numpy as np

from repro.errors import ConfigurationError
from repro.hashing.base import HashFunction
from repro.utils.rng import SeedLike, make_rng

BytesLike = Union[bytes, bytearray, str]
Key = Union[int, BytesLike]

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_KNUTH_MULTIPLIER = 0x9E3779B97F4A7C15  # 2**64 / golden ratio


def _key_bytes(key: Key) -> bytes:
    if isinstance(key, int):
        length = max(1, (key.bit_length() + 7) // 8)
        return key.to_bytes(length, "big")
    if isinstance(key, str):
        return key.encode("ascii")
    return bytes(key)


def fnv1a_64(key: Key) -> int:
    """64-bit FNV-1a hash of a key's byte representation."""
    h = _FNV_OFFSET
    for byte in _key_bytes(key):
        h ^= byte
        h = (h * _FNV_PRIME) & 0xFFFF_FFFF_FFFF_FFFF
    return h


class FNV1aHash(HashFunction):
    """FNV-1a reduced modulo the bucket count."""

    def __call__(self, key: Key) -> int:
        return fnv1a_64(key) % self.bucket_count

    def rebucketed(self, bucket_count: int) -> "FNV1aHash":
        return FNV1aHash(bucket_count)


class MultiplicativeHash(HashFunction):
    """Knuth's multiplicative hashing for integer keys.

    ``h(k) = ((k * A) mod 2**64) >> (64 - R)`` — takes the high bits of a
    golden-ratio multiply.  Requires a power-of-two bucket count.
    """

    def __init__(self, bucket_count: int, multiplier: int = _KNUTH_MULTIPLIER) -> None:
        if bucket_count & (bucket_count - 1):
            raise ConfigurationError(
                f"MultiplicativeHash needs a power-of-two bucket count, "
                f"got {bucket_count}"
            )
        super().__init__(bucket_count)
        if multiplier % 2 == 0:
            raise ConfigurationError("multiplier must be odd")
        self._multiplier = multiplier
        self._shift = 64 - self.index_bits

    def __call__(self, key: int) -> int:
        product = (int(key) * self._multiplier) & 0xFFFF_FFFF_FFFF_FFFF
        return product >> self._shift

    def index_many(self, keys: Sequence[int]) -> np.ndarray:
        arr = np.asarray(keys, dtype=np.uint64)
        product = arr * np.uint64(self._multiplier)  # wraps mod 2**64
        return (product >> np.uint64(self._shift)).astype(np.int64)

    def index_words(self, words: np.ndarray) -> np.ndarray:
        """:meth:`index_many` over a ``(n, 1)`` uint64 word matrix of
        one-word keys; wider matrices raise ``OverflowError``, as
        :meth:`index_many` does for keys past 64 bits."""
        if words.shape[1] != 1:
            raise OverflowError(
                "MultiplicativeHash hashes one-word keys as words"
            )
        return self.index_many(words[:, 0])

    def rebucketed(self, bucket_count: int) -> "MultiplicativeHash":
        return MultiplicativeHash(bucket_count, self._multiplier)


class TabulationHash(HashFunction):
    """Simple tabulation hashing over the key's byte representation.

    One random 64-bit table per byte position (up to ``max_key_bytes``),
    XORed together.  3-independent, a strong reference point for "how good
    can a practical hash get" in the ablation.
    """

    def __init__(
        self,
        bucket_count: int,
        max_key_bytes: int = 16,
        seed: SeedLike = None,
    ) -> None:
        super().__init__(bucket_count)
        if max_key_bytes <= 0:
            raise ConfigurationError(
                f"max_key_bytes must be positive: {max_key_bytes}"
            )
        self._max_key_bytes = max_key_bytes
        self._seed = seed
        rng = make_rng(seed)
        self._tables = rng.integers(
            0, 2**63, size=(max_key_bytes, 256), dtype=np.int64
        ).astype(np.uint64)

    def __call__(self, key: Key) -> int:
        data = _key_bytes(key)
        if len(data) > self._max_key_bytes:
            raise ConfigurationError(
                f"key of {len(data)} bytes exceeds max_key_bytes "
                f"{self._max_key_bytes}"
            )
        h = np.uint64(len(data))  # mix in the length to separate prefixes
        for position, byte in enumerate(data):
            h ^= self._tables[position, byte]
        return int(h) % self.bucket_count

    def rebucketed(self, bucket_count: int) -> "TabulationHash":
        return TabulationHash(bucket_count, self._max_key_bytes, self._seed)


__all__ = [
    "fnv1a_64",
    "FNV1aHash",
    "MultiplicativeHash",
    "TabulationHash",
]
