"""The hash-function interface shared by software tables and CA-RAM index
generators.

A :class:`HashFunction` maps a key to a bucket index in ``[0, bucket_count)``.
The CA-RAM index generator (Section 3.1) is exactly such a function realized
in hardware; the software hashing baseline (Section 2.1) uses the same
interface, which is what lets the application studies swap hash strategies
(bit selection for IP lookup, DJB for trigrams) without touching the rest of
the stack.

Keys may be integers (fixed-width bit vectors, e.g. IP addresses) or byte
strings (e.g. trigram text).  Concrete functions document which they accept.
``index_many`` is the vectorized entry point used by the large-database
analytics; the default implementation falls back to a Python loop, and the
hot functions override it with numpy kernels.
"""

from __future__ import annotations

import abc
from typing import Any, Sequence

import numpy as np

from repro.errors import ConfigurationError


class HashFunction(abc.ABC):
    """Maps keys to bucket indices in ``[0, bucket_count)``."""

    def __init__(self, bucket_count: int) -> None:
        if bucket_count <= 0:
            raise ConfigurationError(
                f"bucket_count must be positive, got {bucket_count}"
            )
        self._bucket_count = bucket_count

    @property
    def bucket_count(self) -> int:
        """Number of buckets this function hashes into (the paper's ``M``)."""
        return self._bucket_count

    @property
    def index_bits(self) -> int:
        """Bits needed to express a bucket index (the paper's ``R``)."""
        return max(1, (self._bucket_count - 1).bit_length())

    @abc.abstractmethod
    def __call__(self, key: Any) -> int:
        """Return the bucket index of ``key``."""

    def index_many(self, keys: Sequence[Any]) -> np.ndarray:
        """Vectorized mapping of many keys; returns an int64 index array."""
        return np.fromiter(
            (self(key) for key in keys), dtype=np.int64, count=len(keys)
        )

    def rebucketed(self, bucket_count: int) -> "HashFunction":
        """Return a variant of this function with a different bucket count.

        Subclasses that cannot be re-bucketed may raise
        :class:`ConfigurationError`.
        """
        raise ConfigurationError(
            f"{type(self).__name__} does not support re-bucketing"
        )


class ModuloHash(HashFunction):
    """The simplest integer hash: ``key % bucket_count``.

    Useful as a reference point in the hash-function ablation and for
    synthetic uniform keys, where modulo is already near-ideal.
    """

    def __call__(self, key: int) -> int:
        return int(key) % self.bucket_count

    def index_many(self, keys: Sequence[int]) -> np.ndarray:
        arr = np.asarray(keys, dtype=np.uint64)
        return (arr % np.uint64(self.bucket_count)).astype(np.int64)

    def index_words(self, words: np.ndarray) -> np.ndarray:
        """:meth:`index_many` over a ``(n, 1)`` uint64 word matrix of
        one-word keys; wider matrices raise ``OverflowError``, as
        :meth:`index_many` does for keys past 64 bits."""
        if words.shape[1] != 1:
            raise OverflowError("ModuloHash hashes one-word keys as words")
        return self.index_many(words[:, 0])

    def rebucketed(self, bucket_count: int) -> "ModuloHash":
        return ModuloHash(bucket_count)


__all__ = ["HashFunction", "ModuloHash"]
