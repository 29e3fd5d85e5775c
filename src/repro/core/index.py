"""The index generator: the hash function realized in front of the array.

"The task of the index generator is to create an R-bit index from an N-bit
key input. ... In many applications, index generation is as simple as bit
selection ... In other cases, simple arithmetic functions ... may be
necessary.  Depending on the application requirements, a small degree of
programmability in index generation can be employed." (Section 3.1)

:class:`IndexGenerator` adapts any :class:`~repro.hashing.base.HashFunction`
to the slice's row space and adds the two ternary interactions Section 4
identifies:

* stored keys with don't-care bits inside the hash-bit positions must be
  *duplicated* across all matching rows (``indices_for_stored``);
* search keys with don't-care bits over hash positions must *probe* all
  matching rows (``indices_for_search``).

Both enumerations are only well-defined for bit-selection hashing, where the
affected index bits are identifiable; for other hash families a masked key
is rejected, mirroring the real design constraint.
"""

from __future__ import annotations

from typing import List, Optional, Tuple, Union

import numpy as np

from repro.errors import ConfigurationError, KeyFormatError
from repro.core.key import TernaryKey
from repro.hashing.base import HashFunction
from repro.hashing.bit_select import BitSelectHash
from repro.memory.mirror import int_to_words, words_to_ints

KeyInput = Union[int, bytes, str, TernaryKey]


class IndexGenerator:
    """Maps keys to row indices of one slice (or slice group).

    Args:
        hash_function: the underlying mapping; its ``bucket_count`` must
            equal the row count it will index.
        rows: expected row count, validated against the hash function.
    """

    def __init__(self, hash_function: HashFunction, rows: int) -> None:
        if hash_function.bucket_count != rows:
            raise ConfigurationError(
                f"hash function addresses {hash_function.bucket_count} "
                f"buckets but the array has {rows} rows"
            )
        self._hash = hash_function
        self._rows = rows

    @property
    def rows(self) -> int:
        return self._rows

    @property
    def hash_function(self) -> HashFunction:
        return self._hash

    def _raw_key(self, key: KeyInput) -> Union[int, bytes, str]:
        if isinstance(key, TernaryKey):
            return key.value
        return key

    def index(self, key: KeyInput) -> int:
        """Row index of a key (don't-care bits, if any, read as zero)."""
        return self._hash(self._raw_key(key))

    def _hash_positions_hit(self, key: TernaryKey) -> List[int]:
        """Don't-care positions of ``key`` that feed the index, if knowable."""
        if not isinstance(self._hash, BitSelectHash):
            if key.mask:
                raise KeyFormatError(
                    f"{type(self._hash).__name__} cannot enumerate rows for "
                    "a key with don't-care bits; use bit-selection hashing"
                )
            return []
        return [p for p in self._hash.positions if key.bit(p) == "X"]

    def indices_for_stored(self, key: KeyInput) -> List[int]:
        """All rows a stored key must be duplicated into.

        A binary key maps to one row.  A ternary key with ``n`` don't-care
        bits in hash positions maps to ``2**n`` rows (Section 4.1's
        duplication rule).
        """
        if not isinstance(key, TernaryKey) or key.is_binary:
            return [self.index(key)]
        hit = self._hash_positions_hit(key)
        if not hit:
            return [self.index(key)]
        rows = []
        for expanded in key.expand_positions(hit):
            rows.append(self._hash(expanded.value))
        return sorted(set(rows))

    def indices_for_search(self, key: KeyInput, search_mask: int = 0) -> List[int]:
        """All rows a search must visit.

        A search key with don't-care bits over hash positions forces
        multi-row probing ("if the search key contains don't care bits which
        are taken by the hash function, multiple buckets must be accessed",
        Section 4).
        """
        if isinstance(key, TernaryKey):
            probe_key = key
        else:
            if not search_mask:
                return [self.index(key)]
            if not isinstance(key, int):
                raise KeyFormatError(
                    "search_mask is only meaningful for integer keys"
                )
            width = getattr(self._hash, "key_width", None)
            if width is None:
                raise KeyFormatError(
                    f"{type(self._hash).__name__} cannot enumerate rows for "
                    "a masked search key"
                )
            probe_key = TernaryKey(value=key, mask=search_mask, width=width)
        return self.indices_for_stored(probe_key)

    def indices_batch(
        self,
        words: np.ndarray,
        mask_words: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Vectorized home-row generation for a whole key array.

        The single-home common case (binary search keys, or don't-care bits
        that avoid the hash positions) is resolved with one vectorized hash
        evaluation; keys that need the Section-4 multi-row enumeration —
        don't-care bits over hash positions, or a hash family that cannot
        enumerate masked keys — are flagged for the scalar
        :meth:`indices_for_search` path instead.

        Args:
            words: ``(n, words)`` uint64 key matrix (see
                :func:`repro.memory.mirror.keys_to_words`), don't-care bits
                zeroed.
            mask_words: don't-care masks in the same form, or None when the
                whole batch is binary.

        A hash without an ``index_words`` kernel, or whose kernel refuses
        the key width with ``OverflowError``, gets Python ints instead.

        Returns:
            ``(homes, needs_scalar)``: int64 home row per key (meaningless
            where ``needs_scalar`` is set) and the scalar-fallback flags.
        """
        count = words.shape[0]
        if mask_words is None:
            needs_scalar = np.zeros(count, dtype=bool)
        elif isinstance(self._hash, BitSelectHash):
            hashed = np.array(
                int_to_words(self._hash.position_mask, words.shape[1]),
                dtype=np.uint64,
            )
            needs_scalar = (mask_words & hashed).any(axis=1)
        else:
            needs_scalar = mask_words.any(axis=1)
        index_words = getattr(self._hash, "index_words", None)
        if index_words is not None:
            try:
                homes = index_words(words)
            except OverflowError:
                pass
            else:
                return np.asarray(homes, dtype=np.int64), needs_scalar
        values = words_to_ints(words)
        try:
            homes = self._hash.index_many(values)
        except OverflowError:
            # Keys wider than the vectorized kernel supports: fall back
            # to the scalar hash, one key at a time.
            homes = np.fromiter(
                (self._hash(value) for value in values),
                dtype=np.int64,
                count=count,
            )
        return np.asarray(homes, dtype=np.int64), needs_scalar


def make_index_generator(hash_function: HashFunction) -> IndexGenerator:
    """Convenience: wrap a hash function over its own bucket count."""
    return IndexGenerator(hash_function, hash_function.bucket_count)


__all__ = ["IndexGenerator", "make_index_generator", "KeyInput"]
