"""Bit-selection hashing and the greedy hash-bit search of Zane et al.

Section 4.1 of the paper: "Our hash function is based on the bit selection
scheme by Zane et al., which simply uses a selected set of bits (or hash
bits) from IP addresses. ... we apply the algorithm in [32] to find the best
set of R bits which distributes the prefixes most evenly to buckets."

:class:`BitSelectHash` concatenates the key bits at chosen MSB-first
positions into a bucket index — in hardware this is pure wiring, which is why
the paper calls index generation "as simple as bit selection, incurring very
little additional logic or delay".

:func:`greedy_bit_selection` reproduces the CoolCAMs-style greedy search:
starting from the empty set, repeatedly add the candidate bit position that
minimizes a bucket-imbalance objective over a sample of keys, until R bits
are chosen.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.hashing.base import HashFunction
from repro.utils.bits import select_bits


class BitSelectHash(HashFunction):
    """Hash an integer key by concatenating selected bit positions.

    Args:
        key_width: key width in bits.
        positions: MSB-first bit positions, most significant output bit
            first.  ``bucket_count`` is ``2 ** len(positions)``.
    """

    def __init__(self, key_width: int, positions: Sequence[int]) -> None:
        if not positions:
            raise ConfigurationError("positions must be non-empty")
        if len(set(positions)) != len(positions):
            raise ConfigurationError(f"duplicate bit positions: {positions}")
        for pos in positions:
            if not 0 <= pos < key_width:
                raise ConfigurationError(
                    f"bit position {pos} out of range for a "
                    f"{key_width}-bit key"
                )
        super().__init__(2 ** len(positions))
        self._key_width = key_width
        self._positions = tuple(positions)
        self._runs = _bit_runs(key_width, self._positions)
        self._position_mask = 0
        for pos in positions:
            self._position_mask |= 1 << (key_width - 1 - pos)

    @property
    def key_width(self) -> int:
        """Key width in bits."""
        return self._key_width

    @property
    def positions(self) -> tuple:
        """Selected MSB-first bit positions."""
        return self._positions

    @property
    def position_mask(self) -> int:
        """Key-space mask with a 1 at every selected bit position.

        A ternary key whose don't-care mask intersects this mask maps to
        multiple buckets (Section 4's duplication/probing rule) and must
        take the scalar multi-row path.
        """
        return self._position_mask

    def __call__(self, key: int) -> int:
        return select_bits(int(key), self._key_width, self._positions)

    def index_many(self, keys: Sequence[int]) -> np.ndarray:
        if self._key_width > 64:
            from repro.memory.mirror import keys_to_words

            return self.index_words(keys_to_words(keys, self._key_width))
        column = np.asarray(keys, dtype=np.uint64).reshape(-1, 1)
        return self.index_words(column)

    def index_words(self, words: np.ndarray) -> np.ndarray:
        """Vectorized indexing over keys packed as little-endian 64-bit
        words (the :mod:`repro.memory.mirror` batch representation).

        Each run of adjacent selected bits inside one word is taken with
        one shift and one mask, so the paper's contiguous hash bits cost
        one run, not one pass per bit.
        """
        index = None
        for word, shift, width, mask in self._runs:
            run = (words[:, word] >> shift) & mask
            index = run if index is None else (index << width) | run
        return index.astype(np.int64)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"BitSelectHash(key_width={self._key_width}, positions={self._positions})"


def _bit_runs(key_width: int, positions: Sequence[int]) -> tuple:
    """Group MSB-first positions into maximal runs of adjacent key bits
    inside one 64-bit word, most significant output bits first.

    Returns one ``(word, shift, width, mask)`` per run, as uint64 scalars
    where NumPy needs them: the run is ``(words[:, word] >> shift) &
    mask``, ``width`` bits of the index.
    """
    runs: List[List[int]] = []  # [word, lowest bit, width]
    for pos in positions:
        word, bit = divmod(key_width - 1 - pos, 64)
        if runs and runs[-1][0] == word and runs[-1][1] == bit + 1:
            runs[-1][1] = bit
            runs[-1][2] += 1
        else:
            runs.append([word, bit, 1])
    return tuple(
        (word, np.uint64(bit), np.uint64(width), np.uint64((1 << width) - 1))
        for word, bit, width in runs
    )


def last_bits_of_first(key_width: int, window: int, count: int) -> BitSelectHash:
    """The paper's chosen IP hash: the last ``count`` bits within the first
    ``window`` bits of the key.

    "After experiments, we determined that choosing the last R bits in the
    first 16 bits results in the best outcome." (Section 4.1)

    >>> h = last_bits_of_first(32, 16, 11)
    >>> h.positions
    (5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15)
    """
    if count > window or window > key_width:
        raise ConfigurationError(
            f"cannot take {count} bits from a {window}-bit window "
            f"of a {key_width}-bit key"
        )
    return BitSelectHash(key_width, tuple(range(window - count, window)))


def _imbalance(counts: np.ndarray, slots_per_bucket: Optional[int]) -> float:
    """Bucket-imbalance objective for the greedy search.

    With a bucket capacity, the objective is the number of spilled records
    (what AMAL actually pays for); without one, the sum of squared loads
    (minimized by the most even distribution).
    """
    if slots_per_bucket is not None:
        return float(np.maximum(counts - slots_per_bucket, 0).sum())
    return float((counts.astype(np.float64) ** 2).sum())


def greedy_bit_selection(
    keys: Sequence[int],
    key_width: int,
    select_count: int,
    candidate_positions: Optional[Sequence[int]] = None,
    slots_per_bucket: Optional[int] = None,
) -> BitSelectHash:
    """Greedily choose ``select_count`` hash-bit positions for ``keys``.

    Reproduces the spirit of the Zane et al. hash-bit search the paper uses:
    one bit at a time, always adding the candidate that minimizes bucket
    imbalance on the key sample.

    Args:
        keys: sample of integer keys to balance over.
        key_width: key width in bits.
        select_count: number of hash bits to choose (the paper's ``R``).
        candidate_positions: allowed MSB-first positions (the paper restricts
            to the first 16 bits of the IP address); defaults to all.
        slots_per_bucket: if given, minimize spilled records at this bucket
            capacity; otherwise minimize squared bucket loads.

    Returns:
        A :class:`BitSelectHash` over the chosen positions (sorted MSB-first,
        so the index preserves key bit order).
    """
    if select_count <= 0:
        raise ConfigurationError(f"select_count must be positive: {select_count}")
    if candidate_positions is None:
        candidate_positions = range(key_width)
    candidates = sorted(set(candidate_positions))
    if len(candidates) < select_count:
        raise ConfigurationError(
            f"only {len(candidates)} candidate positions for "
            f"{select_count} hash bits"
        )
    arr = np.asarray(list(keys), dtype=np.uint64)
    if arr.size == 0:
        raise ConfigurationError("keys sample must be non-empty")

    chosen: List[int] = []
    # Index value accumulated so far for every key (grows one bit per round).
    partial = np.zeros(arr.shape, dtype=np.uint64)
    for _ in range(select_count):
        best_pos = -1
        best_score = float("inf")
        best_partial = partial
        for pos in candidates:
            if pos in chosen:
                continue
            shift = np.uint64(key_width - 1 - pos)
            trial = (partial << np.uint64(1)) | ((arr >> shift) & np.uint64(1))
            counts = np.bincount(
                trial.astype(np.int64), minlength=2 ** (len(chosen) + 1)
            )
            score = _imbalance(counts, slots_per_bucket)
            if score < best_score:
                best_score = score
                best_pos = pos
                best_partial = trial
        chosen.append(best_pos)
        partial = best_partial

    return BitSelectHash(key_width, tuple(sorted(chosen)))


__all__ = ["BitSelectHash", "last_bits_of_first", "greedy_bit_selection"]
