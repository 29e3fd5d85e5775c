"""Overflow (collision) policies: where spilled records go.

Section 2.1: "locations with consecutive hash addresses (i.e., buckets
following the overflowing bucket) may be tried until a bucket with an empty
record slot is found.  Instead of this linear probing method, one can apply
a second, alternative hash function to find a bucket with empty space."

Both options are provided.  A policy maps (home row, attempt number, key)
to the next row to try; attempt 0 is always the home row itself.  Every
policy answers one key (:meth:`ProbingPolicy.probe`) and a whole attempt
level of a batch in array ops (:meth:`ProbingPolicy.probe_batch`).
"""

from __future__ import annotations

import abc

import numpy as np

from repro.errors import ConfigurationError
from repro.core.index import make_index_generator
from repro.hashing.base import HashFunction


class ProbingPolicy(abc.ABC):
    """Enumerates the probe sequence for a key that overflowed."""

    @abc.abstractmethod
    def probe(self, home_row: int, attempt: int, rows: int, key: object) -> int:
        """Row to inspect on the given attempt (attempt 0 = home row)."""

    @abc.abstractmethod
    def probe_batch(
        self,
        home_rows: np.ndarray,
        attempt: int,
        rows: int,
        key_words: np.ndarray,
    ) -> np.ndarray:
        """Row to inspect per home for one shared attempt level: what
        :meth:`probe` answers key by key, in array ops.

        ``key_words`` holds the keys as ``(n, W)`` words
        (:func:`repro.memory.mirror.keys_to_words`, possibly cast to the
        mirror's plane dtype), row for row with ``home_rows``; only
        key-dependent policies read it.
        """


class LinearProbing(ProbingPolicy):
    """Consecutive rows: ``(home + attempt) mod rows`` — the paper's choice."""

    def probe(self, home_row: int, attempt: int, rows: int, key: object) -> int:
        if attempt < 0:
            raise ConfigurationError(f"attempt must be >= 0, got {attempt}")
        return (home_row + attempt) % rows

    def probe_batch(
        self,
        home_rows: np.ndarray,
        attempt: int,
        rows: int,
        key_words: np.ndarray,
    ) -> np.ndarray:
        if attempt < 0:
            raise ConfigurationError(f"attempt must be >= 0, got {attempt}")
        return (np.asarray(home_rows, dtype=np.int64) + attempt) % rows

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "LinearProbing()"


class DoubleHashing(ProbingPolicy):
    """A second hash chooses the step: ``(home + attempt * step(key)) % rows``.

    The step is forced odd so that with a power-of-two row count the probe
    sequence visits every row.  Requires a secondary
    :class:`~repro.hashing.base.HashFunction` over the same key type.
    """

    def __init__(self, step_hash: HashFunction) -> None:
        self._step_hash = step_hash
        self._step_index = make_index_generator(step_hash)

    def probe(self, home_row: int, attempt: int, rows: int, key: object) -> int:
        if attempt < 0:
            raise ConfigurationError(f"attempt must be >= 0, got {attempt}")
        if attempt == 0:
            return home_row % rows
        step = (self._step_hash(key) | 1) % rows or 1
        return (home_row + attempt * step) % rows

    def probe_batch(
        self,
        home_rows: np.ndarray,
        attempt: int,
        rows: int,
        key_words: np.ndarray,
    ) -> np.ndarray:
        """The step hash runs over the whole key matrix through its
        vectorized entry (:meth:`IndexGenerator.indices_batch`)."""
        if attempt < 0:
            raise ConfigurationError(f"attempt must be >= 0, got {attempt}")
        home_rows = np.asarray(home_rows, dtype=np.int64)
        if attempt == 0:
            return home_rows % rows
        hashed, _ = self._step_index.indices_batch(key_words)
        step = np.maximum((hashed | 1) % rows, 1)
        return (home_rows + attempt * step) % rows

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DoubleHashing(step_hash={self._step_hash!r})"


class QuadraticProbing(ProbingPolicy):
    """Triangular-number probing: ``home + attempt(attempt+1)/2``.

    Visits every row when the row count is a power of two; included for the
    probing-policy ablation.
    """

    def probe(self, home_row: int, attempt: int, rows: int, key: object) -> int:
        if attempt < 0:
            raise ConfigurationError(f"attempt must be >= 0, got {attempt}")
        return (home_row + attempt * (attempt + 1) // 2) % rows

    def probe_batch(
        self,
        home_rows: np.ndarray,
        attempt: int,
        rows: int,
        key_words: np.ndarray,
    ) -> np.ndarray:
        if attempt < 0:
            raise ConfigurationError(f"attempt must be >= 0, got {attempt}")
        step = attempt * (attempt + 1) // 2
        return (np.asarray(home_rows, dtype=np.int64) + step) % rows


__all__ = ["ProbingPolicy", "LinearProbing", "DoubleHashing", "QuadraticProbing"]
