"""Lookup results: the scalar :class:`SearchResult` and the columnar
(struct-of-arrays) batch form.

The scalar-compatible ``search_batch`` returns one frozen
:class:`SearchResult` per key — on the mixed
high-hit-rate stream that per-hit Python allocation is the throughput
bound of the whole batch path.  :class:`BatchResultSet` is the columnar
alternative the vectorized engine produces natively: parallel NumPy
columns (hit mask, winning row/slot, per-key bucket accesses, the
multiple-match flag) with **zero per-key Python objects** on the hot path.

Materialization is lazy and exact: :meth:`results` builds the very
``SearchResult`` list the scalar path returns — records equal by value
(asked of the decoded mirror's
:meth:`~repro.memory.mirror.DecodedMirror.records_at`, which builds each
from the planes once and keeps it until its row changes), same rows,
slots, access counts, and flags — so ``search_batch`` is now a thin
wrapper over ``search_batch_columnar(...).results()``.  Columnar-native
consumers (:func:`~repro.apps.iplookup.caram.lpm_search_batch`,
:func:`~repro.apps.trigram.caram.trigram_lookup_batch`) skip the object
layer entirely via :meth:`data_values`, which reads the mirror's packed
``data_words`` grid instead of ``Record`` attributes.

Coherence: a result set snapshots its mirror's ``version`` stamp at
creation; materializing after the mirror re-decoded (a write slipped in
between the batch and the gather) raises instead of silently pairing
stale coordinates with fresh content.  Side-store answers and
scalar-fallback keys are carried as sparse per-key *overrides*
(:meth:`set_override`) layered over the columns, keeping the array form
and the materialized form consistent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.core.record import Record
from repro.errors import ConfigurationError
from repro.memory.mirror import words_to_ints

__all__ = ["BatchResultSet", "SearchResult"]


@dataclass(frozen=True)
class SearchResult:
    """Outcome of one lookup.

    Attributes:
        hit: whether any record matched.
        record: the winning record (priority-encoded), or None.
        row: bucket of the winning record, or None.
        slot: slot of the winning record, or None.
        bucket_accesses: number of bucket fetches this lookup performed —
            the per-lookup contribution to AMAL.
        multiple_matches: True if several slots matched in the winning
            bucket.
    """

    hit: bool
    record: Optional[Record]
    row: Optional[int]
    slot: Optional[int]
    bucket_accesses: int
    multiple_matches: bool = False

    @property
    def data(self) -> Optional[int]:
        return self.record.data if self.record else None


class BatchResultSet:
    """Struct-of-arrays outcome of one vectorized batch lookup.

    Attributes (all length ``len(self)``, indexed by key position):
        hit: bool — whether any record matched.
        row: int64 — winning bucket, ``-1`` on a miss.
        slot: int64 — priority-encoded winning slot (slot 0 = highest
            match priority), ``-1`` on a miss.
        bucket_accesses: int64 — row fetches the lookup performed (the
            per-key AMAL contribution).
        multiple_matches: bool — several slots matched in the winning row.
    """

    __slots__ = (
        "hit",
        "row",
        "slot",
        "bucket_accesses",
        "multiple_matches",
        "_mirror",
        "_version",
        "_overrides",
        "_results",
        "_size",
    )

    def __init__(self, size: int, mirror=None) -> None:
        self._size = size
        self.hit = np.zeros(size, dtype=bool)
        self.row = np.full(size, -1, dtype=np.int64)
        self.slot = np.full(size, -1, dtype=np.int64)
        self.bucket_accesses = np.ones(size, dtype=np.int64)
        self.multiple_matches = np.zeros(size, dtype=bool)
        self._mirror = mirror
        self._version = getattr(mirror, "version", 0)
        self._overrides: Dict[int, object] = {}
        self._results: Optional[List] = None

    def __len__(self) -> int:
        return self._size

    # ------------------------------------------------------------------
    # Overrides (scalar fallbacks, side-store answers)
    # ------------------------------------------------------------------

    def set_override(self, index: int, result) -> None:
        """Pin one key's outcome to a ready-made ``SearchResult``.

        The columns are updated to agree with the override, so columnar
        consumers (``data_values`` aside — the override's record wins
        there too) and :meth:`results` stay consistent.
        """
        self._overrides[int(index)] = result
        self.hit[index] = result.hit
        self.row[index] = -1 if result.row is None else result.row
        self.slot[index] = -1 if result.slot is None else result.slot
        self.bucket_accesses[index] = result.bucket_accesses
        self.multiple_matches[index] = result.multiple_matches
        self._results = None

    # ------------------------------------------------------------------
    # Materialization
    # ------------------------------------------------------------------

    def _check_version(self) -> None:
        if self._mirror is not None and self._mirror.version != self._version:
            raise ConfigurationError(
                "stale BatchResultSet: the mirror re-decoded (version "
                f"{self._mirror.version} != {self._version}) after this "
                "batch ran; materialize before mutating the table"
            )

    def result_at(self, index: int):
        """Materialize a single key's ``SearchResult`` (override-aware)."""
        index = int(index)
        override = self._overrides.get(index)
        if override is not None:
            return override
        if not self.hit[index]:
            return SearchResult(
                hit=False,
                record=None,
                row=None,
                slot=None,
                bucket_accesses=int(self.bucket_accesses[index]),
            )
        self._check_version()
        row = int(self.row[index])
        slot = int(self.slot[index])
        return SearchResult(
            hit=True,
            record=self._mirror.records_at([row], [slot])[0],
            row=row,
            slot=slot,
            bucket_accesses=int(self.bucket_accesses[index]),
            multiple_matches=bool(self.multiple_matches[index]),
        )

    def results(self) -> List:
        """The full ``SearchResult`` list, bit-identical to the scalar path.

        Hits ask the mirror for their winning ``Record`` s in one
        :meth:`~repro.memory.mirror.DecodedMirror.records_at` call; misses
        share one immutable instance per distinct access count (the same
        instance-sharing the row-major engine used).  The list is cached —
        repeated calls are free.
        """
        if self._results is not None:
            return self._results
        results: List[Optional[SearchResult]] = [None] * self._size
        hit_positions = np.flatnonzero(self.hit)
        if hit_positions.size:
            self._check_version()
            hit_rows = self.row[hit_positions]
            hit_slots = self.slot[hit_positions]
            hit_records = self._mirror.records_at(hit_rows, hit_slots)
            # SearchResult is a frozen dataclass; building instances by
            # swapping in the finished __dict__ skips one
            # object.__setattr__ per field (value-identical).
            new_result = SearchResult.__new__
            set_dict = object.__setattr__
            for out_i, row_i, slot_i, rec, accesses, multi in zip(
                hit_positions.tolist(),
                hit_rows.tolist(),
                hit_slots.tolist(),
                hit_records,
                self.bucket_accesses[hit_positions].tolist(),
                self.multiple_matches[hit_positions].tolist(),
            ):
                result = new_result(SearchResult)
                set_dict(
                    result,
                    "__dict__",
                    {
                        "hit": True,
                        "record": rec,
                        "row": row_i,
                        "slot": slot_i,
                        "bucket_accesses": accesses,
                        "multiple_matches": multi,
                    },
                )
                results[out_i] = result
        miss_positions = np.flatnonzero(~self.hit)
        if miss_positions.size:
            miss_cache: Dict[int, SearchResult] = {}
            for out_i, accesses in zip(
                miss_positions.tolist(),
                self.bucket_accesses[miss_positions].tolist(),
            ):
                miss = miss_cache.get(accesses)
                if miss is None:
                    miss = SearchResult(
                        hit=False,
                        record=None,
                        row=None,
                        slot=None,
                        bucket_accesses=accesses,
                    )
                    miss_cache[accesses] = miss
                results[out_i] = miss
        for index, override in self._overrides.items():
            results[index] = override
        self._results = results
        return results

    # ------------------------------------------------------------------
    # Columnar value access (no Record objects)
    # ------------------------------------------------------------------

    def data_values(self) -> List[Optional[int]]:
        """Per-key matched data (``result.data`` parity): int on a hit,
        None on a miss — without materializing any ``SearchResult``."""
        out: List[Optional[int]] = [None] * self._size
        hit_positions = np.flatnonzero(self.hit)
        if hit_positions.size:
            mirror = self._mirror
            width = getattr(mirror, "data_word_count", 0) if mirror else 0
            if width == 0:
                # Records without a data field read as data == 0.
                for out_i in hit_positions.tolist():
                    out[out_i] = 0
            else:
                self._check_version()
                words = mirror.data_words[
                    self.row[hit_positions], self.slot[hit_positions]
                ]
                for out_i, value in zip(
                    hit_positions.tolist(), words_to_ints(words)
                ):
                    out[out_i] = value
        for index, override in self._overrides.items():
            out[index] = override.data if override.hit else None
        return out
