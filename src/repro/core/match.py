"""The match processor: parallel candidate-key comparison over one row.

Section 3.3 decomposes match processing into four steps:

1. **expand search key** — replicate the search key across the row so each
   stored-key position sees an aligned copy (overlapped with memory access);
2. **calculate match vector** — per-slot ternary comparison (Figure 4(b));
3. **decode match vector** — priority-encode; detect none/multiple matches;
4. **extract result** — mux out the matched slot's data.

:class:`MatchProcessor` performs steps 2–4 behaviorally over a decoded
bucket (step 1 is implicit in a software model: every slot sees the key).
The per-bit semantics follow Figure 4(b): a bit matches when the search-key
mask bit ``M_i`` is set, the stored-key mask bit ``TM_i`` is set, or the two
bits are equal.

The timing/area of the hardware pipeline is modeled separately in
:mod:`repro.cost.matchproc` (Table 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import KeyFormatError
from repro.core.record import Record
from repro.utils.bits import mask_of


@dataclass(frozen=True)
class MatchResult:
    """Outcome of matching one bucket's candidates against a search key.

    Attributes:
        match_vector: per-slot booleans (True = slot matched).
        matched_slot: priority-encoded winner (lowest matching slot index),
            or None when nothing matched.
        record: the winning record, or None.
        multiple_matches: True when more than one slot matched — the
            condition the paper's priority encoder must resolve.
    """

    match_vector: Tuple[bool, ...]
    matched_slot: Optional[int]
    record: Optional[Record]
    multiple_matches: bool

    @property
    def hit(self) -> bool:
        return self.matched_slot is not None

    @property
    def data(self) -> Optional[int]:
        """The matched record's data payload (step 4's extraction)."""
        return self.record.data if self.record else None


class MatchProcessor:
    """Compares all candidate keys of a bucket with a search key in parallel.

    Args:
        key_bits: search-key width ``N``; every candidate must agree.
    """

    def __init__(self, key_bits: int) -> None:
        if key_bits <= 0:
            raise KeyFormatError(f"key_bits must be positive: {key_bits}")
        self._key_bits = key_bits
        self._full_mask = mask_of(key_bits)

    @property
    def key_bits(self) -> int:
        return self._key_bits

    def _check_key(self, search_key: int, search_mask: int) -> None:
        if not 0 <= search_key <= self._full_mask:
            raise KeyFormatError(
                f"search key {search_key:#x} does not fit in "
                f"{self._key_bits} bits"
            )
        if not 0 <= search_mask <= self._full_mask:
            raise KeyFormatError(
                f"search mask {search_mask:#x} does not fit in "
                f"{self._key_bits} bits"
            )

    def match_slot(
        self,
        valid: bool,
        record: Record,
        search_key: int,
        search_mask: int = 0,
    ) -> bool:
        """Single-slot comparison (one N-bit comparator of Figure 4(a))."""
        if not valid:
            return False
        return record.key.matches(search_key, self._key_bits, search_mask)

    def match_pipelined(
        self,
        candidates: Sequence[Tuple[bool, Record]],
        search_key: int,
        search_mask: int = 0,
        processors: Optional[int] = None,
    ) -> Tuple[MatchResult, int]:
        """Match with only ``processors`` comparators, in pipelined passes.

        "When ceil(C/N) <= P, matching of all the keys can be done in one
        step.  Otherwise, necessary matching actions can be divided into a
        few pipelined actions." (Section 3.1)

        Passes proceed in slot order, so the priority encoder can stop at
        the first pass that produces a match (lower slots always win).

        Returns:
            (result, passes_executed).
        """
        if processors is None or processors >= len(candidates):
            return self.match(candidates, search_key, search_mask), 1
        if processors <= 0:
            raise KeyFormatError(f"processors must be positive: {processors}")
        self._check_key(search_key, search_mask)
        vector: List[bool] = []
        passes = 0
        matched_slot: Optional[int] = None
        for start in range(0, len(candidates), processors):
            chunk = candidates[start : start + processors]
            passes += 1
            chunk_vector = [
                self.match_slot(valid, record, search_key, search_mask)
                for valid, record in chunk
            ]
            vector.extend(chunk_vector)
            if matched_slot is None:
                for offset, matched in enumerate(chunk_vector):
                    if matched:
                        matched_slot = start + offset
                        break
            if matched_slot is not None:
                break
        record = (
            candidates[matched_slot][1] if matched_slot is not None else None
        )
        result = MatchResult(
            match_vector=tuple(vector),
            matched_slot=matched_slot,
            record=record,
            multiple_matches=sum(vector) > 1,
        )
        return result, passes

    def match(
        self,
        candidates: Sequence[Tuple[bool, Record]],
        search_key: int,
        search_mask: int = 0,
    ) -> MatchResult:
        """Steps 2–4: match vector, priority encode, extract.

        Args:
            candidates: decoded slots, slot 0 first (highest priority).
            search_key: the N-bit search key.
            search_mask: don't-care bits in the search key (``M_i``).
        """
        self._check_key(search_key, search_mask)
        vector: List[bool] = [
            self.match_slot(valid, record, search_key, search_mask)
            for valid, record in candidates
        ]
        matched_slot: Optional[int] = None
        for slot, matched in enumerate(vector):
            if matched:
                matched_slot = slot
                break
        record = candidates[matched_slot][1] if matched_slot is not None else None
        return MatchResult(
            match_vector=tuple(vector),
            matched_slot=matched_slot,
            record=record,
            multiple_matches=sum(vector) > 1,
        )


def priority_encode_batch(
    match: np.ndarray, processors: Optional[int] = None
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized steps 3–4 over a whole batch of match vectors.

    Reproduces :meth:`MatchProcessor.match_pipelined` exactly — including
    the pipelined-pass count and the fact that ``multiple_matches`` only
    sees the slots scanned before the pipeline stopped — but over a
    ``(batch, slots)`` boolean match matrix at NumPy speed.  As in §3.3,
    the multiple-match flag comes from the match vector itself: at least
    two matches among the scanned slots.

    Args:
        match: ``(batch, slots)`` bool match matrix, slot 0 first.
        processors: the paper's ``P``; None (or ``P >= slots``) means
            single-pass matching.

    Returns:
        ``(hit, slot, passes, multiple)`` arrays of shape ``(batch,)``:
        per-lookup hit flag, priority-encoded winning slot (-1 on miss),
        pipelined passes executed, and the multiple-match flag over the
        scanned slots.
    """
    batch, slots = match.shape
    if processors is not None and processors <= 0:
        raise KeyFormatError(f"processors must be positive: {processors}")
    first = match.argmax(axis=1)
    hit = match[np.arange(batch), first]
    slot = np.where(hit, first, -1)
    chunk = slots if processors is None or processors >= slots else processors
    total_passes = -(-slots // chunk)
    passes = np.where(hit, first // chunk + 1, total_passes).astype(np.int64)
    if chunk == slots:
        # One pass scans the whole row.
        multiple = _row_match_counts(match) > 1
    else:
        # Slots visible to the pipeline: every chunk up to and including
        # the one that produced the first match (all of them on a miss).
        scanned = np.minimum(passes * chunk, slots)
        in_scan = np.arange(slots) < scanned[:, None]
        multiple = np.count_nonzero(match & in_scan, axis=1) > 1
    return hit, slot, passes, multiple


def _row_match_counts(match: np.ndarray) -> np.ndarray:
    """Matches per row of a bool match matrix.  A contiguous matrix whose
    rows are whole 8-byte words is counted eight slots per popcount."""
    if match.flags.c_contiguous and match.shape[1] % 8 == 0:
        return np.bitwise_count(match.view(np.uint64)).sum(axis=1)
    return np.count_nonzero(match, axis=1)


__all__ = ["MatchProcessor", "MatchResult", "priority_encode_batch"]
