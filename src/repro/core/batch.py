"""The vectorized batch-lookup engine behind ``search_batch``.

One :class:`BatchSearchEngine` serves the one bucket store,
:class:`~repro.core.subsystem.SliceGroup` (a
:class:`~repro.core.slice.CARAMSlice` is a one-array group): arrangements
differ only in how logical buckets map to physical rows, and that
difference is entirely absorbed by the
:class:`~repro.memory.mirror.DecodedMirror` the group hands in.

A batch lookup is one walk, as in the scalar search (§2.1):

1. **index generation** — the whole key array is hashed at once
   (:meth:`~repro.core.index.IndexGenerator.indices_batch`); keys whose
   don't-care bits touch hash positions are flagged for the scalar path;
2. **the probe walk** — attempt 0 is the home bucket and attempt ``a``
   the probe sequence's ``a``-th bucket.  Each attempt gathers every
   still-unresolved key's bucket from the decoded mirror's per-word key
   planes and compares it word by word (Figure 4(b) semantics,
   :meth:`DecodedMirror.match_rows`), with the batch's query words cast
   once to the planes' width; the winning slot is priority-encoded and
   pipelined match passes are accounted exactly like
   :meth:`MatchProcessor.match_pipelined`.  A key leaves the walk on a
   hit or when its home's reach field ends it, so the extended searches
   that multiply at high load factors stay vectorized.  Only keys needing
   the Section-4 multi-bucket enumeration (don't-care bits over hash
   positions) fall back to one scalar ``search`` each, counted in
   :attr:`SearchStats.scalar_fallbacks`.

The engine's product is **columnar**: :meth:`search_columnar` returns a
:class:`~repro.core.results.BatchResultSet` whose struct-of-arrays columns
(hit mask, winning row/slot, per-key access and match-pass counts) are
written directly by the match kernel — zero per-key Python objects on the
hot path.  Its lazily materialized ``SearchResult`` list is
**bit-identical** to calling the scalar ``search`` once per key, in key
order — same hits, same winning records/rows/slots, same
``bucket_accesses``, ``multiple_matches``, and the same ``SearchStats``
counters (AMAL, hit rate, access histogram, match passes).  The physical
:class:`~repro.memory.array.ArrayStats` read counters count real row
reads only: the mirror replaces the row fetches, which the group counts
in ``physical_row_fetches`` instead.
"""

from __future__ import annotations

from itertools import count
from time import perf_counter
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import KeyFormatError
from repro.core.index import IndexGenerator, KeyInput
from repro.core.key import TernaryKey
from repro.core.match import priority_encode_batch
from repro.core.probing import ProbingPolicy
from repro.core.results import BatchResultSet
from repro.core.stats import SearchStats
from repro.memory.mirror import (
    KEY_WORD_BITS,
    DecodedMirror,
    int_to_words,
    keys_to_words,
    plane_dtype,
    words_for_bits,
    words_to_ints,
)
from repro.telemetry.profiling import profile
from repro.utils.bits import mask_of

#: What the batch path accepts as keys: a sequence of ints and
#: ``TernaryKey`` s, or a ``(n, words)`` uint64 word matrix.
BatchKeys = Union[Sequence[KeyInput], np.ndarray]

#: Upper bound on keys processed per vectorized chunk.
DEFAULT_CHUNK_SIZE = 16384

#: Lower bound — below this the per-chunk Python overhead dominates.
MIN_CHUNK_SIZE = 256

#: Byte budget for the gathered per-chunk intermediates (4 MiB); the
#: adaptive default keeps peak memory flat as rows get wider.
_CHUNK_BYTE_BUDGET = 1 << 22

#: Fixed per-key columnar output words (hit/row/slot/accesses
#: columns, 8 bytes each), charged against the chunk byte budget
#: alongside the gathered match intermediates.
_COLUMNAR_FIELD_WORDS = 4


def check_query(key: KeyInput, search_mask: int, key_bits: int) -> None:
    """One query against the width rules every batch lookup applies.

    :meth:`BatchSearchEngine.search_columnar` rejects a whole batch when
    its search mask, a ternary key's width, or an integer key (through
    :func:`query_words`) does not fit ``key_bits`` bits.  This is the
    same check for one key, so a caller that batches keys from many
    sources can refuse a bad one before it joins a batch.

    Raises:
        KeyFormatError: naming the first rule the query breaks.
    """
    full = (1 << key_bits) - 1
    if not 0 <= search_mask <= full:
        raise KeyFormatError(
            f"search mask {search_mask:#x} does not fit in {key_bits} bits"
        )
    if isinstance(key, TernaryKey):
        if key.width != key_bits:
            raise KeyFormatError(
                f"search width {key.width} != stored width {key_bits}"
            )
        return
    try:
        value = int(key)
    except (TypeError, ValueError):
        raise KeyFormatError(f"search key {key!r} is not an integer") from None
    if not 0 <= value <= full:
        raise KeyFormatError(
            f"search key {value:#x} does not fit in {key_bits} bits"
        )


def query_words(
    keys: BatchKeys, search_mask: int, key_bits: int
) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """A batch's keys as ``(n, words)`` uint64 key and don't-care words.

    The word matrix is the batch path's native key form (little-endian
    64-bit words, as :func:`~repro.memory.mirror.keys_to_words` packs
    them).  Three inputs reach it:

    * a word matrix is taken as given, once its dtype, word count and
      width are checked;
    * plain integer keys that fit in 64 bits become the low word column
      in one NumPy call;
    * anything else (``TernaryKey`` s, wider Python ints) takes one
      per-key pass.

    Returns ``(words, mask_words)``; ``mask_words`` is None for an
    all-binary batch without a search mask.  Every word it returns fits
    ``key_bits``: the match kernel's cast to narrower planes relies on
    this one check per batch.

    Raises:
        KeyFormatError: on a word matrix of another dtype or word count,
            a key bit above ``key_bits``, a negative key, or a ternary key
            of another width.
    """
    masks = None
    if isinstance(keys, np.ndarray) and keys.ndim == 2:
        words = _checked_words(keys, key_bits)
    else:
        column = _int_column(keys, key_bits)
        if column is None:
            words, masks = _per_key_words(keys, search_mask, key_bits)
        elif key_bits <= KEY_WORD_BITS:
            words = column.reshape(-1, 1)
        else:
            words = np.zeros(
                (column.size, words_for_bits(key_bits)), dtype=np.uint64
            )
            words[:, 0] = column
    if masks is not None:
        return words, keys_to_words(masks, key_bits)
    if not search_mask:
        return words, None
    row = np.array(int_to_words(search_mask, words.shape[1]), dtype=np.uint64)
    return words, np.broadcast_to(row, words.shape)


def _checked_words(words: np.ndarray, key_bits: int) -> np.ndarray:
    """A caller's word matrix, after the checks ``keys_to_words`` makes."""
    if words.dtype != np.uint64:
        raise KeyFormatError(f"key words must be uint64, not {words.dtype}")
    word_count = words_for_bits(key_bits)
    if words.shape[1] != word_count:
        raise KeyFormatError(
            f"{key_bits}-bit keys take {word_count} words, "
            f"got {words.shape[1]}"
        )
    top_bits = key_bits - (word_count - 1) * KEY_WORD_BITS
    if top_bits < KEY_WORD_BITS and len(words):
        over = words[:, -1] >> np.uint64(top_bits)
        if over.any():
            bad = words_to_ints(words[int(np.argmax(over != 0)), None])[0]
            raise KeyFormatError(
                f"search key {bad:#x} does not fit in {key_bits} bits"
            )
    return words


def _int_column(keys: BatchKeys, key_bits: int) -> Optional[np.ndarray]:
    """Plain integer keys as one uint64 column, or None for keys that
    need the per-key pass (ternary keys, ints wider than 64 bits)."""
    if isinstance(keys, np.ndarray):
        if keys.ndim != 1 or keys.dtype.kind not in "iu":
            return None
        if keys.dtype.kind == "i" and keys.size and int(keys.min()) < 0:
            raise KeyFormatError(
                f"search key {int(keys.min())} does not fit in "
                f"{key_bits} bits"
            )
        column = keys.astype(np.uint64, copy=False)
    elif len(keys) and isinstance(keys[0], TernaryKey):
        return None
    else:
        try:
            column = np.array(keys, dtype=np.uint64)
        except (OverflowError, TypeError, ValueError):
            return None
        if column.ndim != 1:
            return None
    if key_bits < KEY_WORD_BITS and column.size:
        top = int(column.max())
        if top >> key_bits:
            raise KeyFormatError(
                f"search key {top:#x} does not fit in {key_bits} bits"
            )
    return column


def _per_key_words(
    keys: Sequence[KeyInput], search_mask: int, key_bits: int
) -> Tuple[np.ndarray, Optional[List[int]]]:
    """Key words, plus per-key masks when a ternary key brings one."""
    total = len(keys)
    values = [0] * total
    masks: Optional[List[int]] = None
    for i, key in enumerate(keys):
        if isinstance(key, TernaryKey):
            if key.width != key_bits:
                raise KeyFormatError(
                    f"search width {key.width} != stored width {key_bits}"
                )
            values[i] = key.value
            merged = key.mask | search_mask
            if merged:
                if masks is None:
                    masks = [search_mask] * total
                masks[i] = merged
        else:
            values[i] = int(key)
    return keys_to_words(values, key_bits), masks


def default_chunk_size(
    slots_per_bucket: int,
    key_bits: int,
    value_words: int = 0,
) -> int:
    """Chunk size scaled to the row geometry.

    Narrow-key configurations keep the full :data:`DEFAULT_CHUNK_SIZE`;
    wide rows shrink the chunk so the gathered intermediates — ``slots x
    words`` stored-key words per key at the mirror's plane width
    (:func:`~repro.memory.mirror.plane_dtype`; e.g. the trigram study's
    384-slot x 2-word horizontal buckets of 8-byte words) — stay within a
    fixed byte budget instead of growing with the layout.

    On top of the match intermediates every key also carries its columnar
    output row — the fixed result columns plus ``value_words`` packed
    data words for wide-value record formats, 8 bytes each — so
    configurations with wide payloads chunk smaller instead of blowing the
    cache with the output alone.
    """
    plane_bytes = words_for_bits(key_bits) * plane_dtype(key_bits).itemsize
    per_key = max(1, slots_per_bucket) * plane_bytes
    per_key += (_COLUMNAR_FIELD_WORDS + max(0, int(value_words))) * 8
    return int(
        min(
            DEFAULT_CHUNK_SIZE,
            max(MIN_CHUNK_SIZE, _CHUNK_BYTE_BUDGET // per_key),
        )
    )


class BatchSearchEngine:
    """Vectorized lookup of whole key arrays against one decoded mirror.

    Args:
        index_generator: the hash front-end of the slice/group.
        mirror_provider: zero-argument callable returning a *synced*
            :class:`DecodedMirror` (called once per batch, so lazily built
            mirrors stay lazy).
        slots_per_bucket: logical slots per bucket ``S`` (slice-local for a
            slice, slice-count × S for horizontal groups).
        match_processors: the paper's ``P`` (None = one per slot).
        key_bits: search-key width ``N``.
        stats: the :class:`SearchStats` to account into.
        scalar_search: the scalar ``search(key, search_mask)`` used for
            multi-home ternary keys.
        probing: the overflow policy driving the probe walk.
        access_sink: callback receiving the bucket-id array of every
            attempt's mirror-served accesses; slice groups use it to
            advance ``physical_row_fetches``.
        value_words: packed data-payload words per record
            (``words_for_bits(data_bits)``); sizes the columnar output
            term of the chunk (:func:`default_chunk_size`).
    """

    def __init__(
        self,
        index_generator: IndexGenerator,
        mirror_provider: Callable[[], DecodedMirror],
        slots_per_bucket: int,
        match_processors: Optional[int],
        key_bits: int,
        stats: SearchStats,
        scalar_search: Callable[..., object],
        probing: ProbingPolicy,
        access_sink: Callable[[np.ndarray], None],
        value_words: int = 0,
    ) -> None:
        self._index = index_generator
        self._mirror_provider = mirror_provider
        self._processors = match_processors
        self._key_bits = key_bits
        self._full_mask = mask_of(key_bits)
        self._stats = stats
        self._scalar_search = scalar_search
        self._probing = probing
        self._access_sink = access_sink
        self._chunk_size = default_chunk_size(
            slots_per_bucket, key_bits, value_words=value_words
        )
        #: Keys resolved through the columnar path (the telemetry counter
        #: behind ``<prefix>.batch.columnar_rows``).
        self.columnar_rows = 0

    def search_columnar(
        self, keys: BatchKeys, search_mask: int = 0
    ) -> BatchResultSet:
        """Look up every key; returns the columnar ``BatchResultSet``.

        The native form of the batch path: the match kernels write the
        result columns directly, with zero per-key Python objects.  Call
        :meth:`BatchResultSet.results` for the ``SearchResult`` list, or
        consume the columns / ``data_values()`` directly.  ``keys`` is a
        ``(n, words)`` uint64 word matrix or a sequence of ints and
        ``TernaryKey`` s (see :func:`query_words`); a rejected batch
        raises before any ``SearchStats`` counter moves.

        The walk casts the batch's query words to the mirror's plane dtype
        once, exact because :func:`query_words` checked that every word
        fits ``key_bits``.
        """
        if not 0 <= search_mask <= self._full_mask:
            raise KeyFormatError(
                f"search mask {search_mask:#x} does not fit in "
                f"{self._key_bits} bits"
            )
        with profile("batch.index"):
            words, mask_words = query_words(keys, search_mask, self._key_bits)
            homes, needs_scalar = self._index.indices_batch(words, mask_words)
        total = len(words)
        if not total:
            return BatchResultSet(0)
        with profile("batch.mirror_sync"):
            mirror = self._mirror_provider()
        rs = BatchResultSet(total, mirror)
        planes = mirror.plane_words(words)
        plane_masks = mirror.plane_words(mask_words)
        # Opt-in per-chunk lookup-latency sketch: one observation per
        # chunk walk, so serving-tier percentiles come from the real work
        # quanta, not per-key guesses.
        latency = self._stats.latency
        vectorized = np.flatnonzero(~needs_scalar)
        for start in range(0, vectorized.size, self._chunk_size):
            chunk_started = perf_counter() if latency is not None else 0.0
            chunk = vectorized[start : start + self._chunk_size]
            self._walk(
                mirror,
                rs,
                chunk,
                homes[chunk],
                planes[chunk],
                plane_masks[chunk] if plane_masks is not None else None,
            )
            if latency is not None:
                latency.observe(perf_counter() - chunk_started)
        self._scalar_fallback(rs, keys, search_mask, words, needs_scalar)
        self.columnar_rows += total
        return rs

    def _scalar_fallback(
        self,
        rs: BatchResultSet,
        keys: BatchKeys,
        search_mask: int,
        words: np.ndarray,
        needs_scalar: np.ndarray,
    ) -> None:
        """Resolve multi-home ternary keys through the scalar search.

        A ternary key is passed on as given; any other key as the Python
        int its words hold (the scalar search takes no word rows).
        """
        scalar_keys: List[int] = np.flatnonzero(needs_scalar).tolist()
        if not scalar_keys:
            return
        self._stats.record_scalar_fallbacks(len(scalar_keys))
        with profile("batch.scalar_fallback"):
            for out_i in scalar_keys:
                key = keys[out_i]
                if not isinstance(key, TernaryKey):
                    key = words_to_ints(words[out_i, None])[0]
                rs.set_override(
                    out_i, self._scalar_search(key, search_mask)
                )

    def _walk(
        self,
        mirror: DecodedMirror,
        rs: BatchResultSet,
        keys: np.ndarray,
        homes: np.ndarray,
        words: np.ndarray,
        mask_words: Optional[np.ndarray],
    ) -> None:
        """Resolve one chunk's keys along their probe sequences (§2.1).

        Attempt ``a`` matches every unresolved key at its attempt-``a``
        bucket, the home itself when ``a`` is 0, in one gathered mirror
        match: the array-ops analogue of the scalar extended search, with
        identical per-key access counts and match-pass accounting.  A key
        resolves on a hit or when its home's reach field is ``a``; the
        others go on to attempt ``a + 1``.  ``keys`` are the chunk's
        positions in ``rs``, row for row with the other arrays.
        """
        reach = mirror.reach[homes]
        tracer = self._stats.tracer
        rows = homes
        for attempt in count():
            with profile("batch.probe_walk" if attempt else "batch.home_match"):
                if attempt:
                    rows = self._probing.probe_batch(
                        homes, attempt, mirror.buckets, words
                    )
                    if tracer is not None:
                        tracer.emit(
                            "probe_step", attempt=attempt, keys=int(keys.size)
                        )
                match = mirror.match_rows(rows, words, mask_words)
                hit, slot, passes, multiple = priority_encode_batch(
                    match, self._processors
                )
                self._stats.record_match_passes(int(passes.sum()))
                self._access_sink(rows)
                hits = np.flatnonzero(hit)
                if hits.size:
                    out = keys[hits]
                    rs.hit[out] = True
                    rs.row[out] = rows[hits]
                    rs.slot[out] = slot[hits]
                    rs.multiple_matches[out] = multiple[hits]
                # Hits and exhausted misses resolve here; the access
                # column's default already holds attempt 0's one access.
                walking = ~hit & (reach > attempt)
                left = int(np.count_nonzero(walking))
                if attempt:
                    rs.bucket_accesses[keys[~walking]] = attempt + 1
                self._stats.record_lookup_batch(
                    keys.size - left, int(hits.size), attempt + 1
                )
                if not attempt:
                    self._stats.record_probe_walk(left)
                if not left:
                    return
                keys, homes, words, reach = (
                    keys[walking], homes[walking], words[walking],
                    reach[walking],
                )
                if mask_words is not None:
                    mask_words = mask_words[walking]


__all__ = [
    "BatchKeys",
    "BatchSearchEngine",
    "DEFAULT_CHUNK_SIZE",
    "MIN_CHUNK_SIZE",
    "check_query",
    "default_chunk_size",
    "query_words",
]
