"""The vectorized batch-lookup engine behind ``search_batch``.

One :class:`BatchSearchEngine` serves the one bucket store,
:class:`~repro.core.subsystem.SliceGroup` (a
:class:`~repro.core.slice.CARAMSlice` is a one-array group): arrangements
differ only in how logical buckets map to physical rows, and that
difference is entirely absorbed by the
:class:`~repro.memory.mirror.DecodedMirror` the group hands in.

A batch lookup proceeds in three vectorized stages:

1. **index generation** — the whole key array is hashed at once
   (:meth:`~repro.core.index.IndexGenerator.indices_batch`); keys whose
   don't-care bits touch hash positions are flagged for the scalar path;
2. **home-row matching** — the home buckets are gathered from the decoded
   mirror and compared word-wise (Figure 4(b) semantics) in one NumPy
   expression; the winning slot is priority-encoded and pipelined match
   passes are accounted exactly like :meth:`MatchProcessor.match_pipelined`;
3. **probe walk** — keys whose home bucket misses with a nonzero reach
   field iterate the probe sequence *as arrays*: every attempt level probes
   all still-unresolved keys at once against the mirror, so the extended
   searches that multiply at high load factors stay vectorized.  Only keys
   needing the Section-4 multi-bucket enumeration (don't-care bits over
   hash positions) fall back to one scalar ``search`` each, counted in
   :attr:`BatchSearchEngine.scalar_fallbacks`.

The engine's native product is **columnar**: :meth:`search_columnar`
returns a :class:`~repro.core.results.BatchResultSet` whose struct-of-
arrays columns (hit mask, winning row/slot, per-key access and match-pass
counts) are written directly by the match kernel — zero per-key Python
objects on the hot path.  :meth:`search` is a thin wrapper that lazily
materializes the ``SearchResult`` list, **bit-identical** to calling the
scalar ``search`` once per key, in key order — same hits, same winning
records/rows/slots, same ``bucket_accesses``, ``multiple_matches``, and
the same ``SearchStats`` counters (AMAL, hit rate, access histogram,
match passes).  By default the physical
:class:`~repro.memory.array.ArrayStats` read counters are not advanced by
mirror-served accesses (the mirror replaces the row fetches); groups
built with ``account_reads=True`` route every mirror-served access
through an ``access_sink`` that charges the physical counters too,
restoring exact parity with the scalar path.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Callable, List, Optional, Sequence

import numpy as np

from repro.errors import KeyFormatError
from repro.core.index import IndexGenerator, KeyInput
from repro.core.key import TernaryKey
from repro.core.match import priority_encode_batch
from repro.core.probing import ProbingPolicy
from repro.core.results import BatchResultSet
from repro.core.stats import SearchStats
from repro.memory.mirror import DecodedMirror, keys_to_words, words_for_bits
from repro.telemetry.profiling import profile
from repro.utils.bits import mask_of

#: Upper bound on keys processed per vectorized chunk.
DEFAULT_CHUNK_SIZE = 16384

#: Lower bound — below this the per-chunk Python overhead dominates.
MIN_CHUNK_SIZE = 256

#: Element budget for the gathered per-chunk intermediates; the adaptive
#: default keeps peak memory flat as rows get wider.
_CHUNK_ELEMENT_BUDGET = 1 << 19

#: Fixed per-key columnar output words (hit/row/slot/accesses/passes
#: columns), charged against the chunk element budget alongside the
#: gathered match intermediates.
_COLUMNAR_FIELD_WORDS = 4


def default_chunk_size(
    slots_per_bucket: int,
    word_count: int,
    value_words: int = 0,
) -> int:
    """Chunk size scaled to the row geometry.

    Narrow-key configurations keep the full :data:`DEFAULT_CHUNK_SIZE`;
    wide rows shrink the chunk so the gathered intermediates — ``slots x
    words`` stored-key words per key (e.g. the trigram study's 384-slot x
    2-word horizontal buckets) — stay within a fixed element budget
    instead of growing with the layout.

    On top of the match intermediates every key also carries its columnar
    output row — the fixed result columns plus ``value_words`` packed
    data words for wide-value record formats — so configurations with
    wide payloads chunk smaller instead of blowing the cache with the
    output alone.
    """
    per_key = max(1, slots_per_bucket * word_count)
    per_key += _COLUMNAR_FIELD_WORDS + max(0, int(value_words))
    return int(
        min(
            DEFAULT_CHUNK_SIZE,
            max(MIN_CHUNK_SIZE, _CHUNK_ELEMENT_BUDGET // per_key),
        )
    )


@dataclass
class PreparedBatch:
    """Stage-0/1 product: normalized keys, packed words, home buckets.

    Produced by :meth:`BatchSearchEngine._prepare`; consumed by
    :meth:`BatchSearchEngine._finish`.
    """

    total: int
    values: List[int]
    masks: Optional[List[int]]
    words: np.ndarray                       # (total, W) uint64
    mask_words: Optional[np.ndarray]        # (total, W) or None
    homes: np.ndarray                       # (total,) int64
    needs_scalar: np.ndarray                # (total,) bool


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
        probing: the overflow policy driving the vectorized probe walk.
        access_sink: optional callback receiving the bucket-id array of
            every batch of mirror-served accesses (home fetches and probe
            extensions alike); slice groups use it to advance
            ``physical_row_fetches``, and ``account_reads`` modes use it
            to charge the physical read counters.
        chunk_size: keys per vectorized chunk; None picks
            :func:`default_chunk_size` from the row geometry.
        value_words: packed data-payload words per record
            (``words_for_bits(data_bits)``); sizes the columnar output
            term of the chunk default.
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
        access_sink: Optional[Callable[[np.ndarray], None]] = None,
        chunk_size: Optional[int] = None,
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
        if chunk_size is None:
            chunk_size = default_chunk_size(
                slots_per_bucket,
                words_for_bits(key_bits),
                value_words=value_words,
            )
        self._chunk_size = max(1, chunk_size)
        #: Keys resolved through the columnar path (the telemetry counter
        #: behind ``<prefix>.batch.columnar_rows``).
        self.columnar_rows = 0

    @property
    def chunk_size(self) -> int:
        return self._chunk_size

    @property
    def stats(self) -> SearchStats:
        return self._stats

    # The engine-path counters are first-class ``SearchStats`` fields (so
    # subsystem-level ``merge()`` aggregation keeps them); these properties
    # preserve the original engine-attribute spelling.

    @property
    def scalar_fallbacks(self) -> int:
        """Keys routed through the scalar ``search`` (multi-home ternary
        keys only), as accounted in the engine's ``SearchStats``."""
        return self._stats.scalar_fallbacks

    @property
    def probe_walk_keys(self) -> int:
        """Keys resolved by the vectorized probe walk, as accounted in the
        engine's ``SearchStats``."""
        return self._stats.probe_walk_keys

    def search(self, keys: Sequence[KeyInput], search_mask: int = 0) -> List:
        """Look up every key; returns one ``SearchResult`` per key, in order.

        A materializing wrapper over :meth:`search_columnar` — the list is
        value-identical to the scalar path, built from the columnar form.
        """
        return self.search_columnar(keys, search_mask).results()

    def search_columnar(
        self, keys: Sequence[KeyInput], search_mask: int = 0
    ) -> BatchResultSet:
        """Look up every key; returns the columnar ``BatchResultSet``.

        The native form of the batch path: the match kernels write the
        result columns directly, with zero per-key Python objects.  Call
        :meth:`BatchResultSet.results` for the ``SearchResult`` list, or
        consume the columns / ``data_values()`` directly.
        """
        if not 0 <= search_mask <= self._full_mask:
            raise KeyFormatError(
                f"search mask {search_mask:#x} does not fit in "
                f"{self._key_bits} bits"
            )
        if len(keys) == 0:
            return BatchResultSet(0)
        prep = self._prepare(keys, search_mask)
        return self._finish(keys, search_mask, prep)

    # ------------------------------------------------------------------
    # Stages 0/1: normalize keys to (value, mask) pairs, then hash the
    # whole array at once.
    # ------------------------------------------------------------------

    def _prepare(
        self, keys: Sequence[KeyInput], search_mask: int
    ) -> PreparedBatch:
        """Normalize and hash the whole key array (stage 0/1)."""
        total = len(keys)
        with profile("batch.index"):
            # Fast path: a batch of plain machine-width ints (the common
            # case) converts in one shot — a numeric ndarray cannot contain
            # TernaryKey objects, so the per-key scan is provably skippable.
            values: Optional[List[int]] = None
            masks: Optional[List[int]] = None
            try:
                key_arr = np.asarray(keys)
            except (OverflowError, ValueError):
                key_arr = None
            if key_arr is not None and key_arr.dtype.kind in "iu":
                values = key_arr.tolist()
            if values is None:
                values = [0] * total
                for i, key in enumerate(keys):
                    if isinstance(key, TernaryKey):
                        if key.width != self._key_bits:
                            raise KeyFormatError(
                                f"search width {key.width} != stored width "
                                f"{self._key_bits}"
                            )
                        values[i] = key.value
                        merged = key.mask | search_mask
                        if merged:
                            if masks is None:
                                masks = [search_mask] * total
                            masks[i] = merged
                    else:
                        values[i] = int(key)
            if masks is None and search_mask:
                masks = [search_mask] * total

            words = keys_to_words(values, self._key_bits)
            mask_words = (
                keys_to_words(masks, self._key_bits)
                if masks is not None
                else None
            )
            homes, needs_scalar = self._index.indices_batch(
                values, masks, words
            )
        return PreparedBatch(
            total=total,
            values=values,
            masks=masks,
            words=words,
            mask_words=mask_words,
            homes=homes,
            needs_scalar=needs_scalar,
        )

    def _finish(
        self,
        keys: Sequence[KeyInput],
        search_mask: int,
        prep: PreparedBatch,
    ) -> BatchResultSet:
        """Stages 2/3 plus the scalar fallback."""
        with profile("batch.mirror_sync"):
            mirror = self._mirror_provider()
        rs = BatchResultSet(prep.total, mirror)
        vectorized = np.flatnonzero(~prep.needs_scalar)
        self._run_vectorized(
            mirror,
            rs,
            vectorized,
            prep.homes,
            prep.words,
            prep.mask_words,
            prep.values,
        )
        self._scalar_fallback(rs, keys, search_mask, prep.needs_scalar)
        self.columnar_rows += prep.total
        return rs

    def _scalar_fallback(
        self,
        rs: BatchResultSet,
        keys: Sequence[KeyInput],
        search_mask: int,
        needs_scalar: np.ndarray,
    ) -> None:
        """Resolve multi-home ternary keys through the scalar search."""
        scalar_keys: List[int] = np.flatnonzero(needs_scalar).tolist()
        if not scalar_keys:
            return
        self._stats.record_scalar_fallbacks(len(scalar_keys))
        with profile("batch.scalar_fallback"):
            for out_i in scalar_keys:
                rs.set_override(
                    out_i, self._scalar_search(keys[out_i], search_mask)
                )

    # ------------------------------------------------------------------
    # Stage 2: home-row matching, chunked to bound peak memory.
    # ------------------------------------------------------------------

    def _run_vectorized(
        self,
        mirror: DecodedMirror,
        rs: BatchResultSet,
        positions: np.ndarray,
        homes: np.ndarray,
        words: np.ndarray,
        mask_words: Optional[np.ndarray],
        values: Sequence[int],
    ) -> None:
        """Resolve the listed key positions into the result columns.

        ``positions`` indexes into the batch-length arrays
        (``homes``/``words``/...); every outcome is scattered into ``rs``
        at its global key position.
        """
        # Opt-in per-chunk lookup-latency sketch: one observation per
        # vectorized chunk (home match + probe walk), so serving-tier
        # percentiles come from the real work quanta, not per-key guesses.
        latency = self._stats.latency
        for start in range(0, positions.size, self._chunk_size):
            chunk_started = perf_counter() if latency is not None else 0.0
            with profile("batch.home_match"):
                chunk = positions[start : start + self._chunk_size]
                chunk_homes = homes[chunk]
                match = mirror.match_rows(
                    chunk_homes,
                    words[chunk],
                    mask_words[chunk] if mask_words is not None else None,
                )
                hit, slot, passes, multiple = priority_encode_batch(
                    match, self._processors
                )
                # Every chunk key fetched its home bucket — the probe walk
                # only adds the extension accesses on top.
                self._stats.record_match_passes(int(passes.sum()))
                if self._access_sink is not None:
                    self._access_sink(chunk_homes)
                rs.match_passes[chunk] = passes
                # Stage 3 trigger: a home miss with nonzero reach means
                # records may have spilled along the probe sequence.
                probe_needed = ~hit & (mirror.reach[chunk_homes] > 0)
                resolved = ~probe_needed
                resolved_count = int(resolved.sum())
                if resolved_count:
                    self._stats.record_lookup_batch(
                        resolved_count, int(hit.sum())
                    )

                hit_positions = np.flatnonzero(hit)
                if hit_positions.size:
                    out = chunk[hit_positions]
                    rs.hit[out] = True
                    rs.row[out] = chunk_homes[hit_positions]
                    rs.slot[out] = slot[hit_positions]
                    rs.multiple_matches[out] = multiple[hit_positions]
                # Home-row misses with reach 0 keep the column defaults
                # (hit=False, bucket_accesses=1) — nothing to write.

                # ------------------------------------------------------
                # Stage 3: vectorized probe walk over this chunk's spills.
                # ------------------------------------------------------
                pending = chunk[np.flatnonzero(probe_needed)]
            if pending.size:
                with profile("batch.probe_walk"):
                    self._probe_walk(
                        mirror,
                        rs,
                        pending,
                        homes[pending],
                        words[pending],
                        mask_words[pending]
                        if mask_words is not None
                        else None,
                        values,
                    )
            if latency is not None:
                latency.observe(perf_counter() - chunk_started)

    def _probe_walk(
        self,
        mirror: DecodedMirror,
        rs: BatchResultSet,
        key_idx: np.ndarray,
        homes: np.ndarray,
        query_words: np.ndarray,
        query_mask_words: Optional[np.ndarray],
        values: Sequence[int],
    ) -> None:
        """Resolve home-miss/nonzero-reach keys attempt level by level.

        Each iteration probes *all* still-unresolved keys at their next
        probe row in one gathered mirror match — the array-ops analogue of
        the scalar extended search, with identical per-key access counts
        (home fetch + attempts walked) and match-pass accounting.
        """
        reach = mirror.reach[homes]
        buckets = mirror.buckets
        generic_probe = (
            type(self._probing).probe_batch is ProbingPolicy.probe_batch
        )
        self._stats.record_probe_walk(int(key_idx.size))
        tracer = self._stats.tracer
        alive = np.arange(key_idx.size)
        attempt = 0
        while alive.size:
            attempt += 1
            homes_alive = homes[alive]
            if generic_probe:
                # Key-dependent policies (double hashing) need the original
                # key values; vectorized policies ignore them.
                keys_arg = [values[i] for i in key_idx[alive].tolist()]
                rows = self._probing.probe_batch(
                    homes_alive, attempt, buckets, keys_arg
                )
            else:
                rows = self._probing.probe_batch(homes_alive, attempt, buckets)
            if tracer is not None:
                tracer.emit(
                    "probe_step", attempt=attempt, keys=int(alive.size)
                )
            match = mirror.match_rows(
                rows,
                query_words[alive],
                query_mask_words[alive]
                if query_mask_words is not None
                else None,
            )
            hit, slot, passes, multiple = priority_encode_batch(
                match, self._processors
            )
            self._stats.record_match_passes(int(passes.sum()))
            if self._access_sink is not None:
                self._access_sink(rows)
            # Each still-alive key is distinct, so plain fancy-index
            # addition accumulates its walk passes exactly once.
            rs.match_passes[key_idx[alive]] += passes
            accesses = attempt + 1  # the home fetch plus this walk
            hit_positions = np.flatnonzero(hit)
            if hit_positions.size:
                out = key_idx[alive[hit_positions]]
                rs.hit[out] = True
                rs.row[out] = rows[hit_positions]
                rs.slot[out] = slot[hit_positions]
                rs.bucket_accesses[out] = accesses
                rs.multiple_matches[out] = multiple[hit_positions]
            exhausted = ~hit & (reach[alive] == attempt)
            miss_positions = np.flatnonzero(exhausted)
            if miss_positions.size:
                rs.bucket_accesses[key_idx[alive[miss_positions]]] = accesses
            done = int(hit_positions.size + miss_positions.size)
            if done:
                self._stats.record_lookup_batch(
                    done, int(hit_positions.size), accesses
                )
            alive = alive[~hit & (reach[alive] > attempt)]


__all__ = [
    "BatchSearchEngine",
    "DEFAULT_CHUNK_SIZE",
    "MIN_CHUNK_SIZE",
    "PreparedBatch",
    "default_chunk_size",
]
