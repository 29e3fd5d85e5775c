"""Multi-slice CA-RAM: slice groups, arrangements, and overflow areas.

Section 3.2 composes slices into a memory subsystem: "a database can be
implemented with multiple CA-RAM slices, arranged vertically (i.e., more
rows), horizontally (i.e., wider buckets), or in a mixed way", with optional
dedicated slices (or a small CAM) serving as an overflow area "accessed
together with other slices ... similar to the popular victim cache
technique".

* :class:`SliceGroup` — one database over ``k`` identical slices, and the
  only bucket store: a lone :class:`~repro.core.slice.CARAMSlice` is a
  group of one.

  - VERTICAL: the row spaces concatenate; a bucket is one row of one slice.
    Bucket count = ``k * 2**R`` (not necessarily a power of two — design B
    of Table 3 uses five slices).
  - HORIZONTAL: a logical bucket is the same row index across *all* slices,
    fetched in parallel.  One logical bucket access therefore costs ``k``
    physical row fetches but only **one** AMAL access — this is exactly why
    the paper's horizontal designs beat vertical ones at equal load factor.

  Writes are per slot: an insert takes the lowest free slot on its probe
  walk and a delete clears one slot, each one row write, so buckets may
  hold holes.  Only a ``slot_priority`` insert (LPM ordering: slots sorted
  descending, slot 0 matching first) re-encodes its whole bucket.  Writes
  use the layout's word codec; reach fields only grow until ``rebuild()``.

  Section 4.3's side stores belong to the group too: an attached overflow
  area (a small TCAM or a spare slice group) and the reliability layer's
  victim store are searched in parallel with the home bucket through one
  overlay, scalar and columnar, so a record held there costs no extra
  access.

* :class:`CARAMSubsystem` — named groups behind request ports.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple,
)

import numpy as np

from repro.errors import CapacityError, ConfigurationError, LookupError_
from repro.core.bucket import SlotPriority
from repro.core.config import Arrangement, BucketGeometry, SliceConfig
from repro.core.index import IndexGenerator, KeyInput
from repro.core.key import TernaryKey
from repro.core.match import MatchProcessor
from repro.core.probing import LinearProbing, ProbingPolicy
from repro.core.record import Record
from repro.core.results import BatchResultSet, SearchResult
from repro.core.stats import SearchStats
from repro.hashing.base import HashFunction
from repro.memory.array import MemoryArray
from repro.memory.mirror import (
    DecodedMirror,
    keys_to_words,
    records_to_words,
    words_for_bits,
    words_to_ints,
)
from repro.telemetry.profiling import profile

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.batch import BatchKeys, BatchSearchEngine
    from repro.core.bulk import BulkTotals
    from repro.reliability.faults import FaultConfig
    from repro.reliability.manager import ReliabilityManager, ReliabilityPolicy
    from repro.telemetry.metrics import MetricsRegistry
    from repro.telemetry.trace import Tracer


class OverflowStore(Protocol):
    """A Section 4.3 overflow area: a small TCAM or a spare slice group.

    ``search`` returns an object with ``.hit`` and ``.record``.
    """

    @property
    def record_count(self) -> int: ...

    def insert(self, key: KeyInput, data: int = 0) -> object: ...

    def delete(self, key: KeyInput) -> int: ...

    def search(self, key: KeyInput, search_mask: int = 0) -> object: ...

    def clear(self) -> None: ...


class SliceGroup:
    """One database built from ``slice_count`` identical slices.

    Args:
        config: per-slice geometry.
        slice_count: number of physical slices in the group.
        arrangement: HORIZONTAL (wider buckets) or VERTICAL (more rows).
        hash_function: maps keys to this group's bucket space; its
            ``bucket_count`` must equal :attr:`bucket_count`.
        probing: overflow policy over the *bucket* space.
        slot_priority: optional :data:`~repro.core.bucket.SlotPriority` (LPM).
        name: label used in subsystem routing and reports.
    """

    def __init__(
        self,
        config: SliceConfig,
        slice_count: int,
        arrangement: Arrangement,
        hash_function: HashFunction,
        probing: Optional[ProbingPolicy] = None,
        slot_priority: Optional[SlotPriority] = None,
        name: str = "db",
    ) -> None:
        self._config = config
        self._geometry = BucketGeometry(
            arrangement, config.rows, slice_count, config.slots_per_bucket
        )
        self._layout = config.layout
        self._probing = probing if probing is not None else LinearProbing()
        self._slot_priority = slot_priority
        self.name = name
        self._arrays = [
            MemoryArray(config.rows, config.row_bits, config.timing)
            for _ in range(slice_count)
        ]
        if hash_function.bucket_count != self.bucket_count:
            raise ConfigurationError(
                f"hash function addresses {hash_function.bucket_count} buckets "
                f"but the group has {self.bucket_count}"
            )
        self._index = IndexGenerator(hash_function, self.bucket_count)
        self._matcher = MatchProcessor(config.record_format.key_bits)
        self._record_count = 0
        self._mirror: Optional["DecodedMirror"] = None
        self._batch_engine = None
        self._last_bulk_plan: Optional["BulkTotals"] = None
        self.stats = SearchStats()
        self.physical_row_fetches = 0
        self._reliability: Optional["ReliabilityManager"] = None
        self._overflow: Optional[OverflowStore] = None

    # ------------------------------------------------------------------
    # Reliability (fault injection, ECC, graceful degradation)
    # ------------------------------------------------------------------

    @property
    def reliability(self) -> Optional["ReliabilityManager"]:
        """The active reliability manager, or None (layer disabled)."""
        return self._reliability

    def enable_reliability(
        self,
        policy: Optional["ReliabilityPolicy"] = None,
        faults: Optional["FaultConfig"] = None,
    ) -> "ReliabilityManager":
        """Protect every physical array with the reliability layer.

        Each array gets an ECC guard (checkwords encoded over the current
        content, so enable *after* loading) and an independently-salted
        fault stream; lookups then correct, retry around, or surface every
        fault as a :class:`~repro.errors.CorruptionError` — never a silent
        wrong answer.  Quarantine operates at logical-bucket granularity,
        so a horizontal group spares all rows of a failing bucket together.
        """
        from repro.reliability.manager import (
            ReliabilityManager,
            ReliabilityPolicy,
        )

        if self._reliability is not None:
            self.disable_reliability()
        if policy is None:
            policy = ReliabilityPolicy()
        self._reliability = ReliabilityManager(self, policy, faults)
        return self._reliability

    def disable_reliability(self) -> None:
        """Detach the reliability layer (arrays return to raw access)."""
        if self._reliability is not None:
            self._reliability.detach()
            self._reliability = None

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------

    @property
    def tracer(self) -> Optional["Tracer"]:
        """The attached structured-event tracer (None = tracing off)."""
        return self.stats.tracer

    @tracer.setter
    def tracer(self, tracer: Optional["Tracer"]) -> None:
        """Attach one tracer to the stats and every physical array."""
        self.stats.tracer = tracer
        for array in self._arrays:
            array.tracer = tracer

    def enable_latency_tracking(
        self, relative_error: Optional[float] = None
    ) -> None:
        """Record per-chunk lookup latency into the group's search stats."""
        self.stats.enable_latency_tracking(relative_error)

    def disable_latency_tracking(self) -> None:
        self.stats.disable_latency_tracking()

    def register_telemetry(
        self, registry: "MetricsRegistry", prefix: Optional[str] = None
    ) -> None:
        """Publish this group's live counters into a metrics registry.

        Registers the search stats, each slice's physical array counters,
        and an occupancy/topology summary under ``{prefix}.*`` (the prefix
        defaults to the group name).  Providers are read lazily at
        ``snapshot()`` time, so registration costs nothing per lookup.
        """
        if prefix is None:
            prefix = self.name
        registry.register_provider(f"{prefix}.search", self.stats)
        for i, array in enumerate(self._arrays):
            registry.register_provider(f"{prefix}.slice{i}.memory", array.stats)
        registry.register_provider(
            f"{prefix}.occupancy",
            lambda: {
                "record_count": self.record_count,
                "load_factor": self.load_factor,
                "capacity_records": self.capacity_records,
                "slice_count": self.slice_count,
                "arrangement": self.arrangement.name.lower(),
                "physical_row_fetches": self.physical_row_fetches,
            },
        )
        registry.register_provider(
            f"{prefix}.bulk",
            lambda: (
                self._last_bulk_plan.as_dict()
                if self._last_bulk_plan is not None
                else {}
            ),
        )
        registry.register_provider(
            f"{prefix}.reliability",
            lambda: (
                self._reliability.as_dict()
                if self._reliability is not None
                else {}
            ),
        )
        registry.register_provider(
            f"{prefix}.batch",
            lambda: {
                "columnar_rows": (
                    self._batch_engine.columnar_rows
                    if self._batch_engine is not None
                    else 0
                ),
            },
        )

    @property
    def last_bulk_plan(self) -> Optional["BulkTotals"]:
        """Planner totals from the most recent fast-path :meth:`bulk_load`."""
        return self._last_bulk_plan

    # ------------------------------------------------------------------
    # Geometry
    # ------------------------------------------------------------------

    @property
    def config(self) -> SliceConfig:
        return self._config

    @property
    def geometry(self) -> BucketGeometry:
        """Where each logical bucket lives across the slices."""
        return self._geometry

    @property
    def slice_count(self) -> int:
        return self._geometry.slices

    @property
    def arrangement(self) -> Arrangement:
        return self._geometry.arrangement

    @property
    def index_generator(self) -> IndexGenerator:
        return self._index

    @property
    def bucket_count(self) -> int:
        """Logical buckets ``M``."""
        return self._geometry.bucket_count

    @property
    def slots_per_bucket(self) -> int:
        """Logical slots ``S`` per bucket."""
        return self._geometry.slots_per_bucket

    @property
    def capacity_records(self) -> int:
        return self._geometry.capacity_records

    @property
    def record_count(self) -> int:
        return self._record_count

    @property
    def load_factor(self) -> float:
        return self._record_count / self.capacity_records

    @property
    def rows_fetched_per_access(self) -> int:
        """Physical row fetches behind one logical bucket access."""
        return self._geometry.rows_fetched

    # ------------------------------------------------------------------
    # Bucket store
    # ------------------------------------------------------------------

    def _read_bucket(self, bucket: int) -> Tuple[List[Tuple[bool, Record]], int]:
        """Fetch a logical bucket: (candidates slot-ordered, reach).

        Counts one logical access worth of physical fetches.
        """
        candidates: List[Tuple[bool, Record]] = []
        reach = 0
        for i, (slice_id, row) in enumerate(self._geometry.rows_of(bucket)):
            row_value = self._arrays[slice_id].read_row(row)
            self.physical_row_fetches += 1
            if i == 0:
                reach = self._layout.read_aux(row_value)
            candidates.extend(self._layout.read_all(row_value))
        return candidates, reach

    def _bucket_words(self, row_values: Sequence[int]):
        """``decode_rows`` of a bucket's first rows, in slot order: reach,
        ``(S,)`` valid bits, ``(S, W)`` keys, masks (zero if binary), data."""
        reach, valid, *words = self._layout.decode_rows(row_values)
        if words[1] is None:
            words[1] = np.zeros_like(words[0])
        words = [w.reshape(valid.size, w.shape[2]) for w in words]
        return (int(reach[0]), valid.reshape(valid.size), *words)

    def _write_bucket(self, bucket: int, row_values: Sequence[int]) -> None:
        """Write a bucket's rows, in ``rows_of`` order: the one bucket
        writer, shared with the reliability layer."""
        rows = self._geometry.rows_of(bucket)
        for (slice_id, row), value in zip(rows, row_values):
            self._arrays[slice_id].write_row(row, value)

    def _priorities(self, records: Sequence[Record]) -> np.ndarray:
        """``slot_priority`` of Records, through their word columns."""
        columns = records_to_words(records, self._config.record_format)
        return np.asarray(self._slot_priority(*columns), dtype=np.float64)

    # ------------------------------------------------------------------
    # CAM mode
    # ------------------------------------------------------------------

    def search(self, key: KeyInput, search_mask: int = 0) -> SearchResult:
        """Look up a key across the group (one AMAL access per logical
        bucket visited, however many slices are fetched in parallel).

        With reliability enabled the lookup retries around detected
        corruptions (quarantining the failing bucket) — correct answer or
        raised error, never a silently wrong result.  The side stores are
        searched in parallel (:meth:`_overlay`).
        """
        return self._overlay(
            self._search_guarded(key, search_mask), key, search_mask
        )

    def _search_guarded(
        self, key: KeyInput, search_mask: int = 0
    ) -> SearchResult:
        """The main arrays' answer, retried around detected corruption."""
        if self._reliability is None:
            return self._search_once(key, search_mask)
        return self._reliability.guarded_search(
            key, search_mask, self._search_once
        )

    def _search_once(self, key: KeyInput, search_mask: int = 0) -> SearchResult:
        """One un-retried pass of the scalar group search: each home's
        probe walk, from attempt 0 (the home itself) to the home's reach."""
        search_value = key.value if isinstance(key, TernaryKey) else int(key)
        if isinstance(key, TernaryKey):
            search_mask |= key.mask
        tracer = self.stats.tracer
        accesses = 0
        for home in self._index.indices_for_search(key, search_mask):
            attempt = reach = 0
            while attempt <= reach:
                bucket = self._probing.probe(
                    home, attempt, self.bucket_count, search_value
                )
                if attempt and tracer is not None:
                    tracer.emit(
                        "probe_step", attempt=attempt, row=bucket, keys=1
                    )
                candidates, row_reach = self._read_bucket(bucket)
                if not attempt:
                    reach = row_reach  # the home row's reach bounds the walk
                accesses += 1
                result, passes = self._matcher.match_pipelined(
                    candidates, search_value, search_mask,
                    processors=self._config.match_processors,
                )
                self.stats.record_match_passes(passes)
                if result.hit:
                    self.stats.record_lookup(accesses, hit=True)
                    return SearchResult(
                        hit=True,
                        record=result.record,
                        row=bucket,
                        slot=result.matched_slot,
                        bucket_accesses=accesses,
                        multiple_matches=result.multiple_matches,
                    )
                attempt += 1
        self.stats.record_lookup(max(accesses, 1), hit=False)
        return SearchResult(
            hit=False, record=None, row=None, slot=None,
            bucket_accesses=max(accesses, 1),
        )

    # ------------------------------------------------------------------
    # Side stores (Section 4.3): the overflow area and the victim store
    # ------------------------------------------------------------------

    def attach_overflow(self, store: OverflowStore) -> None:
        """Give the group an overflow area searched with the home bucket.

        While a store is attached, :meth:`insert` tries the home bucket
        only and sends the record to the store when that bucket is full,
        so lookups never need extended searches: "If this TCAM is accessed
        simultaneously with the main CA-RAM, AMAL becomes 1" (Section
        4.3).  :meth:`bulk_load` then inserts sequentially.
        """
        self._overflow = store

    @property
    def overflow_store(self) -> Optional[OverflowStore]:
        """The attached overflow area, or None."""
        return self._overflow

    def _side_stores_hold_records(self) -> bool:
        return bool(
            (self._reliability is not None and self._reliability.victims)
            or (self._overflow is not None and self._overflow.record_count)
        )

    def _side_answer(
        self, result: SearchResult, key: KeyInput, search_mask: int
    ) -> Optional[SearchResult]:
        """The side-store answer that replaces ``result``, or None.

        Each store is searched with ``search_mask | key.mask``.  A side
        record fills a miss; with ``slot_priority`` it also replaces a
        main hit of strictly lower priority.  The victim store is asked
        before the overflow area, so without ``slot_priority`` a victim
        answers a miss first.  The stores are searched in parallel with
        the home bucket, so the answer keeps the main lookup's accounting.
        """
        if isinstance(key, TernaryKey):
            value, mask = key.value, search_mask | key.mask
        else:
            value, mask = int(key), search_mask
        sorted_buckets = self._slot_priority is not None

        def outranks(record: Record, other: Optional[Record]) -> bool:
            return other is None or sorted_buckets and bool(
                np.greater(*self._priorities([record, other]))
            )

        best = result.record if result.hit else None
        winner = None
        if self._reliability is not None and self._reliability.victims:
            victim = self._reliability.best_victim(value, mask)
            if victim is not None and outranks(victim, best):
                best = victim
                winner = (victim, True)
        store = self._overflow
        if (
            store is not None
            and store.record_count
            and (best is None or sorted_buckets)
        ):
            side = store.search(value, mask)
            if side.hit and outranks(side.record, best):
                winner = (side.record, False)
        if winner is None:
            return None
        record, from_victim = winner
        if from_victim:
            self.stats.record_victim_hit()
        return SearchResult(
            hit=True,
            record=record,
            row=None,
            slot=None,
            bucket_accesses=result.bucket_accesses,
            multiple_matches=result.multiple_matches,
        )

    def _overlay(
        self, result: SearchResult, key: KeyInput, search_mask: int
    ) -> SearchResult:
        """Merge the side stores into one main-array lookup."""
        if not self._side_stores_hold_records():
            return result
        side = self._side_answer(result, key, search_mask)
        return result if side is None else side

    def _overlay_columnar(
        self,
        result_set: "BatchResultSet",
        keys: "BatchKeys",
        search_mask: int,
    ) -> "BatchResultSet":
        """Columnar :meth:`_overlay`: side-store answers become per-key
        overrides.  No per-key work while neither store holds a record;
        the stores search Python ints, so the keys they are asked about
        are read out of a word matrix."""
        if not self._side_stores_hold_records():
            return result_set
        if self._slot_priority is None:
            positions = np.flatnonzero(~result_set.hit)
        else:
            positions = np.arange(len(result_set))
        if isinstance(keys, np.ndarray) and keys.ndim == 2:
            asked = words_to_ints(keys[positions])
        else:
            asked = [keys[i] for i in positions.tolist()]
        for i, key in zip(positions.tolist(), asked):
            side = self._side_answer(result_set.result_at(i), key, search_mask)
            if side is not None:
                result_set.set_override(i, side)
        return result_set

    def lookup(self, key: KeyInput, search_mask: int = 0) -> Optional[int]:
        """Convenience: matched record's data, or None."""
        return self.search(key, search_mask).data

    def __contains__(self, key: KeyInput) -> bool:
        return self.search(key).hit

    # ------------------------------------------------------------------
    # Batch lookup (decoded mirror over all slices)
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Drop the batch engine; serving shards call this on shutdown.

        The group stays usable — the next batch lookup lazily rebuilds a
        fresh engine.  Idempotent.
        """
        self._batch_engine = None

    def __enter__(self) -> "SliceGroup":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _make_mirror(self) -> DecodedMirror:
        """Build the decoded mirror over every slice of the group."""
        return DecodedMirror(self._arrays, self._layout, self._geometry)

    def _synced_mirror(self) -> "DecodedMirror":
        """The synced decoded mirror (its bucket ``b`` is the scalar path's
        bucket ``b``): the one provider of every mirror reader, synced
        under the reliability layer's repair loop when it is enabled."""
        if self._mirror is None:
            self._mirror = self._make_mirror()
        if self._reliability is None:
            self._mirror.sync()
        else:
            self._reliability.guarded_sync(self._mirror)
        return self._mirror

    def _mirror_access_sink(self, buckets) -> None:
        """Account a batch of mirror-served logical bucket fetches in
        :attr:`physical_row_fetches` (one logical access is
        ``rows_fetched_per_access`` physical fetches).  With reliability
        enabled, each served fetch also samples access-time soft errors
        into the physical rows.
        """
        if self._reliability is not None:
            self._reliability.on_batch_access(buckets)
        self.physical_row_fetches += len(buckets) * self._geometry.rows_fetched

    @property
    def batch_engine(self) -> Optional["BatchSearchEngine"]:
        """The lazily-built batch engine (None before the first batch)."""
        return self._batch_engine

    def _build_batch_engine(self) -> "BatchSearchEngine":
        from repro.core.batch import BatchSearchEngine

        record_format = self._config.record_format
        return BatchSearchEngine(
            index_generator=self._index,
            mirror_provider=self._synced_mirror,
            slots_per_bucket=self.slots_per_bucket,
            match_processors=self._config.match_processors,
            key_bits=record_format.key_bits,
            stats=self.stats,
            scalar_search=self._search_guarded,
            probing=self._probing,
            access_sink=self._mirror_access_sink,
            value_words=(
                words_for_bits(record_format.data_bits)
                if record_format.data_bits
                else 0
            ),
        )

    def search_batch_columnar(
        self, keys: "BatchKeys", search_mask: int = 0
    ) -> "BatchResultSet":
        """Vectorized lookup returning the columnar ``BatchResultSet``.

        The native product of the batch path: struct-of-arrays columns
        (hit mask, winning bucket/slot, per-key access and match-pass
        counts) written directly by the match kernels.
        ``BatchResultSet.results()`` materializes the same
        ``SearchResult`` list :meth:`search_batch` returns;
        ``data_values()`` skips record objects entirely.

        ``keys`` is either a ``(n, words)`` uint64 word matrix
        (little-endian 64-bit words, as
        :func:`~repro.memory.mirror.keys_to_words` and
        :meth:`~repro.apps.trigram.caram.StringKeyCodec.encode_batch`
        produce them), which reaches the kernel without one Python object
        per key, or a sequence of ints and ``TernaryKey`` s.  A word
        matrix of another dtype or word count, or with a bit above the
        key width, raises :class:`~repro.errors.KeyFormatError` before
        any counter moves.
        """
        if self._batch_engine is None:
            self._batch_engine = self._build_batch_engine()
        return self._overlay_columnar(
            self._batch_engine.search_columnar(keys, search_mask),
            keys,
            search_mask,
        )

    def search_batch(
        self, keys: "BatchKeys", search_mask: int = 0
    ) -> List[SearchResult]:
        """Vectorized lookup of a whole key array across the group.

        Equivalent — results and statistics (including
        :attr:`physical_row_fetches`) — to calling :meth:`search` per key
        in order; both the home-bucket common case and the extended probe
        walk are served by the decoded mirror, fanned across all slices at
        once.  Only keys needing the Section-4 multi-bucket enumeration
        (don't-care bits over hash positions) fall back to the scalar
        path.

        A materializing wrapper over :meth:`search_batch_columnar`.
        """
        return self.search_batch_columnar(keys, search_mask).results()

    def bulk_load(self, records, data=None) -> int:
        """Insert many records at once; returns stored copies.

        ``records`` holds ``(key, data)`` pairs or, given ``data`` (one
        payload per key), the keys alone in any form
        :meth:`search_batch_columnar` takes.  Either is parsed once into
        word columns (:func:`~repro.core.bulk.bulk_columns`), which raise
        :class:`~repro.errors.KeyFormatError` on what :meth:`insert`
        rejects before anything is written.

        Semantically identical to calling :meth:`insert` per record in
        order — same final per-slice memory images bit for bit, same record
        count, same ``SearchStats`` — but built as one vectorized pipeline
        (Section 3.2's DMA-style database construction) that makes no
        ``Record``.  The fast path requires an empty group, linear probing
        and no overflow area; otherwise the records are inserted
        sequentially.  Unlike the sequential loop, the fast path is
        all-or-nothing: a :class:`~repro.errors.CapacityError` is raised
        before any row is written, leaving the group untouched.
        """
        from repro.core.bulk import build_bulk_image, bulk_columns

        if data is None:
            pairs = list(records)
            records = [key for key, _ in pairs]
            data = [datum for _, datum in pairs]
        columns = bulk_columns(records, data, self._config.record_format)
        if not len(columns[0]):
            return 0
        fast = (
            self._record_count == 0
            and self._overflow is None
            and type(self._probing) is LinearProbing
        )
        if not fast:
            if isinstance(records, np.ndarray) and records.ndim == 2:
                records = words_to_ints(columns[0])
            return sum(map(self.insert, records, np.asarray(data).tolist()))
        max_reach = self._layout.max_reach if self._layout.aux_bits else 0
        plan, array_rows = build_bulk_image(
            *columns,
            layout=self._layout,
            geometry=self._geometry,
            index_generator=self._index,
            reach_limit=min(max_reach, self.bucket_count - 1),
            slot_priority=self._slot_priority,
            tracer=self.stats.tracer,
        )
        totals = self._last_bulk_plan = plan.totals
        with profile("bulk.install"):
            # The group's full-image install, whatever a subclass's
            # ``dma_load`` means.
            SliceGroup.dma_load(
                self, array_rows, record_count=totals.copy_count
            )
            self.stats.record_insert_batch(
                totals.record_count, totals.copy_count
            )
            if self._mirror is None:
                self._mirror = self._make_mirror()
            self._mirror.install(
                plan.copy_bucket,
                plan.copy_slot,
                plan.copy_keys,
                plan.copy_masks,
                plan.copy_data,
                plan.reach,
            )
        return totals.copy_count

    def dma_load(
        self,
        slice_rows: Sequence[List[int]],
        record_count: Optional[int] = None,
    ) -> None:
        """DMA-install one full pre-packed row image per slice.

        Every slice image must cover its whole array.  ``record_count`` is the
        incoming occupant total; when omitted it is recovered by scanning
        the images' valid bits.
        """
        if len(slice_rows) != self.slice_count:
            raise ConfigurationError(
                f"expected {self.slice_count} slice images, "
                f"got {len(slice_rows)}"
            )
        for rows in slice_rows:
            if len(rows) != self._config.rows:
                raise ConfigurationError(
                    "each slice image must cover the full array"
                )
        if record_count is None:
            record_count = sum(
                self._layout.occupancy(value)
                for rows in slice_rows
                for value in rows
            )
        for array, rows in zip(self._arrays, slice_rows):
            array.load(list(rows), 0)
        self._record_count = record_count

    def insert(self, key: KeyInput, data: int = 0) -> int:
        """Insert a record; returns the number of stored copies.

        Ternary keys with don't-care bits in hash positions are duplicated
        into every matching home bucket; each copy walks its probe sequence
        to the first bucket with a free slot and raises its home's reach.
        With an overflow area attached only the home bucket is tried, and
        a record whose home is full is stored once in the area instead.

        All or nothing: when a copy cannot be stored,
        :class:`~repro.errors.CapacityError` is raised with this call's
        copies removed again (reach fields it raised stay raised).
        """
        record = Record.make(key, data, self._config.record_format)
        homes = self._index.indices_for_stored(record.key)
        buckets: List[int] = []  # where this call's copies went
        try:
            for home in homes:
                bucket = self._place_copy(home, record)
                if bucket is not None:
                    buckets.append(bucket)
            spilled = len(buckets) < len(homes)
            if spilled:
                self._overflow.insert(record.key, record.data)
        except CapacityError:
            fields = np.concatenate(
                records_to_words([record], self._config.record_format), axis=1
            ).reshape(-1)
            for bucket in buckets:
                self._clear_slot(bucket, fields)
            raise
        self.stats.record_insert(len(homes))
        return len(buckets) + spilled

    def _place_copy(self, home: int, record: Record) -> Optional[int]:
        """Store one copy on ``home``'s probe walk; returns its bucket, or
        None when an overflow area is attached and the home is full."""
        max_reach = self._layout.max_reach if self._layout.aux_bits else 0
        limit = 0 if self._overflow is not None else min(
            max_reach, self.bucket_count - 1
        )
        for attempt in range(limit + 1):
            bucket = self._probing.probe(
                home, attempt, self.bucket_count, record.key.value
            )
            if self._try_place(bucket, record):
                if attempt > 0:
                    if self.stats.tracer is not None:
                        self.stats.tracer.emit(
                            "spill", home=home, attempt=attempt
                        )
                    self._raise_reach(home, attempt)
                self._record_count += 1
                return bucket
        if self._overflow is not None:
            return None
        raise CapacityError(
            f"no free slot within reach {limit} of bucket {home} "
            f"(load factor {self.load_factor:.2f})"
        )

    def _try_place(self, bucket: int, record: Record) -> bool:
        """Store a record in one bucket; False when the bucket is full.

        Without a slot-priority function the record takes the lowest free
        slot — one row write.  With one, the record goes ahead of the first
        occupant of strictly lower priority and the occupants are
        re-encoded from slot 0, so the priority encoder's lowest-slot-wins
        rule returns the highest-priority match.
        """
        geometry = self._geometry
        rows = geometry.rows_of(bucket)
        if self._slot_priority is None:
            for slice_id, row in rows:
                array = self._arrays[slice_id]
                row_value = array.verified_peek_row(row)
                free = self._layout.find_free_slot(row_value)
                if free is not None:
                    array.write_row(
                        row, self._layout.write_slot(row_value, free, record)
                    )
                    return True
            return False
        reach, valid, *fields = self._bucket_words([
            self._arrays[slice_id].verified_peek_row(row)
            for slice_id, row in rows
        ])
        occupied = np.flatnonzero(valid)
        if occupied.size >= self.slots_per_bucket:
            return False
        new = records_to_words([record], self._config.record_format)
        columns = [np.concatenate((a, b[occupied])) for a, b in zip(new, fields)]
        priority = np.asarray(self._slot_priority(*columns))  # new: row 0
        position = np.argmax(np.append(priority[1:] < priority[0], True))
        order = np.insert(np.arange(1, occupied.size + 1), position, 0)
        slots = np.arange(order.size)
        self._write_bucket(bucket, self._layout.encode_rows(
            len(rows),
            np.array([reach] + [0] * (len(rows) - 1)),
            slots // geometry.slots,
            slots % geometry.slots,
            *(column[order] for column in columns),
        ))
        return True

    def _first_row(self, bucket: int) -> Tuple[MemoryArray, int, int]:
        """``(array, row, row_value)`` of a bucket's first physical row —
        the one holding its reach field."""
        slice_id, row = self._geometry.rows_of(bucket)[0]
        array = self._arrays[slice_id]
        return array, row, array.verified_peek_row(row)

    def reach_fields(self) -> List[int]:
        """Every bucket's reach field, in bucket order, read from the row
        holding it: no record is decoded and no access is counted."""
        return [
            self._layout.read_aux(self._first_row(bucket)[2])
            for bucket in range(self.bucket_count)
        ]

    def _raise_reach(self, home: int, attempt: int) -> None:
        array, row, row_value = self._first_row(home)
        if attempt > self._layout.read_aux(row_value):
            array.write_row(row, self._layout.write_aux(row_value, attempt))

    def delete(self, key: KeyInput) -> int:
        """Remove every stored copy of the exact key (value *and* mask).

        Each home's probe walk clears the first slot holding the key — one
        row write — and leaves a hole; reach fields are not shrunk.  An
        attached overflow area drops its copies too.

        Returns the number of copies removed.  Raises
        :class:`~repro.errors.LookupError_` when neither held the key.
        """
        target = self._config.record_format.normalize_key(
            key if isinstance(key, TernaryKey) else int(key)
        )
        fields = keys_to_words([target.value, target.mask], target.width)
        removed = sum(
            self._clear_first(home, target.value, fields.reshape(-1))
            for home in self._index.indices_for_stored(target)
        )
        if self._overflow is not None and self._overflow.record_count:
            try:
                removed += self._overflow.delete(target)
            except LookupError_:
                pass
        if not removed:
            raise LookupError_(f"key {target} not present")
        self.stats.record_delete()
        return removed

    def _clear_first(self, home: int, value: int, fields: np.ndarray) -> bool:
        """Clear the first slot holding ``fields`` on ``home``'s probe walk
        (``value`` is the key value key-dependent probing reads)."""
        _, _, home_value = self._first_row(home)
        for attempt in range(self._layout.read_aux(home_value) + 1):
            bucket = self._probing.probe(home, attempt, self.bucket_count, value)
            if self._clear_slot(bucket, fields):
                return True
        return False

    def _clear_slot(self, bucket: int, fields: np.ndarray) -> bool:
        """Clear the first valid slot of ``bucket`` whose key and mask
        words (and data words, if given) are ``fields``: one row write."""
        for slice_id, row in self._geometry.rows_of(bucket):
            array = self._arrays[slice_id]
            row_value = array.verified_peek_row(row)
            _, valid, *stored = self._bucket_words([row_value])
            stored = np.concatenate(stored, axis=1)[:, : fields.size]
            hits = np.flatnonzero(valid & (stored == fields).all(axis=1))
            if hits.size:
                array.write_row(
                    row, self._layout.write_slot(row_value, int(hits[0]), None)
                )
                self._record_count -= 1
                return True
        return False

    # ------------------------------------------------------------------
    # Massive data evaluation and modification (Sections 1 / 3.2): the
    # match processors sweep every row once.  The sweep is served from the
    # decoded mirror but charged as one read per row of every array.
    # ------------------------------------------------------------------

    def _charge_sweep(self) -> None:
        for array in self._arrays:
            array.stats.reads += self._config.rows

    def scan(
        self, search_key: int = 0, search_mask: Optional[int] = None
    ) -> List[Tuple[int, int, Record]]:
        """Evaluate a ternary predicate over the whole database.

        Args:
            search_key: the predicate's value bits.
            search_mask: don't-care bits of the predicate; defaults to
                all-don't-care (match everything).

        Returns:
            All matching ``(bucket, slot, record)`` triples, bucket-major.
            Costs one read per row of every array.
        """
        if search_mask is None:
            search_mask = (1 << self._config.record_format.key_bits) - 1
        mirror = self._synced_mirror()
        match = mirror.match_predicate(search_key, search_mask)
        buckets, slots = match.nonzero()
        self._charge_sweep()
        found = mirror.records_at(buckets, slots)
        return list(zip(buckets.tolist(), slots.tolist(), found))

    def scan_count(
        self, search_key: int = 0, search_mask: Optional[int] = None
    ) -> int:
        """Count records matching a ternary predicate (one row pass)."""
        return len(self.scan(search_key, search_mask))

    def update_where(
        self,
        search_key: int,
        search_mask: int,
        transform: Callable[[Record], int],
    ) -> int:
        """Massive modification: rewrite the data of every matching record.

        Args:
            search_key / search_mask: the ternary selection predicate.
            transform: maps each matching record to its new data payload.

        Returns:
            Number of records modified.  Costs one read per row of every
            array for the sweep, plus one write per row holding a match;
            the matched slots are rewritten in place.
        """
        mirror = self._synced_mirror()
        match = mirror.match_predicate(search_key, search_mask)
        self._charge_sweep()
        rows, columns = match.nonzero()
        found = mirror.records_at(rows, columns)
        stored = dict(zip(zip(rows.tolist(), columns.tolist()), found))
        geometry = self._geometry
        record_format = self._config.record_format
        modified = 0
        for bucket in np.flatnonzero(match.any(axis=1)).tolist():
            for slice_id, row in geometry.rows_of(bucket):
                first = geometry.slot_offset(slice_id)
                slots = np.flatnonzero(
                    match[bucket, first : first + geometry.slots]
                ).tolist()
                if not slots:
                    continue
                array = self._arrays[slice_id]
                row_value = array.verified_peek_row(row)
                for slot in slots:
                    record = stored[bucket, first + slot]
                    row_value = self._layout.write_slot(
                        row_value,
                        slot,
                        Record.make(record.key, transform(record), record_format),
                    )
                    modified += 1
                array.write_row(row, row_value)
        return modified

    def records(self) -> Iterator[Tuple[int, int, Record]]:
        """Yield every stored record as ``(bucket, slot, record)``,
        bucket-major."""
        yield from self._synced_mirror().iter_valid()

    def rebuild(self) -> None:
        """Re-insert everything to compact spills and recompute reach.

        After heavy delete/insert churn, reach fields over-approximate
        (they are never decremented in place); a rebuild restores
        tight extended-search bounds — the database (re)construction the
        paper performs through RAM mode.
        """
        stored = [record for _, _, record in self.records()]
        if self._reliability is not None:  # quarantined records flow back
            stored.extend(self._reliability.victims)
            self._reliability.victims = []
            self._reliability.quarantined_buckets.clear()
        for array in self._arrays:
            array.fill(0)
        self._record_count = 0
        if self._slot_priority is not None and stored:
            order = np.argsort(-self._priorities(stored), kind="stable")
            stored = [stored[i] for i in order.tolist()]
        # Each stored copy goes back where a fresh insert puts one: the
        # k-th copy of an entry to the k-th of its duplication homes, so
        # a ternary key duplicated over hash bits keeps one copy per home.
        copies_seen: Dict[Record, int] = {}
        for record in stored:
            homes = self._index.indices_for_stored(record.key)
            copy = copies_seen.get(record, 0)
            copies_seen[record] = copy + 1
            home = homes[copy % len(homes)]
            if self._place_copy(home, record) is None:
                self._overflow.insert(record.key, record.data)

    def clear(self) -> None:
        """Drop all records, the overflow area's too, and reset counters."""
        for array in self._arrays:
            array.fill(0)
        if self._overflow is not None:
            self._overflow.clear()
        self._record_count = 0
        self.stats.reset()
        self.physical_row_fetches = 0
        if self._reliability is not None:
            self._reliability.reset()


class CARAMSubsystem:
    """A CA-RAM memory subsystem: named slice groups behind request ports.

    Supports the Section 3.2/4.3 composition features: several independent
    databases, virtual ports, and per-group overflow areas
    (:meth:`SliceGroup.attach_overflow`).  Operations route to the named
    group.
    """

    def __init__(self) -> None:
        self._groups: Dict[str, SliceGroup] = {}
        self._ports: Dict[str, str] = {}
        self.configuration: Dict[str, object] = {}

    # ------------------------------------------------------------------
    # Composition
    # ------------------------------------------------------------------

    def add_group(self, group: SliceGroup) -> SliceGroup:
        """Register a database group under its name."""
        if group.name in self._groups:
            raise ConfigurationError(f"group {group.name!r} already exists")
        self._groups[group.name] = group
        return group

    def group(self, name: str) -> SliceGroup:
        if name not in self._groups:
            raise ConfigurationError(f"no group named {name!r}")
        return self._groups[name]

    @property
    def group_names(self) -> List[str]:
        return sorted(self._groups)

    def map_port(self, port: str, group: str) -> None:
        """Bind a virtual port name to a database group."""
        if group not in self._groups:
            raise ConfigurationError(f"no group named {group!r}")
        self._ports[port] = group

    def group_for_port(self, port: str) -> SliceGroup:
        if port not in self._ports:
            raise ConfigurationError(f"no port named {port!r}")
        return self._groups[self._ports[port]]

    def remove_group(self, name: str) -> SliceGroup:
        """Unregister a database group (frees its name and ports).

        The deallocation path of the Section 3.2 class library.
        """
        if name not in self._groups:
            raise ConfigurationError(f"no group named {name!r}")
        group = self._groups.pop(name)
        for port in [p for p, g in self._ports.items() if g == name]:
            del self._ports[port]
        return group

    def attach_overflow(self, group: str, store: OverflowStore) -> None:
        """Give a group an overflow area searched in parallel."""
        self.group(group).attach_overflow(store)

    def overflow_store(self, group: str) -> Optional[OverflowStore]:
        return self.group(group).overflow_store

    def close(self) -> None:
        """Drop every group's batch engine.

        The subsystem-level teardown hook serving shards reach on drain;
        groups stay registered and usable afterwards.  Idempotent.
        """
        for name in sorted(self._groups):
            self._groups[name].close()

    def __enter__(self) -> "CARAMSubsystem":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------

    def insert(self, group_name: str, key: KeyInput, data: int = 0) -> int:
        return self.group(group_name).insert(key, data)

    def bulk_load(self, group_name: str, records) -> int:
        return self.group(group_name).bulk_load(records)

    def search(
        self, group_name: str, key: KeyInput, search_mask: int = 0
    ) -> SearchResult:
        return self.group(group_name).search(key, search_mask)

    def search_batch_columnar(
        self, group_name: str, keys: "BatchKeys", search_mask: int = 0
    ) -> "BatchResultSet":
        return self.group(group_name).search_batch_columnar(keys, search_mask)

    def search_batch(
        self, group_name: str, keys: "BatchKeys", search_mask: int = 0
    ) -> List[SearchResult]:
        """Batch counterpart of :meth:`search` — a materializing wrapper
        over :meth:`search_batch_columnar`."""
        return self.search_batch_columnar(
            group_name, keys, search_mask
        ).results()

    def search_port(self, port: str, key: KeyInput, search_mask: int = 0) -> SearchResult:
        """Search through a virtual port binding."""
        if port not in self._ports:
            raise ConfigurationError(f"no port named {port!r}")
        return self.search(self._ports[port], key, search_mask)

    def total_stats(self) -> SearchStats:
        """Aggregate search statistics across all groups."""
        total = SearchStats()
        for group in self._groups.values():
            total.merge(group.stats)
        return total

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------

    def set_tracer(self, tracer: Optional["Tracer"]) -> None:
        """Attach one tracer to every group (stats + physical arrays)."""
        for group in self._groups.values():
            group.tracer = tracer

    def enable_latency_tracking(
        self, relative_error: Optional[float] = None
    ) -> None:
        """Enable per-chunk lookup-latency sketches on every group."""
        for group in self._groups.values():
            group.enable_latency_tracking(relative_error)

    def disable_latency_tracking(self) -> None:
        for group in self._groups.values():
            group.disable_latency_tracking()

    def register_telemetry(
        self, registry: "MetricsRegistry", prefix: str = "subsystem"
    ) -> None:
        """Publish every group's counters plus the aggregate view."""
        for name, group in self._groups.items():
            group.register_telemetry(registry, prefix=f"{prefix}.{name}")
        registry.register_provider(
            f"{prefix}.total", lambda: self.total_stats().as_dict()
        )


__all__ = ["SliceGroup", "CARAMSubsystem", "OverflowStore"]
