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
  descending, slot 0 matching first) decodes and re-packs its bucket.
  Reach fields only grow; ``rebuild()`` recomputes them.

* :class:`CARAMSubsystem` — named groups behind request ports, with an
  optional overflow store (e.g. a small TCAM) searched in parallel with the
  home bucket, which pins AMAL at 1 for spilled records (Section 4.3).
"""

from __future__ import annotations

from dataclasses import dataclass
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

from repro.errors import CapacityError, ConfigurationError, LookupError_
from repro.core.config import Arrangement, SliceConfig
from repro.core.index import IndexGenerator, KeyInput
from repro.core.key import TernaryKey
from repro.core.match import MatchProcessor
from repro.core.probing import LinearProbing, ProbingPolicy
from repro.core.record import Record
from repro.core.results import BatchResultSet, SearchResult
from repro.core.stats import SearchStats
from repro.hashing.base import HashFunction
from repro.memory.array import MemoryArray
from repro.telemetry.profiling import profile

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.batch import BatchSearchEngine
    from repro.core.bulk import BulkPlan
    from repro.memory.mirror import DecodedMirror
    from repro.reliability.faults import FaultConfig
    from repro.reliability.manager import ReliabilityManager, ReliabilityPolicy
    from repro.telemetry.metrics import MetricsRegistry
    from repro.telemetry.trace import Tracer


class OverflowStore(Protocol):
    """What a victim/overflow area must support (a TCAM qualifies)."""

    def insert(self, key: KeyInput, data: int = 0) -> object: ...

    def search(self, key: object) -> object: ...


class SliceGroup:
    """One database built from ``slice_count`` identical slices.

    Args:
        config: per-slice geometry.
        slice_count: number of physical slices in the group.
        arrangement: HORIZONTAL (wider buckets) or VERTICAL (more rows).
        hash_function: maps keys to this group's bucket space; its
            ``bucket_count`` must equal :attr:`bucket_count`.
        probing: overflow policy over the *bucket* space.
        slot_priority: optional priority function for sorted buckets (LPM).
        name: label used in subsystem routing and reports.
        account_reads: when True, batch lookups served from the decoded
            mirror also charge each slice's physical :class:`ArrayStats`
            read counters, restoring exact parity with the scalar path.
        batch_chunk_size: keys per vectorized batch-lookup chunk; None
            derives a width-aware default
            (:func:`repro.core.batch.default_chunk_size`), which shrinks
            the chunk for wide-bucket groups like the trigram study.
    """

    def __init__(
        self,
        config: SliceConfig,
        slice_count: int,
        arrangement: Arrangement,
        hash_function: HashFunction,
        probing: Optional[ProbingPolicy] = None,
        slot_priority: Optional[Callable[[Record], float]] = None,
        name: str = "db",
        account_reads: bool = False,
        batch_chunk_size: Optional[int] = None,
    ) -> None:
        if slice_count <= 0:
            raise ConfigurationError(f"slice_count must be positive: {slice_count}")
        self._config = config
        self._count = slice_count
        self._arrangement = arrangement
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
        self._last_bulk_plan: Optional["BulkPlan"] = None
        self._batch_chunk_size = batch_chunk_size
        self.account_reads = account_reads
        self.stats = SearchStats()
        self.physical_row_fetches = 0
        self._reliability: Optional["ReliabilityManager"] = None

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
        self._reliability = ReliabilityManager.for_group(self, policy, faults)
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
    def last_bulk_plan(self) -> Optional["BulkPlan"]:
        """Planner totals from the most recent fast-path :meth:`bulk_load`."""
        return self._last_bulk_plan

    # ------------------------------------------------------------------
    # Geometry
    # ------------------------------------------------------------------

    @property
    def config(self) -> SliceConfig:
        return self._config

    @property
    def slice_count(self) -> int:
        return self._count

    @property
    def arrangement(self) -> Arrangement:
        return self._arrangement

    @property
    def index_generator(self) -> IndexGenerator:
        return self._index

    @property
    def bucket_count(self) -> int:
        """Logical buckets ``M``: rows stack vertically, merge horizontally."""
        if self._arrangement is Arrangement.VERTICAL:
            return self._config.rows * self._count
        return self._config.rows

    @property
    def slots_per_bucket(self) -> int:
        """Logical slots ``S`` per bucket."""
        if self._arrangement is Arrangement.VERTICAL:
            return self._config.slots_per_bucket
        return self._config.slots_per_bucket * self._count

    @property
    def capacity_records(self) -> int:
        return self.bucket_count * self.slots_per_bucket

    @property
    def record_count(self) -> int:
        return self._record_count

    @property
    def load_factor(self) -> float:
        return self._record_count / self.capacity_records

    @property
    def rows_fetched_per_access(self) -> int:
        """Physical row fetches behind one logical bucket access."""
        return self._count if self._arrangement is Arrangement.HORIZONTAL else 1

    # ------------------------------------------------------------------
    # Bucket store
    # ------------------------------------------------------------------

    def _bucket_rows(self, bucket: int) -> List[Tuple[int, int]]:
        """Physical (slice, row) pairs composing one logical bucket."""
        if not 0 <= bucket < self.bucket_count:
            raise ConfigurationError(
                f"bucket {bucket} out of range [0, {self.bucket_count})"
            )
        if self._arrangement is Arrangement.VERTICAL:
            return [(bucket // self._config.rows, bucket % self._config.rows)]
        return [(s, bucket) for s in range(self._count)]

    def _read_bucket(self, bucket: int) -> Tuple[List[Tuple[bool, Record]], int]:
        """Fetch a logical bucket: (candidates slot-ordered, reach).

        Counts one logical access worth of physical fetches.
        """
        candidates: List[Tuple[bool, Record]] = []
        reach = 0
        for i, (slice_id, row) in enumerate(self._bucket_rows(bucket)):
            row_value = self._arrays[slice_id].read_row(row)
            self.physical_row_fetches += 1
            if i == 0:
                reach = self._layout.read_aux(row_value)
            candidates.extend(self._layout.read_all(row_value))
        return candidates, reach

    def _occupants(self, bucket: int) -> Tuple[List[Record], int]:
        """Decode a bucket's valid records (no access accounting)."""
        records: List[Record] = []
        reach = 0
        for i, (slice_id, row) in enumerate(self._bucket_rows(bucket)):
            row_value = self._arrays[slice_id].verified_peek_row(row)
            if i == 0:
                reach = self._layout.read_aux(row_value)
            for valid, record in self._layout.read_all(row_value):
                if valid:
                    records.append(record)
        return records, reach

    def _write_occupants(self, bucket: int, records: List[Record], reach: int) -> None:
        """Re-pack a logical bucket from a record list (slot 0 first)."""
        if len(records) > self.slots_per_bucket:
            raise CapacityError(
                f"{len(records)} records exceed bucket capacity "
                f"{self.slots_per_bucket}"
            )
        per_slice = self._config.slots_per_bucket
        for i, (slice_id, row) in enumerate(self._bucket_rows(bucket)):
            chunk = records[i * per_slice : (i + 1) * per_slice]
            row_value = self._layout.pack(chunk, reach if i == 0 else 0)
            self._arrays[slice_id].write_row(row, row_value)

    # ------------------------------------------------------------------
    # CAM mode
    # ------------------------------------------------------------------

    def search(self, key: KeyInput, search_mask: int = 0) -> SearchResult:
        """Look up a key across the group (one AMAL access per logical
        bucket visited, however many slices are fetched in parallel).

        With reliability enabled the lookup retries around detected
        corruptions (quarantining the failing bucket) and consults the
        victim store in parallel — correct answer or raised error, never a
        silently wrong result.
        """
        if self._reliability is None:
            return self._search_once(key, search_mask)
        return self._reliability.guarded_search(
            key, search_mask, self._search_once
        )

    def _search_once(self, key: KeyInput, search_mask: int = 0) -> SearchResult:
        """One un-retried pass of the scalar group search."""
        search_value = key.value if isinstance(key, TernaryKey) else int(key)
        if isinstance(key, TernaryKey):
            search_mask |= key.mask
        homes = self._index.indices_for_search(key, search_mask)

        accesses = 0
        for home in homes:
            candidates, reach = self._read_bucket(home)
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
                    row=home,
                    slot=result.matched_slot,
                    bucket_accesses=accesses,
                    multiple_matches=result.multiple_matches,
                )
            for attempt in range(1, reach + 1):
                bucket = self._probing.probe(
                    home, attempt, self.bucket_count, search_value
                )
                if self.stats.tracer is not None:
                    self.stats.tracer.emit(
                        "probe_step", attempt=attempt, row=bucket, keys=1
                    )
                candidates, _ = self._read_bucket(bucket)
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
        self.stats.record_lookup(max(accesses, 1), hit=False)
        return SearchResult(
            hit=False, record=None, row=None, slot=None,
            bucket_accesses=max(accesses, 1),
        )

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

    def _make_mirror(self) -> "DecodedMirror":
        """Build the decoded mirror over every slice of the group."""
        from repro.memory.mirror import DecodedMirror

        horizontal = self._arrangement is Arrangement.HORIZONTAL
        return DecodedMirror(self._arrays, self._layout, horizontal=horizontal)

    def _synced_mirror(self) -> "DecodedMirror":
        """Decoded mirror over the whole group's logical bucket space.

        Horizontal arrangements mirror each row's slices as concatenated
        slot columns; vertical arrangements concatenate the row spaces —
        either way logical bucket ``b`` of the mirror is logical bucket
        ``b`` of the scalar path.
        """
        if self._mirror is None:
            self._mirror = self._make_mirror()
        self._mirror.sync()
        return self._mirror

    def _mirror_for_batch(self) -> "DecodedMirror":
        """The mirror provider handed to the batch engine (sync under the
        quarantine-and-retry loop when reliability is enabled)."""
        if self._reliability is None:
            return self._synced_mirror()
        return self._reliability.synced_mirror(self._synced_mirror)

    def _mirror_access_sink(self, buckets) -> None:
        """Account a batch of mirror-served logical bucket fetches.

        Always advances :attr:`physical_row_fetches` (one logical access is
        ``rows_fetched_per_access`` physical fetches); with
        ``account_reads`` it also charges the per-slice read counters —
        horizontal groups fetch every slice per bucket, vertical groups
        fetch only the slice owning each bucket.  With reliability enabled,
        each served fetch also samples access-time soft errors into the
        physical rows.
        """
        import numpy as np

        if self._reliability is not None:
            self._reliability.on_batch_access(buckets)
        count = len(buckets)
        self.physical_row_fetches += count * self.rows_fetched_per_access
        if not self.account_reads:
            return
        if self._arrangement is Arrangement.HORIZONTAL:
            for array in self._arrays:
                array.charge_reads(count)
        else:
            per_slice = np.bincount(
                np.asarray(buckets, dtype=np.int64) // self._config.rows,
                minlength=self._count,
            )
            for array, reads in zip(self._arrays, per_slice.tolist()):
                if reads:
                    array.charge_reads(int(reads))

    @property
    def batch_engine(self) -> Optional["BatchSearchEngine"]:
        """The lazily-built batch engine (None before the first batch)."""
        return self._batch_engine

    def _build_batch_engine(self) -> "BatchSearchEngine":
        from repro.core.batch import BatchSearchEngine
        from repro.memory.mirror import words_for_bits

        record_format = self._config.record_format
        return BatchSearchEngine(
            index_generator=self._index,
            mirror_provider=self._mirror_for_batch,
            slots_per_bucket=self.slots_per_bucket,
            match_processors=self._config.match_processors,
            key_bits=record_format.key_bits,
            stats=self.stats,
            scalar_search=self.search,
            probing=self._probing,
            access_sink=self._mirror_access_sink,
            chunk_size=self._batch_chunk_size,
            value_words=(
                words_for_bits(record_format.data_bits)
                if record_format.data_bits
                else 0
            ),
        )

    def search_batch_columnar(
        self, keys: Sequence[KeyInput], search_mask: int = 0
    ) -> "BatchResultSet":
        """Vectorized lookup returning the columnar ``BatchResultSet``.

        The native product of the batch path: struct-of-arrays columns
        (hit mask, winning bucket/slot, per-key access and match-pass
        counts) written directly by the match kernels.
        ``BatchResultSet.results()`` materializes the same
        ``SearchResult`` list :meth:`search_batch` returns;
        ``data_values()`` skips record objects entirely.
        """
        if self._batch_engine is None:
            self._batch_engine = self._build_batch_engine()
        result_set = self._batch_engine.search_columnar(keys, search_mask)
        if self._reliability is not None:
            result_set = self._reliability.overlay_result_set(
                result_set, keys, search_mask
            )
        return result_set

    def search_batch(
        self, keys: Sequence[KeyInput], search_mask: int = 0
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

    def bulk_load(self, records) -> int:
        """Insert many ``(key, data)`` pairs at once; returns stored copies.

        Semantically identical to calling :meth:`insert` per pair in order —
        same final per-slice memory images bit for bit, same record count,
        same ``SearchStats`` — but built as one vectorized pipeline
        (Section 3.2's DMA-style database construction).  The fast path
        requires an empty group, linear probing, and a reach field of at
        most 64 bits; otherwise the pairs are inserted sequentially.
        Unlike the sequential loop, the fast path is all-or-nothing: a
        :class:`~repro.errors.CapacityError` is raised before any row is
        written, leaving the group untouched.
        """
        pairs = list(records)
        if not pairs:
            return 0
        fast = (
            self._record_count == 0
            and type(self._probing) is LinearProbing
            and self._layout.aux_bits <= 64
        )
        if not fast:
            return sum(self.insert(key, data) for key, data in pairs)
        from repro.core.bulk import build_bulk_image

        max_reach = self._layout.max_reach if self._layout.aux_bits else 0
        horizontal = self._arrangement is Arrangement.HORIZONTAL
        image = build_bulk_image(
            pairs,
            record_format=self._config.record_format,
            layout=self._layout,
            index_generator=self._index,
            bucket_count=self.bucket_count,
            slots_per_bucket=self.slots_per_bucket,
            reach_limit=min(max_reach, self.bucket_count - 1),
            slot_priority=self._slot_priority,
            slice_count=self._count,
            rows_per_slice=self._config.rows,
            horizontal=horizontal,
            tracer=self.stats.tracer,
        )
        self._last_bulk_plan = image.plan
        with profile("bulk.install"):
            # The group's full-image install, whatever a subclass's
            # ``dma_load`` means.
            SliceGroup.dma_load(
                self, image.array_rows, record_count=image.plan.copy_count
            )
            self.stats.record_insert_batch(
                image.plan.record_count, image.plan.copy_count
            )
            if self._mirror is None:
                self._mirror = self._make_mirror()
            self._mirror.install(
                image.mirror_valid,
                image.mirror_key_words,
                image.mirror_mask_words,
                image.mirror_reach,
                image.mirror_records,
                data_words=image.mirror_data_words,
            )
        return image.plan.copy_count

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
        if len(slice_rows) != self._count:
            raise ConfigurationError(
                f"expected {self._count} slice images, got {len(slice_rows)}"
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

    def insert(self, key: KeyInput, data: int = 0, allow_spill: bool = True) -> int:
        """Insert a record; returns the number of stored copies.

        Ternary keys with don't-care bits in hash positions are duplicated
        into every matching home bucket; each copy walks its probe sequence
        to the first bucket with a free slot and raises its home's reach.
        With ``allow_spill=False`` the insert fails (CapacityError) instead
        of probing past a full home bucket — the hook the subsystem uses to
        divert overflows into a victim store.
        """
        record = Record.make(key, data, self._config.record_format)
        homes = self._index.indices_for_stored(record.key)
        for home in homes:
            self._place_copy(home, record, allow_spill)
        self.stats.record_insert(len(homes))
        return len(homes)

    def _place_copy(self, home: int, record: Record, allow_spill: bool) -> None:
        max_reach = self._layout.max_reach if self._layout.aux_bits else 0
        limit = min(max_reach, self.bucket_count - 1) if allow_spill else 0
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
                return
        raise CapacityError(
            f"no free slot within reach {limit} of bucket {home} "
            f"(load factor {self.load_factor:.2f})"
        )

    def _try_place(self, bucket: int, record: Record) -> bool:
        """Store a record in one bucket; False when the bucket is full.

        Without a slot-priority function the record takes the lowest free
        slot — one row write.  With one, the bucket is decoded, the record
        spliced in ahead of the first lower-priority occupant and the
        bucket re-packed, so the priority encoder's lowest-slot-wins rule
        returns the highest-priority match.
        """
        if self._slot_priority is None:
            for slice_id, row in self._bucket_rows(bucket):
                array = self._arrays[slice_id]
                row_value = array.verified_peek_row(row)
                free = self._layout.find_free_slot(row_value)
                if free is not None:
                    array.write_row(
                        row, self._layout.write_slot(row_value, free, record)
                    )
                    return True
            return False
        records, reach = self._occupants(bucket)
        if len(records) >= self.slots_per_bucket:
            return False
        priority = self._slot_priority(record)
        position = len(records)
        for i, existing in enumerate(records):
            if self._slot_priority(existing) < priority:
                position = i
                break
        records.insert(position, record)
        self._write_occupants(bucket, records, reach)
        return True

    def _first_row(self, bucket: int) -> Tuple[MemoryArray, int, int]:
        """``(array, row, row_value)`` of a bucket's first physical row —
        the one holding its reach field."""
        slice_id, row = self._bucket_rows(bucket)[0]
        array = self._arrays[slice_id]
        return array, row, array.verified_peek_row(row)

    def _raise_reach(self, home: int, attempt: int) -> None:
        array, row, row_value = self._first_row(home)
        if attempt > self._layout.read_aux(row_value):
            array.write_row(row, self._layout.write_aux(row_value, attempt))

    def delete(self, key: KeyInput) -> int:
        """Remove every stored copy of the exact key (value *and* mask).

        Each home's probe walk clears the first slot holding the key — one
        row write — and leaves a hole; reach fields are not shrunk.

        Returns the number of copies removed.  Raises
        :class:`~repro.errors.LookupError_` when the key is absent.
        """
        target = self._config.record_format.normalize_key(
            key if isinstance(key, TernaryKey) else int(key)
        )
        removed = sum(
            self._clear_first(home, target)
            for home in self._index.indices_for_stored(target)
        )
        if not removed:
            raise LookupError_(f"key {target} not present")
        self.stats.record_delete()
        return removed

    def _clear_first(self, home: int, target: TernaryKey) -> bool:
        """Clear the first slot holding ``target`` on ``home``'s probe walk."""
        _, _, home_value = self._first_row(home)
        for attempt in range(self._layout.read_aux(home_value) + 1):
            bucket = self._probing.probe(
                home, attempt, self.bucket_count, target.value
            )
            for slice_id, row in self._bucket_rows(bucket):
                array = self._arrays[slice_id]
                row_value = array.verified_peek_row(row)
                for slot in range(self._layout.slots_per_bucket):
                    valid, record = self._layout.read_slot(row_value, slot)
                    if valid and record.key == target:
                        array.write_row(
                            row, self._layout.write_slot(row_value, slot, None)
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
        import numpy as np

        if search_mask is None:
            search_mask = (1 << self._config.record_format.key_bits) - 1
        mirror = self._synced_mirror()
        match = mirror.match_predicate(search_key, search_mask)
        self._charge_sweep()
        return [
            (int(bucket), int(slot), mirror.records[bucket, slot])
            for bucket, slot in np.argwhere(match)
        ]

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
        import numpy as np

        mirror = self._synced_mirror()
        match = mirror.match_predicate(search_key, search_mask)
        self._charge_sweep()
        per_row = self._layout.slots_per_bucket
        record_format = self._config.record_format
        modified = 0
        for bucket in np.flatnonzero(match.any(axis=1)).tolist():
            for i, (slice_id, row) in enumerate(self._bucket_rows(bucket)):
                first = i * per_row
                slots = np.flatnonzero(
                    match[bucket, first : first + per_row]
                ).tolist()
                if not slots:
                    continue
                array = self._arrays[slice_id]
                row_value = array.verified_peek_row(row)
                for slot in slots:
                    record = mirror.records[bucket, first + slot]
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
        if self._reliability is not None:
            # Sync under the retry loop (a corrupt row quarantines instead
            # of aborting the rebuild), then fold the victim store back in.
            mirror = self._reliability.synced_mirror(self._synced_mirror)
            stored = [record for _, _, record in mirror.iter_valid()]
            stored.extend(self._reliability.drain_victims())
            self._reliability.quarantined_buckets.clear()
        else:
            stored = [record for _, _, record in self.records()]
        for array in self._arrays:
            array.fill(0)
        self._record_count = 0
        if self._slot_priority is not None:
            stored.sort(key=self._slot_priority, reverse=True)
        for record in stored:
            # Re-place one copy per stored entry; duplicates were stored
            # explicitly, so bypass re-duplication.
            self._place_copy(
                self._index.index(record.key), record, allow_spill=True
            )

    def clear(self) -> None:
        """Drop all records and reset counters."""
        for array in self._arrays:
            array.fill(0)
        self._record_count = 0
        self.stats.reset()
        self.physical_row_fetches = 0
        if self._reliability is not None:
            self._reliability.reset()


@dataclass
class PortConfig:
    """One virtual request port: a name bound to a database group.

    "each port address can be tied to a 'virtual port' mapped to a specific
    database" (Section 3.2).
    """

    name: str
    group: str


class CARAMSubsystem:
    """A CA-RAM memory subsystem: named slice groups behind request ports.

    Supports the Section 3.2/4.3 composition features: several independent
    databases, virtual ports, and an overflow store searched in parallel
    with the home bucket (victim-TCAM style), which makes every spilled
    record cost a single access.
    """

    def __init__(self) -> None:
        self._groups: Dict[str, SliceGroup] = {}
        self._ports: Dict[str, str] = {}
        self._overflow: Dict[str, OverflowStore] = {}
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
        """Unregister a database group (frees its name, ports, overflow).

        The deallocation path of the Section 3.2 class library.
        """
        if name not in self._groups:
            raise ConfigurationError(f"no group named {name!r}")
        group = self._groups.pop(name)
        self._overflow.pop(name, None)
        for port in [p for p, g in self._ports.items() if g == name]:
            del self._ports[port]
        return group

    def attach_overflow(self, group: str, store: OverflowStore) -> None:
        """Give a group a victim/overflow store searched in parallel."""
        if group not in self._groups:
            raise ConfigurationError(f"no group named {group!r}")
        self._overflow[group] = store

    def overflow_store(self, group: str) -> Optional[OverflowStore]:
        return self._overflow.get(group)

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
        """Insert into a group; overflows divert to the attached store.

        With an overflow store, the home bucket is the *only* CA-RAM bucket
        tried (no probing), so lookups never need extended searches.
        """
        group = self.group(group_name)
        store = self._overflow.get(group_name)
        if store is None:
            return group.insert(key, data)
        try:
            return group.insert(key, data, allow_spill=False)
        except CapacityError:
            store.insert(key, data)
            return 1

    def bulk_load(self, group_name: str, records) -> int:
        """Bulk counterpart of :meth:`insert` for a whole record set.

        Without an overflow store this is the group's vectorized
        :meth:`SliceGroup.bulk_load`.  With one, overflow diversion is
        per-record state-dependent, so the pairs are inserted sequentially
        through :meth:`insert` (same result, scalar speed).
        """
        group = self.group(group_name)
        if self._overflow.get(group_name) is None:
            return group.bulk_load(records)
        return sum(
            self.insert(group_name, key, data) for key, data in records
        )

    def search(self, group_name: str, key: KeyInput, search_mask: int = 0) -> SearchResult:
        """Search a group and its overflow store in parallel.

        The overflow store is consulted simultaneously with the home bucket
        (Section 4.3: "If this TCAM is accessed simultaneously with the main
        CA-RAM, AMAL becomes 1"), so a hit in either costs the same single
        logical access.
        """
        group = self.group(group_name)
        store = self._overflow.get(group_name)
        if store is None:
            return group.search(key, search_mask)
        result = group.search(key, search_mask)
        if result.hit:
            return result
        overflow_hit = store.search(
            key.value if isinstance(key, TernaryKey) else key
        )
        hit = getattr(overflow_hit, "hit", overflow_hit is not None)
        if hit:
            record = getattr(overflow_hit, "record", None)
            return SearchResult(
                hit=True,
                record=record,
                row=None,
                slot=None,
                # Parallel access: the TCAM probe overlaps the home fetch.
                bucket_accesses=1,
            )
        return result

    def search_batch_columnar(
        self, group_name: str, keys: Sequence[KeyInput], search_mask: int = 0
    ) -> "BatchResultSet":
        """Columnar counterpart of :meth:`search`: vectorized group lookup,
        with the overflow store consulted for every CA-RAM miss (the
        parallel victim-TCAM probe, one access either way).  Overflow hits
        are placed as per-key overrides on the returned result set, so
        ``results()`` and ``data_values()`` both see them."""
        group = self.group(group_name)
        store = self._overflow.get(group_name)
        result_set = group.search_batch_columnar(keys, search_mask)
        if store is None:
            return result_set
        import numpy as np

        for i in np.flatnonzero(~result_set.hit).tolist():
            key = keys[i]
            overflow_hit = store.search(
                key.value if isinstance(key, TernaryKey) else key
            )
            hit = getattr(overflow_hit, "hit", overflow_hit is not None)
            if hit:
                result_set.set_override(
                    i,
                    SearchResult(
                        hit=True,
                        record=getattr(overflow_hit, "record", None),
                        row=None,
                        slot=None,
                        # Parallel access: the TCAM probe overlaps the
                        # home fetch.
                        bucket_accesses=1,
                    ),
                )
        return result_set

    def search_batch(
        self, group_name: str, keys: Sequence[KeyInput], search_mask: int = 0
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


__all__ = ["SliceGroup", "CARAMSubsystem", "PortConfig", "OverflowStore"]
