"""Search statistics: AMAL and friends.

The paper's main metric is AMAL — "the average number of memory accesses per
lookup" (Section 4.1).  :class:`SearchStats` accumulates per-lookup bucket
access counts and exposes AMAL, hit rate, and the access-count histogram
(the data behind the latency discussion of Section 3.4).

Every mutator doubles as a telemetry source: when a
:class:`~repro.telemetry.trace.Tracer` is attached (``stats.tracer = t``),
each ``record_*`` call emits one typed event carrying exactly its
arguments, so a trace replays to bit-identical counters
(:func:`~repro.telemetry.trace.replay_search_stats`).  With no tracer
attached — the default — the hooks cost a single ``is None`` check.

Two counters are *engine-path* bookkeeping rather than lookup semantics:
``scalar_fallbacks`` (keys the batch engine routed through the scalar
search) and ``probe_walk_keys`` (keys resolved by the vectorized probe
walk).  They merge and reset with the rest but are **excluded from
equality**, because scalar/batch differential parity is defined over what
the lookups did, not over which engine did it.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.telemetry.histogram import LatencyHistogram
    from repro.telemetry.trace import Tracer


@dataclass
class SearchStats:
    """Accumulated lookup statistics for a slice or subsystem."""

    lookups: int = 0
    hits: int = 0
    total_bucket_accesses: int = 0
    total_match_passes: int = 0
    access_histogram: Counter = field(default_factory=Counter)
    inserts: int = 0
    deletes: int = 0
    insert_probe_total: int = 0
    #: Batch-engine path counters (see module docstring): merged/reset with
    #: the rest, excluded from equality.
    scalar_fallbacks: int = field(default=0, compare=False)
    probe_walk_keys: int = field(default=0, compare=False)
    #: Reliability-layer counters: what the fault/ECC machinery did during
    #: the recorded lookups.  Excluded from equality for the same reason as
    #: the engine-path counters — parity is defined over lookup semantics,
    #: and fault sampling depends on the access path taken.
    faults_injected: int = field(default=0, compare=False)
    ecc_corrections: int = field(default=0, compare=False)
    corruption_detections: int = field(default=0, compare=False)
    quarantines: int = field(default=0, compare=False)
    victim_records: int = field(default=0, compare=False)
    victim_hits: int = field(default=0, compare=False)
    lookup_retries: int = field(default=0, compare=False)
    #: Opt-in per-chunk lookup-latency sketch
    #: (:meth:`enable_latency_tracking`); wall times are nondeterministic,
    #: so it is excluded from equality like the tracer, but **merges**
    #: bucket-exactly so shard/subsystem aggregation keeps percentiles.
    latency: Optional["LatencyHistogram"] = field(
        default=None, compare=False, repr=False
    )
    #: Optional structured-event tracer; never part of equality or merges.
    tracer: Optional["Tracer"] = field(
        default=None, compare=False, repr=False
    )

    def enable_latency_tracking(
        self, relative_error: Optional[float] = None
    ) -> "LatencyHistogram":
        """Attach (or return the existing) lookup-latency sketch.

        The batch engines observe one sample per vectorized chunk into it;
        disabled (the default) the hot path pays one ``is None`` check.
        """
        # Imported lazily: repro.telemetry's package init reaches back into
        # repro.core, so a module-level import here would cycle.
        from repro.telemetry.histogram import LatencyHistogram

        if self.latency is None:
            self.latency = (
                LatencyHistogram(relative_error)
                if relative_error is not None
                else LatencyHistogram()
            )
        return self.latency

    def disable_latency_tracking(self) -> None:
        self.latency = None

    def record_lookup(self, accesses: int, hit: bool) -> None:
        """Account one search that touched ``accesses`` buckets."""
        self.lookups += 1
        self.total_bucket_accesses += accesses
        self.access_histogram[accesses] += 1
        if hit:
            self.hits += 1
        if self.tracer is not None:
            self.tracer.emit("lookup", accesses=accesses, hit=bool(hit))

    def record_match_passes(self, passes: int) -> None:
        """Account pipelined matching steps (P < S configurations)."""
        self.total_match_passes += passes
        if self.tracer is not None:
            self.tracer.emit("match_pass", passes=passes)

    def record_lookup_batch(
        self, count: int, hits: int, accesses_per_lookup: int = 1
    ) -> None:
        """Account ``count`` lookups that each touched the **same** number
        of buckets — the bulk entry point of the vectorized batch path for
        one resolved attempt level, where every key in the batch performed
        ``accesses_per_lookup`` accesses.

        Equivalent to ``count`` calls to :meth:`record_lookup` with
        ``accesses_per_lookup`` accesses, ``hits`` of them hitting.
        """
        if count <= 0:
            return
        self.lookups += count
        self.hits += hits
        self.total_bucket_accesses += count * accesses_per_lookup
        self.access_histogram[accesses_per_lookup] += count
        if self.tracer is not None:
            self.tracer.emit(
                "lookup_batch",
                count=count,
                hits=hits,
                accesses=accesses_per_lookup,
            )

    @property
    def average_match_passes(self) -> float:
        """Mean matching passes per bucket access."""
        if not self.total_bucket_accesses:
            return 0.0
        return self.total_match_passes / self.total_bucket_accesses

    def record_insert(self, probes: int) -> None:
        """Account one insert that probed ``probes`` buckets."""
        self.inserts += 1
        self.insert_probe_total += probes
        if self.tracer is not None:
            self.tracer.emit("insert", probes=probes)

    def record_insert_batch(self, count: int, probes: int) -> None:
        """Account ``count`` inserts that probed ``probes`` buckets in total.

        The bulk-build entry point: equivalent to ``count`` calls to
        :meth:`record_insert` whose probe counts sum to ``probes``.
        """
        if count <= 0:
            return
        self.inserts += count
        self.insert_probe_total += probes
        if self.tracer is not None:
            self.tracer.emit("insert_batch", count=count, probes=probes)

    def record_delete(self) -> None:
        self.deletes += 1
        if self.tracer is not None:
            self.tracer.emit("delete")

    def record_scalar_fallbacks(self, count: int) -> None:
        """Account batch-path keys that fell back to the scalar search."""
        if count <= 0:
            return
        self.scalar_fallbacks += count
        if self.tracer is not None:
            self.tracer.emit("scalar_fallback", count=count)

    def record_probe_walk(self, keys: int) -> None:
        """Account keys resolved by the vectorized probe walk."""
        if keys <= 0:
            return
        self.probe_walk_keys += keys
        if self.tracer is not None:
            self.tracer.emit("probe_walk", keys=keys)

    # ------------------------------------------------------------------
    # Reliability-layer events
    # ------------------------------------------------------------------

    def record_fault_injected(self) -> None:
        """Account one injected fault event (a nonzero flip mask landing)."""
        self.faults_injected += 1
        if self.tracer is not None:
            self.tracer.emit("fault_inject")

    def record_ecc_correction(self) -> None:
        """Account one single-bit error corrected by the row ECC."""
        self.ecc_corrections += 1
        if self.tracer is not None:
            self.tracer.emit("ecc_correct")

    def record_corruption_detected(self) -> None:
        """Account one uncorrectable error surfaced by the row ECC."""
        self.corruption_detections += 1
        if self.tracer is not None:
            self.tracer.emit("corruption_detect")

    def record_quarantine(self, records: int) -> None:
        """Account one bucket spared, with ``records`` remapped to the
        victim store."""
        self.quarantines += 1
        self.victim_records += records
        if self.tracer is not None:
            self.tracer.emit("quarantine", records=records)

    def record_victim_hit(self) -> None:
        """Account one lookup answered from the victim store."""
        self.victim_hits += 1
        if self.tracer is not None:
            self.tracer.emit("victim_hit")

    def record_lookup_retry(self) -> None:
        """Account one lookup retried after a detected corruption."""
        self.lookup_retries += 1
        if self.tracer is not None:
            self.tracer.emit("lookup_retry")

    @property
    def misses(self) -> int:
        return self.lookups - self.hits

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    @property
    def amal(self) -> float:
        """Average memory accesses per lookup over the recorded searches."""
        return (
            self.total_bucket_accesses / self.lookups if self.lookups else 0.0
        )

    @property
    def average_insert_probes(self) -> float:
        return (
            self.insert_probe_total / self.inserts if self.inserts else 0.0
        )

    def merge(self, other: "SearchStats") -> None:
        """Fold another counter set into this one (subsystem aggregation)."""
        self.lookups += other.lookups
        self.hits += other.hits
        self.total_bucket_accesses += other.total_bucket_accesses
        self.total_match_passes += other.total_match_passes
        self.access_histogram.update(other.access_histogram)
        self.inserts += other.inserts
        self.deletes += other.deletes
        self.insert_probe_total += other.insert_probe_total
        self.scalar_fallbacks += other.scalar_fallbacks
        self.probe_walk_keys += other.probe_walk_keys
        self.faults_injected += other.faults_injected
        self.ecc_corrections += other.ecc_corrections
        self.corruption_detections += other.corruption_detections
        self.quarantines += other.quarantines
        self.victim_records += other.victim_records
        self.victim_hits += other.victim_hits
        self.lookup_retries += other.lookup_retries
        if other.latency is not None:
            if self.latency is None:
                self.latency = other.latency.copy()
            else:
                self.latency.merge(other.latency)

    def reset(self) -> None:
        """Zero all counters."""
        self.lookups = 0
        self.hits = 0
        self.total_bucket_accesses = 0
        self.total_match_passes = 0
        self.access_histogram.clear()
        self.inserts = 0
        self.deletes = 0
        self.insert_probe_total = 0
        self.scalar_fallbacks = 0
        self.probe_walk_keys = 0
        self.faults_injected = 0
        self.ecc_corrections = 0
        self.corruption_detections = 0
        self.quarantines = 0
        self.victim_records = 0
        self.victim_hits = 0
        self.lookup_retries = 0
        if self.latency is not None:
            self.latency.reset()

    def as_dict(self) -> Dict[str, object]:
        """Structured export: raw counters plus the derived paper metrics.

        The access histogram keys become strings so the dict is directly
        JSON-serializable (the provider contract of
        :class:`~repro.telemetry.metrics.MetricsRegistry`).
        """
        return {
            "lookups": self.lookups,
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hit_rate,
            "total_bucket_accesses": self.total_bucket_accesses,
            "amal": self.amal,
            "total_match_passes": self.total_match_passes,
            "average_match_passes": self.average_match_passes,
            "access_histogram": {
                str(k): v for k, v in sorted(self.access_histogram.items())
            },
            "inserts": self.inserts,
            "insert_probe_total": self.insert_probe_total,
            "average_insert_probes": self.average_insert_probes,
            "deletes": self.deletes,
            "scalar_fallbacks": self.scalar_fallbacks,
            "probe_walk_keys": self.probe_walk_keys,
            "faults_injected": self.faults_injected,
            "ecc_corrections": self.ecc_corrections,
            "corruption_detections": self.corruption_detections,
            "quarantines": self.quarantines,
            "victim_records": self.victim_records,
            "victim_hits": self.victim_hits,
            "lookup_retries": self.lookup_retries,
            **(
                {"latency": self.latency.as_dict()}
                if self.latency is not None
                else {}
            ),
        }


__all__ = ["SearchStats"]
