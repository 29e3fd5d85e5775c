"""Synthetic telemetry workload: one command, every telemetry path exercised.

Builds a small CA-RAM slice, bulk-loads it, and drives a mixed hit/miss
lookup stream through both the scalar and batch paths with the full
telemetry stack attached — the slice's providers mounted on a metrics
registry, a structured-event tracer, and the phase profiler.  The
returned report is plain JSON-serializable data, so the CLI (``repro
telemetry run``), the CI telemetry job, and the tests all share this one
entry point.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.core.config import SliceConfig
from repro.core.index import IndexGenerator
from repro.core.record import RecordFormat
from repro.core.slice import CARAMSlice
from repro.hashing.bit_select import BitSelectHash
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.profiling import enabled_profiler
from repro.telemetry.trace import InMemorySink, JsonlSink, Tracer
from repro.utils.rng import make_rng

KEY_BITS = 32
DATA_BITS = 16
HASH_LSB = 12  # hash bits sit mid-key so random keys spread evenly


def build_workload_slice(index_bits: int, slots: int) -> CARAMSlice:
    """A lookup-table slice shaped like the batch-lookup benchmark's."""
    record_format = RecordFormat(key_bits=KEY_BITS, data_bits=DATA_BITS)
    aux_bits = 8
    config = SliceConfig(
        index_bits=index_bits,
        row_bits=aux_bits + slots * record_format.slot_bits,
        record_format=record_format,
        aux_bits=aux_bits,
    )
    hash_function = BitSelectHash(
        KEY_BITS, tuple(range(HASH_LSB, HASH_LSB + index_bits))
    )
    return CARAMSlice(config, IndexGenerator(hash_function, config.rows))


def make_keys(slice_: CARAMSlice, load_factor: float, seed: int):
    """Distinct random keys filling the slice to ``load_factor``."""
    rng = make_rng(seed)
    target = int(slice_.config.capacity_records * load_factor)
    keys = []
    seen = set()
    while len(keys) < target:
        key = int(rng.integers(0, 1 << KEY_BITS))
        if key not in seen:
            seen.add(key)
            keys.append(key)
    return keys


def make_queries(stored, queries: int, hit_fraction: float, seed: int):
    """Shuffled mix of stored keys and uniform (mostly-miss) keys."""
    rng = make_rng(seed)
    hits = rng.choice(stored, size=int(queries * hit_fraction))
    misses = rng.integers(0, 1 << KEY_BITS, size=queries - hits.size)
    mixed = [int(k) for k in hits] + [int(k) for k in misses]
    rng.shuffle(mixed)
    return mixed


def run_synthetic_workload(
    index_bits: int = 8,
    slots: int = 16,
    load_factor: float = 0.7,
    queries: int = 10_000,
    hit_fraction: float = 0.5,
    seed: int = 99,
    trace: bool = True,
    trace_path: Optional[str] = None,
    scalar_queries: int = 256,
    track_latency: bool = False,
    latency_error: Optional[float] = None,
) -> Dict[str, object]:
    """Run the synthetic workload and return the full telemetry report.

    Args:
        trace: attach a structured-event tracer (in-memory ring unless
            ``trace_path`` routes events to a JSONL file as well).
        trace_path: optional JSONL file receiving every event.
        scalar_queries: prefix of the query stream replayed through the
            scalar path first, so per-key ``probe_step`` events and
            physical ``bucket_read`` events appear in the trace.
        track_latency: record per-chunk batch-lookup latency into the
            search stats' quantile sketch (surfaces as
            ``slice.search.latency`` in the metrics snapshot).
        latency_error: relative-error bound for that sketch (None =
            library default).

    Returns a JSON-serializable report::

        {"workload": {...}, "metrics": <registry snapshot>,
         "phases": {phase: {"seconds", "calls"}}, "trace": <summary|None>}
    """
    slice_ = build_workload_slice(index_bits, slots)

    registry = MetricsRegistry()
    slice_.register_telemetry(registry)
    if track_latency:
        slice_.enable_latency_tracking(latency_error)

    tracer: Optional[Tracer] = None
    if trace:
        sink = JsonlSink(trace_path) if trace_path else InMemorySink()
        tracer = Tracer(sink=sink)
        slice_.tracer = tracer
        registry.register_provider(
            "tracer",
            lambda: {
                "events_emitted": tracer.events_emitted,
                "dropped_events": tracer.dropped_events,
            },
        )

    with enabled_profiler() as profiler:
        stored = make_keys(slice_, load_factor, seed)
        slice_.bulk_load([(key, key & 0xFFFF) for key in stored])

        mixed = make_queries(stored, queries, hit_fraction, seed + 1)
        for key in mixed[:scalar_queries]:
            slice_.search(key)
        slice_.search_batch(mixed)

    report: Dict[str, object] = {
        "workload": {
            "index_bits": index_bits,
            "slots": slots,
            "load_factor": round(slice_.load_factor, 3),
            "records": slice_.record_count,
            "queries": queries,
            "scalar_queries": min(scalar_queries, queries),
            "hit_fraction": hit_fraction,
            "seed": seed,
        },
        "metrics": registry.snapshot(),
        "phases": profiler.as_dict(),
        "trace": tracer.summary() if tracer is not None else None,
    }
    if tracer is not None:
        tracer.close()
    return report


__all__ = [
    "build_workload_slice",
    "make_keys",
    "make_queries",
    "run_synthetic_workload",
]
