"""Tracer: ring buffer, sinks, JSONL round-trip, stats replay.

The acceptance contract pinned here: a JSONL trace of a 1,000-lookup run
replays to a ``SearchStats`` whose counters are bit-identical to the ones
accumulated live.
"""

import pytest

from repro.core.config import SliceConfig
from repro.core.index import IndexGenerator
from repro.core.record import RecordFormat
from repro.core.slice import CARAMSlice
from repro.core.stats import SearchStats
from repro.errors import ConfigurationError
from repro.hashing.bit_select import BitSelectHash
from repro.telemetry.trace import (
    STATS_EVENT_KINDS,
    InMemorySink,
    JsonlSink,
    TraceEvent,
    Tracer,
    read_jsonl,
    replay_search_stats,
)
from repro.utils.rng import make_rng


class TestRingBuffer:
    def test_emit_records_and_counts(self):
        tracer = Tracer()
        tracer.emit("bucket_read", row=3)
        tracer.emit("spill", home=1, attempt=2)
        assert tracer.events_emitted == 2
        assert [e.kind for e in tracer.events()] == ["bucket_read", "spill"]
        assert tracer.events("spill")[0].payload == {"home": 1, "attempt": 2}

    def test_ring_keeps_newest(self):
        tracer = Tracer(capacity=3)
        for i in range(5):
            tracer.emit("lookup", accesses=i, hit=False)
        kept = [e.payload["accesses"] for e in tracer.events()]
        assert kept == [2, 3, 4]
        assert tracer.events_emitted == 5

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ConfigurationError):
            Tracer(capacity=0)

    def test_clear_drops_ring_only(self):
        sink = InMemorySink()
        tracer = Tracer(sink=sink)
        tracer.emit("delete")
        tracer.clear()
        assert tracer.events() == []
        assert len(sink.events) == 1

    def test_summary_counts_by_kind_and_accounting(self):
        tracer = Tracer()
        tracer.emit("lookup", accesses=1, hit=True)
        tracer.emit("lookup", accesses=2, hit=False)
        tracer.emit("spill", home=0, attempt=1)
        assert tracer.summary() == {
            "lookup": 2,
            "spill": 1,
            "events_emitted": 3,
            "dropped_events": 0,
        }

    def test_ring_overflow_counts_dropped_events(self):
        tracer = Tracer(capacity=2)
        assert tracer.dropped_events == 0
        tracer.emit("lookup", accesses=1, hit=True)
        tracer.emit("lookup", accesses=1, hit=True)
        assert tracer.dropped_events == 0
        for _ in range(3):
            tracer.emit("spill", home=0, attempt=1)
        assert tracer.dropped_events == 3
        assert tracer.summary()["dropped_events"] == 3
        assert tracer.summary()["events_emitted"] == 5


class TestSinks:
    def test_in_memory_sink_receives_all(self):
        sink = InMemorySink()
        tracer = Tracer(sink=sink, capacity=1)
        tracer.emit("a")
        tracer.emit("b")
        # The ring dropped "a"; the sink kept both.
        assert [e.kind for e in sink.events] == ["a", "b"]

    def test_jsonl_round_trip(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tracer = Tracer(sink=JsonlSink(path))
        tracer.emit("bucket_read", row=7)
        tracer.emit("lookup_batch", count=10, hits=4, accesses=1)
        tracer.close()
        events = list(read_jsonl(path))
        assert events == [
            TraceEvent("bucket_read", {"row": 7}),
            TraceEvent(
                "lookup_batch", {"count": 10, "hits": 4, "accesses": 1}
            ),
        ]

    def test_jsonl_sink_flushes_every_emit(self, tmp_path):
        path = tmp_path / "live.jsonl"
        sink = JsonlSink(path)
        tracer = Tracer(sink=sink)
        tracer.emit("lookup", accesses=1, hit=True)
        tracer.emit("spill", home=2, attempt=1)
        # Events must be durable *before* close: another process tailing
        # the file (or a crash) should never observe a truncated trace.
        events = list(read_jsonl(path))
        assert [e.kind for e in events] == ["lookup", "spill"]
        tracer.close()

    def test_jsonl_sink_context_manager_closes(self, tmp_path):
        path = tmp_path / "ctx.jsonl"
        with JsonlSink(path) as sink:
            sink.emit(TraceEvent("delete", {}))
        assert [e.kind for e in read_jsonl(path)] == ["delete"]
        # Closing twice is harmless.
        sink.close()

    def test_event_dict_round_trip(self):
        event = TraceEvent("spill", {"home": 5, "attempt": 2})
        assert TraceEvent.from_dict(event.as_dict()) == event


class TestReplay:
    def test_replay_each_mutator(self):
        live = SearchStats()
        tracer = Tracer()
        live.tracer = tracer
        live.record_lookup(2, hit=True)
        live.record_lookup_batch(10, hits=3, accesses_per_lookup=1)
        live.record_match_passes(4)
        live.record_insert(2)
        live.record_insert_batch(5, probes=7)
        live.record_delete()
        live.record_probe_walk(6)
        live.record_scalar_fallbacks(2)

        replayed = replay_search_stats(tracer.events())
        assert replayed == live
        # compare=False fields must round-trip too.
        assert replayed.scalar_fallbacks == live.scalar_fallbacks
        assert replayed.probe_walk_keys == live.probe_walk_keys

    def test_replay_skips_non_stats_events(self):
        tracer = Tracer()
        tracer.emit("bucket_read", row=1)
        tracer.emit("dma_burst", offset=0, rows=4)
        tracer.emit("lookup", accesses=1, hit=True)
        replayed = replay_search_stats(tracer.events())
        assert replayed.lookups == 1
        assert replayed.hits == 1

    def test_stats_event_kinds_cover_all_mutators(self):
        stats = SearchStats()
        tracer = Tracer()
        stats.tracer = tracer
        stats.record_lookup(1, hit=False)
        stats.record_lookup_batch(2, hits=1)
        stats.record_match_passes(1)
        stats.record_insert(1)
        stats.record_insert_batch(1, probes=1)
        stats.record_delete()
        stats.record_probe_walk(1)
        stats.record_scalar_fallbacks(1)
        stats.record_fault_injected()
        stats.record_ecc_correction()
        stats.record_corruption_detected()
        stats.record_quarantine(records=3)
        stats.record_victim_hit()
        stats.record_lookup_retry()
        assert {e.kind for e in tracer.events()} == STATS_EVENT_KINDS


def _build_slice(index_bits=7, slots=8):
    record_format = RecordFormat(key_bits=32, data_bits=16)
    config = SliceConfig(
        index_bits=index_bits,
        row_bits=8 + slots * record_format.slot_bits,
        record_format=record_format,
        aux_bits=8,
    )
    hash_function = BitSelectHash(32, tuple(range(12, 12 + index_bits)))
    return CARAMSlice(config, IndexGenerator(hash_function, config.rows))


class TestThousandLookupAcceptance:
    """A JSONL trace of a 1k-lookup mixed run replays bit-identically."""

    def test_jsonl_trace_replays_to_identical_counters(self, tmp_path):
        path = tmp_path / "run.jsonl"
        slice_ = _build_slice()
        tracer = Tracer(sink=JsonlSink(path))
        slice_.tracer = tracer

        rng = make_rng(42)
        stored = []
        seen = set()
        while len(stored) < int(slice_.config.capacity_records * 0.8):
            key = int(rng.integers(0, 1 << 32))
            if key not in seen:
                seen.add(key)
                stored.append(key)
        slice_.bulk_load([(k, k & 0xFFFF) for k in stored])

        hits = rng.choice(stored, size=500)
        misses = rng.integers(0, 1 << 32, size=500)
        queries = [int(k) for k in hits] + [int(k) for k in misses]
        rng.shuffle(queries)
        assert len(queries) == 1000

        # Mixed engines: scalar for a prefix, the batch path for the rest.
        for key in queries[:200]:
            slice_.search(key)
        slice_.search_batch(queries[200:])
        slice_.delete(stored[0])
        tracer.close()

        replayed = replay_search_stats(read_jsonl(path))
        live = slice_.stats
        assert replayed == live
        assert replayed.scalar_fallbacks == live.scalar_fallbacks
        assert replayed.probe_walk_keys == live.probe_walk_keys
        assert replayed.as_dict() == live.as_dict()
        assert live.lookups == 1000
