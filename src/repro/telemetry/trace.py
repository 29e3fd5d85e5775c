"""Low-overhead structured event tracing for the CA-RAM stack.

The paper's evaluation is counter-driven; the tracer records *why* the
counters moved: one typed event per interesting step of a run.  Event kinds
emitted by the stack:

``bucket_read``
    A row fetch (``read_row``); the batch path's mirror-served fetches
    are counted in ``physical_row_fetches``, not traced.
``probe_step``
    One attempt of an extended search along the probe sequence.
``spill``
    An insert that overflowed its home bucket and was displaced
    ``attempt`` buckets along the probe sequence.
``match_pass``
    Pipelined matching passes accounted by the match processors.
``mirror_invalidate``
    Row-content change notification (write / bulk load / fill) — the
    signal that forces decoded-mirror re-decodes.
``bulk_plan``
    One vectorized bulk-build placement resolved (record/copy/spill
    totals).
``dma_burst``
    A DMA-style bulk row load into a memory array.
``lookup`` / ``lookup_batch`` / ``insert`` /
``insert_batch`` / ``delete`` / ``probe_walk`` / ``scalar_fallback`` /
``fault_inject`` / ``ecc_correct`` / ``corruption_detect`` /
``quarantine`` / ``victim_hit`` / ``lookup_retry``
    The :class:`~repro.core.stats.SearchStats` mutation stream (the last
    six are the reliability layer's fault/correction/degradation events).
    These
    carry exactly the arguments of the corresponding ``record_*`` call, so
    a trace **replays**: :func:`replay_search_stats` folds them back into a
    fresh ``SearchStats`` whose counters are bit-identical to the ones
    accumulated live (the round-trip the telemetry tests pin down).

Tracing is **off by default** and costs one ``is None`` attribute check on
the hot paths when disabled: components hold ``tracer = None`` and emit
only behind that guard.  When enabled, events land in a bounded ring
buffer (newest win) and are forwarded to a pluggable sink — in-memory,
JSONL file, or null.
"""

from __future__ import annotations

import atexit
import json
from collections import deque
from typing import Dict, Iterable, Iterator, List, NamedTuple, Optional

from repro.errors import ConfigurationError

#: Default ring-buffer capacity (events kept in memory).
DEFAULT_RING_CAPACITY = 65_536


class TraceEvent(NamedTuple):
    """One structured trace event: a kind tag plus a flat JSON payload."""

    kind: str
    payload: Dict[str, object]

    def as_dict(self) -> Dict[str, object]:
        """Flatten to one JSON-serializable dict (``kind`` key first)."""
        out: Dict[str, object] = {"kind": self.kind}
        out.update(self.payload)
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "TraceEvent":
        payload = dict(data)
        kind = payload.pop("kind")
        return cls(str(kind), payload)


class TraceSink:
    """Receives every emitted event; subclasses route them somewhere."""

    def emit(self, event: TraceEvent) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    def close(self) -> None:
        """Flush/release any underlying resource (default: nothing)."""


class NullSink(TraceSink):
    """Swallows events (ring-buffer-only tracing)."""

    def emit(self, event: TraceEvent) -> None:
        pass


class InMemorySink(TraceSink):
    """Appends every event to an unbounded in-process list."""

    def __init__(self) -> None:
        self.events: List[TraceEvent] = []

    def emit(self, event: TraceEvent) -> None:
        self.events.append(event)


class JsonlSink(TraceSink):
    """Streams events to a JSON-lines file, one event per line.

    Every emit is flushed, so the file is complete up to the last event
    even if the process dies mid-run; the sink also registers an
    :mod:`atexit` close and works as a context manager, so traces survive
    callers that forget ``close()``.
    """

    def __init__(self, path) -> None:
        self._path = path
        self._file = open(path, "w", encoding="utf-8")
        atexit.register(self.close)

    @property
    def path(self):
        return self._path

    def emit(self, event: TraceEvent) -> None:
        self._file.write(json.dumps(event.as_dict()) + "\n")
        self._file.flush()

    def close(self) -> None:
        if not self._file.closed:
            self._file.close()
        atexit.unregister(self.close)

    def __enter__(self) -> "JsonlSink":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False


def read_jsonl(path) -> Iterator[TraceEvent]:
    """Yield the events of a JSONL trace file in emission order."""
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                yield TraceEvent.from_dict(json.loads(line))


class Tracer:
    """Bounded-ring event recorder with an optional forwarding sink.

    Args:
        sink: where emitted events are forwarded (None = ring buffer only).
        capacity: ring-buffer size; the newest ``capacity`` events are kept.

    A ``Tracer`` instance is always "enabled" in the sense that ``emit``
    records; the zero-overhead disabled state is represented by *not
    attaching a tracer at all* (``component.tracer = None``), which reduces
    the hot-path cost to a single attribute check.
    """

    __slots__ = ("_ring", "_sink", "events_emitted", "dropped_events")

    def __init__(
        self,
        sink: Optional[TraceSink] = None,
        capacity: int = DEFAULT_RING_CAPACITY,
    ) -> None:
        if capacity <= 0:
            raise ConfigurationError(
                f"ring capacity must be positive, got {capacity}"
            )
        self._ring: deque = deque(maxlen=capacity)
        self._sink = sink
        self.events_emitted = 0
        #: Events evicted from the ring by newer ones (sinks still saw
        #: them) — nonzero means ring-only readers lost history.
        self.dropped_events = 0

    @property
    def capacity(self) -> int:
        return self._ring.maxlen or 0

    @property
    def sink(self) -> Optional[TraceSink]:
        return self._sink

    def emit(self, kind: str, **payload) -> None:
        """Record one event (and forward it to the sink, if any)."""
        event = TraceEvent(kind, payload)
        ring = self._ring
        if len(ring) == ring.maxlen:
            self.dropped_events += 1
        ring.append(event)
        self.events_emitted += 1
        if self._sink is not None:
            self._sink.emit(event)

    def events(self, kind: Optional[str] = None) -> List[TraceEvent]:
        """The ring-buffer content, oldest first (optionally one kind)."""
        if kind is None:
            return list(self._ring)
        return [event for event in self._ring if event.kind == kind]

    def clear(self) -> None:
        """Drop the ring-buffer content (the sink is untouched)."""
        self._ring.clear()

    def close(self) -> None:
        """Close the attached sink (flushing file-backed sinks)."""
        if self._sink is not None:
            self._sink.close()

    def summary(self) -> Dict[str, int]:
        """Event counts by kind over the current ring content, plus the
        total emitted/dropped accounting (``dropped_events`` > 0 means the
        ring no longer holds the full history)."""
        counts: Dict[str, int] = {}
        for event in self._ring:
            counts[event.kind] = counts.get(event.kind, 0) + 1
        counts["events_emitted"] = self.events_emitted
        counts["dropped_events"] = self.dropped_events
        return counts


#: Trace kinds that carry ``SearchStats`` mutations (the replayable set).
STATS_EVENT_KINDS = frozenset(
    {
        "lookup",
        "lookup_batch",
        "match_pass",
        "insert",
        "insert_batch",
        "delete",
        "probe_walk",
        "scalar_fallback",
        "fault_inject",
        "ecc_correct",
        "corruption_detect",
        "quarantine",
        "victim_hit",
        "lookup_retry",
    }
)


def replay_search_stats(events: Iterable[TraceEvent]):
    """Fold a trace's stats events back into a fresh ``SearchStats``.

    Non-stats events (``bucket_read``, ``dma_burst``, ...) are skipped, so
    a full mixed trace replays cleanly.  The returned counters are
    bit-identical to the live run's — the round-trip contract of the
    stats-level tracing hooks.
    """
    from repro.core.stats import SearchStats

    stats = SearchStats()
    for event in events:
        kind, payload = event.kind, event.payload
        if kind == "lookup":
            stats.record_lookup(int(payload["accesses"]), bool(payload["hit"]))
        elif kind == "lookup_batch":
            stats.record_lookup_batch(
                int(payload["count"]),
                int(payload["hits"]),
                int(payload["accesses"]),
            )
        elif kind == "match_pass":
            stats.record_match_passes(int(payload["passes"]))
        elif kind == "insert":
            stats.record_insert(int(payload["probes"]))
        elif kind == "insert_batch":
            stats.record_insert_batch(
                int(payload["count"]), int(payload["probes"])
            )
        elif kind == "delete":
            stats.record_delete()
        elif kind == "probe_walk":
            stats.record_probe_walk(int(payload["keys"]))
        elif kind == "scalar_fallback":
            stats.record_scalar_fallbacks(int(payload["count"]))
        elif kind == "fault_inject":
            stats.record_fault_injected()
        elif kind == "ecc_correct":
            stats.record_ecc_correction()
        elif kind == "corruption_detect":
            stats.record_corruption_detected()
        elif kind == "quarantine":
            stats.record_quarantine(int(payload["records"]))
        elif kind == "victim_hit":
            stats.record_victim_hit()
        elif kind == "lookup_retry":
            stats.record_lookup_retry()
    return stats


__all__ = [
    "TraceEvent",
    "TraceSink",
    "NullSink",
    "InMemorySink",
    "JsonlSink",
    "Tracer",
    "read_jsonl",
    "replay_search_stats",
    "STATS_EVENT_KINDS",
    "DEFAULT_RING_CAPACITY",
]
