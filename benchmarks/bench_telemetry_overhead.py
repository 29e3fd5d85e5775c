"""Cost of the telemetry instrumentation on the batch-lookup hot path.

The telemetry hooks are designed to be free when off: a detached tracer is
one ``is None`` attribute check per ``record_*`` call, and a disabled
profiler hands back a shared no-op context manager.  This benchmark pins
that down with numbers on the same slice/query stream as
``bench_batch_lookup.py``:

* ``baseline`` — a slice that never had a tracer;
* ``disabled`` — an identical slice whose tracer was attached and then
  detached (the state everyone runs after tracing a while);
* ``null_sink`` — tracer attached, events built and dropped;
* ``ring`` — tracer attached, events retained in the in-memory ring;
* ``sampler`` — no tracer, but a background :class:`JsonlSampler` writing
  registry snapshots (latency sketch included) every 50 ms — the
  serving-mode "scrape while running" configuration.

Every mode is the best of ``REPEATS`` warm ``search_batch`` passes with
the garbage collector paused; the baseline and disabled slices are built
in the same run and timed interleaved.  Keys/sec plus the relative
overheads go to ``BENCH_telemetry_overhead.json``.  The pytest gates
assert (a) the disabled slice stays within ``GATE_THRESHOLD`` of the
baseline slice, i.e. that merely *having* the instrumentation costs
nothing, and (b) the enabled sampler mode stays within
``SAMPLER_GATE_THRESHOLD`` of the disabled mode — the price of live
observability is bounded, not just measured.

Run standalone with::

    PYTHONPATH=src python benchmarks/bench_telemetry_overhead.py

or through pytest (asserts both gates)::

    PYTHONPATH=src python -m pytest benchmarks/bench_telemetry_overhead.py
"""

import gc
import json
import tempfile
import time
from pathlib import Path

from bench_batch_lookup import build_slice, make_queries, populate
from harness import finalize, result_path
from repro.telemetry.export import JsonlSampler
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.trace import InMemorySink, NullSink, Tracer

RESULT_PATH = result_path("telemetry_overhead")

REPEATS = 10         # best-of to squeeze out scheduler noise
GATE_THRESHOLD = 0.05
SAMPLER_INTERVAL = 0.05
#: The sampler thread snapshots the registry off the hot path, so its cost
#: is mostly GIL contention during serialization — bounded loosely.
SAMPLER_GATE_THRESHOLD = 0.25


def _warm_pass(slice_, queries) -> float:
    """One warm batch pass, in keys/sec."""
    start = time.perf_counter()
    slice_.search_batch(queries)
    return len(queries) / (time.perf_counter() - start)


def _best_of(slices, queries) -> dict:
    """Best-of-``REPEATS`` warm throughput per slice, passes interleaved
    across the slices, with the garbage collector paused."""
    best = dict.fromkeys(slices, 0.0)
    gc.collect()
    gc.disable()
    try:
        for _ in range(REPEATS):
            for name, slice_ in slices.items():
                best[name] = max(best[name], _warm_pass(slice_, queries))
    finally:
        gc.enable()
    return best


def run_benchmark() -> dict:
    slices = {"baseline": build_slice(), "disabled": build_slice()}
    stored = populate(slices["baseline"])
    populate(slices["disabled"])
    slice_ = slices["disabled"]
    slice_.tracer = Tracer(sink=NullSink())
    slice_.tracer = None
    queries = make_queries(stored)
    for warm in slices.values():
        warm.search_batch(queries)  # warm the mirror, engine and heap
    best = _best_of(slices, queries)
    disabled = best["disabled"]

    slice_.tracer = Tracer(sink=NullSink())
    null_sink = _best_of({"slice": slice_}, queries)["slice"]

    ring_tracer = Tracer(sink=InMemorySink())
    slice_.tracer = ring_tracer
    ring = _best_of({"slice": slice_}, queries)["slice"]
    trace_summary = ring_tracer.summary()

    slice_.tracer = None

    # Serving mode: latency sketch on, background sampler scraping the
    # registry while the lookups run.
    registry = MetricsRegistry()
    slice_.register_telemetry(registry)
    slice_.enable_latency_tracking()
    with tempfile.TemporaryDirectory() as tmp:
        sampler = JsonlSampler(
            registry, Path(tmp) / "samples.jsonl", interval=SAMPLER_INTERVAL
        )
        with sampler:
            sampler_mode = _best_of({"slice": slice_}, queries)["slice"]
        sampler_samples = sampler.samples_written
    slice_.disable_latency_tracking()

    result = {
        "keys": len(queries),
        "baseline_keys_per_sec": round(best["baseline"]),
        "disabled_keys_per_sec": round(disabled),
        "null_sink_keys_per_sec": round(null_sink),
        "ring_keys_per_sec": round(ring),
        "sampler_keys_per_sec": round(sampler_mode),
        "disabled_overhead_vs_baseline": round(
            best["baseline"] / disabled - 1, 4
        ),
        "null_sink_overhead": round(disabled / null_sink - 1, 4),
        "ring_overhead": round(disabled / ring - 1, 4),
        "sampler_overhead": round(disabled / sampler_mode - 1, 4),
        "sampler_interval_s": SAMPLER_INTERVAL,
        "sampler_samples": sampler_samples,
    }
    return finalize(RESULT_PATH, result, telemetry={"trace": trace_summary})


def test_disabled_tracing_overhead():
    result = run_benchmark()
    assert result["sampler_overhead"] <= SAMPLER_GATE_THRESHOLD, result
    assert result["disabled_overhead_vs_baseline"] <= GATE_THRESHOLD, result


if __name__ == "__main__":
    stats = run_benchmark()
    print(json.dumps(stats, indent=2))
    print(f"\nwrote {RESULT_PATH}")
