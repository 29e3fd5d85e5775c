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

Every mode is timed against the disabled slice in ``QUARTETS`` pinned
ABBA quartets of warm ``search_batch`` passes (``harness.paired_overhead``),
and each overhead is the median per-quartet ratio; the baseline and
disabled slices are built in the same run.  Median keys/sec, the relative
overheads and every quartet's ratio go to
``BENCH_telemetry_overhead.json``.  The pytest gates assert (a) the
disabled slice stays within ``GATE_THRESHOLD`` of the baseline slice,
i.e. that merely *having* the instrumentation costs nothing, and (b) the enabled sampler mode stays within
``SAMPLER_GATE_THRESHOLD`` of the disabled mode — the price of live
observability is bounded, not just measured.

Run standalone with::

    PYTHONPATH=src python benchmarks/bench_telemetry_overhead.py

or through pytest (asserts both gates)::

    PYTHONPATH=src python -m pytest benchmarks/bench_telemetry_overhead.py
"""

import json
import tempfile
import time
from pathlib import Path

from bench_batch_lookup import build_slice, make_queries, populate
from harness import finalize, paired_overhead, result_path
from repro.telemetry.export import JsonlSampler
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.trace import InMemorySink, NullSink, Tracer

RESULT_PATH = result_path("telemetry_overhead")

QUARTETS = 10        # ABBA quartets (20 runs a side) behind each median
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

    def plain(target):
        return lambda: _warm_pass(target, queries)

    def traced(tracer):
        def run() -> float:
            slice_.tracer = tracer
            try:
                return _warm_pass(slice_, queries)
            finally:
                slice_.tracer = None

        return run

    ring_tracer = Tracer(sink=InMemorySink())
    registry = MetricsRegistry()
    slice_.register_telemetry(registry)
    with tempfile.TemporaryDirectory() as tmp:
        sampler = JsonlSampler(
            registry, Path(tmp) / "samples.jsonl", interval=SAMPLER_INTERVAL
        )

        def sampled() -> float:
            # Serving mode: latency sketch on, background sampler scraping
            # the registry while the lookups run.
            slice_.enable_latency_tracking()
            sampler.start()
            try:
                return _warm_pass(slice_, queries)
            finally:
                sampler.stop(final_sample=False)
                slice_.disable_latency_tracking()

        try:
            legs = {
                "disabled": paired_overhead(
                    plain(slices["baseline"]), plain(slice_), QUARTETS
                ),
                "null_sink": paired_overhead(
                    plain(slice_), traced(Tracer(sink=NullSink())), QUARTETS
                ),
                "ring": paired_overhead(
                    plain(slice_), traced(ring_tracer), QUARTETS
                ),
                "sampler": paired_overhead(plain(slice_), sampled, QUARTETS),
            }
        finally:
            sampler.close()

    result = {
        "keys": len(queries),
        "baseline_keys_per_sec": round(legs["disabled"]["reference_rate"]),
        **{
            f"{mode}_keys_per_sec": round(leg["candidate_rate"])
            for mode, leg in legs.items()
        },
        "disabled_overhead_vs_baseline": legs["disabled"]["overhead"],
        **{
            f"{mode}_overhead": leg["overhead"]
            for mode, leg in legs.items()
            if mode != "disabled"
        },
        **{
            f"{mode}_overhead_quartets": leg["quartet_ratios"]
            for mode, leg in legs.items()
        },
        "sampler_interval_s": SAMPLER_INTERVAL,
        "sampler_samples": sampler.samples_written,
    }
    return finalize(
        RESULT_PATH, result, telemetry={"trace": ring_tracer.summary()}
    )


def test_disabled_tracing_overhead():
    result = run_benchmark()
    assert result["sampler_overhead"] <= SAMPLER_GATE_THRESHOLD, result
    assert result["disabled_overhead_vs_baseline"] <= GATE_THRESHOLD, result


if __name__ == "__main__":
    stats = run_benchmark()
    print(json.dumps(stats, indent=2))
    print(f"\nwrote {RESULT_PATH}")
