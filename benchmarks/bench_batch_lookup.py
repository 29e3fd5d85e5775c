"""Throughput of the vectorized batch-lookup kernel vs the scalar path.

The behavioral scalar search decodes every slot of every fetched row
through arbitrary-precision bit slicing — exact, but slow.  The batch
path resolves the same lookups against a decoded NumPy mirror, comparing
each fetched bucket's stored keys word by word.  This benchmark measures
the scalar path and the batch kernel over two >=100k-key streams on a
slice at alpha=0.9 — a mixed stream (50% stored keys) and uniform traffic
(overwhelmingly misses, the regime where the reach-driven probe walk
dominates) — checks all answers are identical, exercises a churn phase so
the incremental re-decode shows up in the telemetry block, and writes the
keys/sec figures to ``BENCH_batch_lookup.json`` at the repository root.

The kernel is timed twice per stream: ``search_batch`` (columnar kernel
plus ``SearchResult`` materialization, the legacy representation) and
``search_batch_columnar`` (the struct-of-arrays result set alone —
parity against the scalar answers is checked *outside* the timed
region).  The ``batch`` section holds those figures; CI's regression
gate diffs it against the committed file.  The report's ``metadata``
block records the result representation so the telemetry differ refuses
to compare runs with different configurations.

Run standalone with::

    PYTHONPATH=src python benchmarks/bench_batch_lookup.py

or through pytest (asserts the >=10x speedup and scalar parity)::

    PYTHONPATH=src python -m pytest benchmarks/bench_batch_lookup.py
"""

import gc
import json
import time

from harness import finalize, result_path
from repro.core.config import SliceConfig
from repro.core.index import IndexGenerator
from repro.core.record import RecordFormat
from repro.core.slice import CARAMSlice
from repro.hashing.bit_select import BitSelectHash
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.profiling import enabled_profiler
from repro.utils.rng import make_rng

RESULT_PATH = result_path("batch_lookup")

INDEX_BITS = 10          # 1024 buckets
KEY_BITS = 32
DATA_BITS = 16
SLOTS = 32               # the paper's IP designs store 32 keys per row
LOAD_FACTOR = 0.9        # the high-load regime the probe walk exists for
QUERY_COUNT = 120_000
HIT_FRACTION = 0.5
CHURN_ROWS = 12          # rows rewritten between the churn batches
SEED = 1234


def build_slice() -> CARAMSlice:
    record_format = RecordFormat(key_bits=KEY_BITS, data_bits=DATA_BITS)
    aux_bits = 8
    config = SliceConfig(
        index_bits=INDEX_BITS,
        row_bits=aux_bits + SLOTS * record_format.slot_bits,
        record_format=record_format,
        aux_bits=aux_bits,
    )
    # The hash bits sit mid-key so random keys spread evenly.
    hash_function = BitSelectHash(
        KEY_BITS, tuple(range(12, 12 + INDEX_BITS))
    )
    return CARAMSlice(config, IndexGenerator(hash_function, config.rows))


def populate(slice_: CARAMSlice):
    rng = make_rng(SEED)
    target = int(slice_.config.capacity_records * LOAD_FACTOR)
    keys = []
    seen = set()
    while len(keys) < target:
        key = int(rng.integers(0, 1 << KEY_BITS))
        if key in seen:
            continue
        seen.add(key)
        try:
            slice_.insert(key, key & 0xFFFF)
        except Exception:
            continue
        keys.append(key)
    return keys


def make_queries(stored_keys):
    rng = make_rng(SEED + 1)
    hits = rng.choice(stored_keys, size=int(QUERY_COUNT * HIT_FRACTION))
    misses = rng.integers(0, 1 << KEY_BITS, size=QUERY_COUNT - hits.size)
    queries = [int(k) for k in hits] + [int(k) for k in misses]
    rng.shuffle(queries)
    return queries


def make_uniform_queries():
    rng = make_rng(SEED + 3)
    return [int(k) for k in rng.integers(0, 1 << KEY_BITS, size=QUERY_COUNT)]


def bench_kernel(stored, streams, scalars):
    """Cold, warm, churn, and uniform batch timings."""
    mixed, uniform = streams["mixed"], streams["uniform"]
    slice_ = build_slice()
    for key in stored:
        slice_.insert(key, key & 0xFFFF)

    # Cold batch: the first call pays the full mirror decode.
    start = time.perf_counter()
    batch_results = slice_.search_batch(mixed)
    batch_seconds = time.perf_counter() - start

    # Warm batch: the mirror is already decoded (the steady state).  Best
    # of two timings — single-shot wall times on shared runners are noisy.
    warm_seconds = float("inf")
    for _ in range(2):
        start = time.perf_counter()
        warm_results = slice_.search_batch(mixed)
        warm_seconds = min(warm_seconds, time.perf_counter() - start)

    assert batch_results == scalars["mixed"]["results"], (
        "batch/scalar result divergence"
    )
    assert warm_results == scalars["mixed"]["results"]

    # Columnar-only timing: the struct-of-arrays result set with no
    # SearchResult materialization — the representation the apps and the
    # serving tier consume.  Parity is checked after the clock stops.
    columnar_seconds = float("inf")
    for _ in range(2):
        start = time.perf_counter()
        columnar_set = slice_.search_batch_columnar(mixed)
        columnar_seconds = min(columnar_seconds, time.perf_counter() - start)
    assert columnar_set.results() == scalars["mixed"]["results"], (
        "columnar/scalar result divergence"
    )

    # Uniform traffic: overwhelmingly misses, every one with a reach-driven
    # extended search — the probe walk's home regime.
    uniform_seconds = float("inf")
    for _ in range(2):
        start = time.perf_counter()
        uniform_results = slice_.search_batch(uniform)
        uniform_seconds = min(uniform_seconds, time.perf_counter() - start)
    assert uniform_results == scalars["uniform"]["results"], (
        "uniform batch/scalar result divergence"
    )

    uniform_columnar_seconds = float("inf")
    for _ in range(2):
        start = time.perf_counter()
        uniform_set = slice_.search_batch_columnar(uniform)
        uniform_columnar_seconds = min(
            uniform_columnar_seconds, time.perf_counter() - start
        )
    assert uniform_set.results() == scalars["uniform"]["results"], (
        "uniform columnar/scalar result divergence"
    )

    # Churn: rewrite a few rows, then batch again — the steady state of a
    # live table, where sync() re-decodes only the dirty rows.  This is
    # what puts mirror.incremental_decode on the profile.
    rng = make_rng(SEED + 2)
    churn_victims = [
        stored[int(i)]
        for i in rng.integers(0, len(stored), size=CHURN_ROWS)
    ]
    start = time.perf_counter()
    for key in churn_victims:
        try:
            slice_.delete(key)
            slice_.insert(key, (key + 1) & 0xFFFF)
        except Exception:
            pass
    churn_results = slice_.search_batch(mixed)
    churn_seconds = time.perf_counter() - start
    assert sum(r.hit for r in churn_results) == sum(
        r.hit for r in scalars["mixed"]["results"]
    )

    mixed_scalar_s = scalars["mixed"]["seconds"]
    uniform_scalar_s = scalars["uniform"]["seconds"]
    return slice_, {
        "mixed": {
            "batch_keys_per_sec": round(len(mixed) / batch_seconds),
            "batch_warm_keys_per_sec": round(len(mixed) / warm_seconds),
            "batch_churn_keys_per_sec": round(len(mixed) / churn_seconds),
            "columnar_keys_per_sec": round(len(mixed) / columnar_seconds),
            "speedup": round(mixed_scalar_s / batch_seconds, 2),
            "speedup_warm": round(mixed_scalar_s / warm_seconds, 2),
            "speedup_columnar": round(mixed_scalar_s / columnar_seconds, 2),
        },
        "uniform": {
            "batch_keys_per_sec": round(len(uniform) / uniform_seconds),
            "columnar_keys_per_sec": round(
                len(uniform) / uniform_columnar_seconds
            ),
            "speedup": round(uniform_scalar_s / uniform_seconds, 2),
            "speedup_columnar": round(
                uniform_scalar_s / uniform_columnar_seconds, 2
            ),
        },
    }


def run_benchmark() -> dict:
    reference = build_slice()
    stored = populate(reference)
    streams = {
        "mixed": make_queries(stored),
        "uniform": make_uniform_queries(),
    }

    # The retained scalar-result lists put ~10^5 objects on the heap; with
    # the cyclic collector enabled, gen-2 scans during the timed batch
    # loops dominate the measurement (4x on the allocation-heavy mixed
    # stream).  Nothing here creates cycles, so pause collection while
    # timing, exactly as timeit does.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        return _run_benchmark(reference, stored, streams)
    finally:
        if gc_was_enabled:
            gc.enable()
            gc.collect()


def _run_benchmark(reference, stored, streams) -> dict:
    with enabled_profiler() as profiler:
        scalars = {}
        for name, queries in streams.items():
            reference.stats.reset()
            start = time.perf_counter()
            results = [reference.search(key) for key in queries]
            seconds = time.perf_counter() - start
            scalars[name] = {
                "results": results,
                "seconds": seconds,
                "amal": reference.stats.amal,
                "hit_rate": reference.stats.hit_rate,
            }

        slice_, section = bench_kernel(stored, streams, scalars)

    # Mount telemetry after the run: providers are read lazily at
    # snapshot() time.
    registry = MetricsRegistry()
    slice_.register_telemetry(registry)

    result = {
        "keys": len(streams["mixed"]),
        "load_factor": round(reference.load_factor, 3),
        "amal": round(scalars["mixed"]["amal"], 4),
        "hit_rate": round(scalars["mixed"]["hit_rate"], 4),
        "amal_uniform": round(scalars["uniform"]["amal"], 4),
        "scalar_keys_per_sec": round(
            len(streams["mixed"]) / scalars["mixed"]["seconds"]
        ),
        "scalar_uniform_keys_per_sec": round(
            len(streams["uniform"]) / scalars["uniform"]["seconds"]
        ),
        "batch": section,
    }
    return finalize(
        RESULT_PATH,
        result,
        registry=registry,
        profiler=profiler,
        metadata={"result_representation": "columnar"},
    )


def test_batch_lookup_speedup():
    result = run_benchmark()
    assert result["keys"] >= 100_000
    section = result["batch"]
    assert section["mixed"]["speedup"] >= 10, result
    assert section["uniform"]["speedup"] >= 10, result
    # The columnar set skips ~10^5 SearchResult allocations, so it must
    # not be slower than the materializing warm batch (10% slack for
    # shared-runner noise).
    assert (
        section["mixed"]["columnar_keys_per_sec"]
        >= 0.9 * section["mixed"]["batch_warm_keys_per_sec"]
    ), result
    assert result["metadata"]["result_representation"] == "columnar"
    phases = result["telemetry"]["phases"]
    assert "mirror.incremental_decode" in phases


if __name__ == "__main__":
    stats = run_benchmark()
    print(json.dumps(stats, indent=2))
    print(f"\nwrote {RESULT_PATH}")
