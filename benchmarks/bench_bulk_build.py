"""Build time of the vectorized bulk-load pipeline vs sequential insertion.

Sequential construction replays the hardware insert path once per record —
hash, probe walk, unpack and repack a whole big-int row — which dominates
every behavioral experiment at paper scale.  ``bulk_load`` computes the
same final state (bit-identical rows, reach fields, stats) in one
vectorized pass.  This benchmark builds an IP-style database (ternary
32-bit keys, sorted buckets, alpha=0.7) both ways, checks the images are
identical, and measures the speedup; it also measures batch-vs-scalar
lookup throughput at alpha=0.9 under uniform (mostly-miss) traffic, where
the vectorized probe walk must keep the batch path from collapsing into
scalar fallbacks.

Results go to ``BENCH_bulk_build.json`` at the repository root.

Run standalone with::

    PYTHONPATH=src python benchmarks/bench_bulk_build.py [--quick]

or through pytest (quick geometry, asserts the >=5x build speedup)::

    PYTHONPATH=src python -m pytest benchmarks/bench_bulk_build.py
"""

import argparse
import json
import time

from harness import finalize, result_path
from repro.core.config import Arrangement, SliceConfig
from repro.core.key import TernaryKey
from repro.core.record import RecordFormat
from repro.core.subsystem import SliceGroup
from repro.hashing.bit_select import BitSelectHash
from repro.telemetry.profiling import enabled_profiler
from repro.utils.bits import mask_of
from repro.utils.rng import make_rng

RESULT_PATH = result_path("bulk_build")

KEY_BITS = 32
DATA_BITS = 16
BUILD_ALPHA = 0.7
LOOKUP_ALPHA = 0.9
SEED = 4321

FULL = {"index_bits": 10, "slots": 32, "queries": 60_000}
QUICK = {"index_bits": 7, "slots": 16, "queries": 10_000}


def prefix_priority(record) -> float:
    """Longest-prefix-first slot ordering, as in the IP study."""
    return float(record.key.width - record.key.dont_care_count)


def make_group(index_bits: int, slots: int, ternary: bool) -> SliceGroup:
    record_format = RecordFormat(
        key_bits=KEY_BITS, data_bits=DATA_BITS, ternary=ternary
    )
    aux_bits = 8
    config = SliceConfig(
        index_bits=index_bits,
        row_bits=aux_bits + slots * record_format.slot_bits,
        record_format=record_format,
        aux_bits=aux_bits,
    )
    return SliceGroup(
        config=config,
        slice_count=1,
        arrangement=Arrangement.VERTICAL,
        hash_function=BitSelectHash(
            KEY_BITS, tuple(range(12, 12 + index_bits))
        ),
        slot_priority=prefix_priority if ternary else None,
        name="bench-bulk",
    )


def make_records(capacity: int, alpha: float):
    """IP-style ternary records: random values, don't-cares below the hash
    bits (single-home), varied prefix lengths for the sorted buckets."""
    rng = make_rng(SEED)
    count = int(capacity * alpha)
    pairs = []
    seen = set()
    while len(pairs) < count:
        value = int(rng.integers(0, 1 << KEY_BITS))
        mask = mask_of(int(rng.integers(0, 9)))  # bits 0..8 < hash bit 12
        if (value | mask) in seen:
            continue
        seen.add(value | mask)
        pairs.append(
            (
                TernaryKey(value=value & ~mask, mask=mask, width=KEY_BITS),
                value & 0xFFFF,
            )
        )
    return pairs


def bench_build(index_bits: int, slots: int) -> dict:
    pairs = make_records((1 << index_bits) * slots, BUILD_ALPHA)

    sequential = make_group(index_bits, slots, ternary=True)
    start = time.perf_counter()
    for key, data in pairs:
        sequential.insert(key, data)
    scalar_seconds = time.perf_counter() - start

    bulk = make_group(index_bits, slots, ternary=True)
    start = time.perf_counter()
    bulk.bulk_load(pairs)
    bulk_seconds = time.perf_counter() - start

    # Bit-identical construction: every row (reach fields included), the
    # record count, and the insert statistics must match.
    assert (
        [a.snapshot() for a in bulk._arrays]
        == [a.snapshot() for a in sequential._arrays]
    ), "bulk/sequential image divergence"
    assert bulk.record_count == sequential.record_count
    assert bulk.stats == sequential.stats

    return {
        "records": len(pairs),
        "load_factor": round(bulk.load_factor, 3),
        "scalar_build_seconds": round(scalar_seconds, 4),
        "bulk_build_seconds": round(bulk_seconds, 4),
        "scalar_records_per_sec": round(len(pairs) / scalar_seconds),
        "bulk_records_per_sec": round(len(pairs) / bulk_seconds),
        "build_speedup": round(scalar_seconds / bulk_seconds, 2),
    }


def bench_high_load_lookup(index_bits: int, slots: int, queries: int) -> dict:
    """Batch vs scalar lookup at alpha=0.9 with uniform (mostly-miss)
    traffic — the regime where home misses with nonzero reach multiply and
    the old scalar probe fallback used to dominate."""
    group = make_group(index_bits, slots, ternary=False)
    rng = make_rng(SEED + 1)
    capacity = group.capacity_records
    stored = []
    seen = set()
    while len(stored) < int(capacity * LOOKUP_ALPHA):
        key = int(rng.integers(0, 1 << KEY_BITS))
        if key in seen:
            continue
        seen.add(key)
        group.insert(key, key & 0xFFFF)
        stored.append(key)

    # Uniform traffic over the whole key space: overwhelmingly misses,
    # which all pay the reach-driven extended search.
    query_keys = [int(k) for k in rng.integers(0, 1 << KEY_BITS, size=queries)]

    group.stats.reset()
    start = time.perf_counter()
    scalar_results = [group.search(key) for key in query_keys]
    scalar_seconds = time.perf_counter() - start
    amal = group.stats.amal

    group.search_batch(query_keys[:1])  # warm the mirror + engine
    engine = group.batch_engine
    fallbacks_before = engine.scalar_fallbacks
    start = time.perf_counter()
    batch_results = group.search_batch(query_keys)
    batch_seconds = time.perf_counter() - start

    assert batch_results == scalar_results, "batch/scalar result divergence"
    fallback_fraction = (engine.scalar_fallbacks - fallbacks_before) / queries
    assert fallback_fraction <= 0.01, (
        f"{fallback_fraction:.1%} of keys fell back to scalar search"
    )
    return {
        "load_factor": round(group.load_factor, 3),
        "amal": round(amal, 4),
        "keys": queries,
        "scalar_keys_per_sec": round(queries / scalar_seconds),
        "batch_keys_per_sec": round(queries / batch_seconds),
        "batch_speedup": round(scalar_seconds / batch_seconds, 2),
        "scalar_fallback_fraction": fallback_fraction,
        "probe_walk_keys": engine.probe_walk_keys,
    }


def run_benchmark(quick: bool = False) -> dict:
    params = QUICK if quick else FULL
    with enabled_profiler() as profiler:
        result = {
            "mode": "quick" if quick else "full",
            "index_bits": params["index_bits"],
            "slots": params["slots"],
            "build": bench_build(params["index_bits"], params["slots"]),
            "lookup_alpha09": bench_high_load_lookup(
                params["index_bits"], params["slots"], params["queries"]
            ),
        }
    return finalize(RESULT_PATH, result, profiler=profiler)


def test_bulk_build_speedup():
    result = run_benchmark(quick=True)
    assert result["build"]["build_speedup"] >= 5, result
    assert result["lookup_alpha09"]["scalar_fallback_fraction"] <= 0.01


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small geometry for CI smoke runs",
    )
    args = parser.parse_args()
    stats = run_benchmark(quick=args.quick)
    print(json.dumps(stats, indent=2))
    print(f"\nwrote {RESULT_PATH}")
