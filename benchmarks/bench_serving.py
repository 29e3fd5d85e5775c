"""Serving-tier benchmark: coalesced async throughput vs one-at-a-time.

The serving tier's claim is that request coalescing turns live
one-key-at-a-time traffic into the batch work the vectorized kernel is
built for.  This benchmark quantifies it on a sharded cluster
(:class:`~repro.serving.cluster.CaramCluster` behind a consistent-hash
router) with Zipf-skewed verified traffic from
:mod:`repro.serving.loadgen`:

* **direct** — the synchronous scatter/gather batch path over the whole
  stream at once: the correctness reference and the throughput ceiling;
* **baseline** — a closed loop through the async service with
  ``max_batch_size=1`` (coalescing disabled): the honest
  one-request-at-a-time cost of the same machinery;
* **coalesced** — the same closed loop with the batch window on; the
  acceptance gate demands >=5x the baseline at equal correctness;
* **overload** — an open loop offered far beyond capacity against a
  deliberately small admission bound: shedding must engage (``shed > 0``)
  and the accounting must close (``requests == completed + shed +
  wrong`` with ``wrong == 0``) — overload degrades throughput, never
  correctness.

Every leg verifies each answer against the precomputed expected value;
any wrong answer fails the gate.  Results land in ``BENCH_serving.json``
with the shard/worker topology nested under ``metadata.topology`` so the
telemetry differ refuses cross-topology comparisons.

Run standalone with::

    PYTHONPATH=src python benchmarks/bench_serving.py [--quick]

or through pytest (asserts the speedup/correctness/coalescing gates)::

    PYTHONPATH=src python -m pytest benchmarks/bench_serving.py
"""

import argparse
import asyncio
import json
import time

from harness import finalize, result_path
from repro.serving import (
    CaramCluster,
    ShardedService,
    make_request_stream,
    run_closed_loop,
    run_open_loop,
)
from repro.telemetry.metrics import MetricsRegistry
from repro.utils.rng import make_rng

RESULT_PATH = result_path("serving")

SEED = 20070            # ISPASS 2007
KEY_BITS = 22           # keyspace the stored population is drawn from
MISS_FRACTION = 0.1
ZIPF_EXPONENT = 1.0

#: Full-scale knobs (standalone runs) and the CI ``--quick`` profile.
SCALE = {
    "full": {
        "shards": 4,
        "index_bits": 8,
        "slots": 16,
        "records": 6000,
        "requests": 20000,
        "users": 400,
        "baseline_requests": 4000,
        "baseline_users": 200,
        "overload_requests": 6000,
        "overload_qps": 400_000.0,
    },
    "quick": {
        "shards": 2,
        "index_bits": 7,
        "slots": 16,
        "records": 1500,
        "requests": 6000,
        "users": 200,
        "baseline_requests": 1200,
        "baseline_users": 100,
        "overload_requests": 2000,
        "overload_qps": 400_000.0,
    },
}

MAX_BATCH_SIZE = 512
MAX_DELAY = 0.002
OVERLOAD_MAX_PENDING = 64

#: Acceptance gates (ISSUE 9): coalesced >= 5x the batch-size-1 baseline,
#: and batches must actually coalesce, not trickle through one key each.
MIN_SPEEDUP = 5.0
MIN_COALESCING_FACTOR = 4.0


def make_records(scale: dict):
    rng = make_rng(SEED)
    keys = rng.choice(1 << KEY_BITS, size=scale["records"], replace=False)
    return [(int(key), int(key) & 0xFFFF) for key in keys]


def build_cluster(scale: dict) -> CaramCluster:
    """A freshly built and loaded cluster (one per service leg — each
    service owns and closes its cluster)."""
    cluster = CaramCluster.build(
        shard_count=scale["shards"],
        index_bits=scale["index_bits"],
        slots=scale["slots"],
    )
    cluster.load(make_records(scale))
    return cluster


def bench_direct(cluster: CaramCluster, stream) -> dict:
    """The synchronous scatter/gather reference: correctness + ceiling."""
    results = cluster.search_batch(stream.keys)  # warm the mirrors
    start = time.perf_counter()
    results = cluster.search_batch(stream.keys)
    seconds = time.perf_counter() - start
    wrong = sum(
        1
        for result, expected in zip(results, stream.expected)
        if (result.data if result.hit else -1) != expected
    )
    return {
        "requests": len(stream),
        "wrong": wrong,
        "keys_per_sec": round(len(stream) / seconds),
    }


async def _run_legs(scale: dict, registry: MetricsRegistry) -> dict:
    records = make_records(scale)
    stored = [key for key, _ in records]
    values = dict(records)

    def stream_of(requests: int, seed_offset: int = 0):
        return make_request_stream(
            stored,
            values,
            requests=requests,
            zipf_exponent=ZIPF_EXPONENT,
            miss_fraction=MISS_FRACTION,
            seed=SEED + seed_offset,
            key_bits=KEY_BITS,
        )

    # Direct reference leg (its own cluster; closed right after).
    with build_cluster(scale) as direct_cluster:
        direct = bench_direct(direct_cluster, stream_of(scale["requests"]))

    # Baseline: coalescing disabled — every request is its own batch.
    async with ShardedService(
        build_cluster(scale), max_batch_size=1, max_delay=0.0
    ) as baseline_service:
        baseline_report = await run_closed_loop(
            baseline_service,
            stream_of(scale["baseline_requests"]),
            users=scale["baseline_users"],
        )

    # Coalesced: the serving tier as configured for production.
    coalesced_service = ShardedService(
        build_cluster(scale),
        max_batch_size=MAX_BATCH_SIZE,
        max_delay=MAX_DELAY,
    )
    async with coalesced_service:
        coalesced_report = await run_closed_loop(
            coalesced_service,
            stream_of(scale["requests"]),
            users=scale["users"],
        )
        coalesced_service.register_telemetry(registry)
        snapshot = registry.snapshot()

    # Overload: open loop far past capacity, tiny admission bound.
    async with ShardedService(
        build_cluster(scale),
        max_batch_size=MAX_BATCH_SIZE,
        max_delay=MAX_DELAY,
        max_pending=OVERLOAD_MAX_PENDING,
    ) as overload_service:
        overload_report = await run_open_loop(
            overload_service,
            stream_of(scale["overload_requests"], seed_offset=1),
            offered_qps=scale["overload_qps"],
        )

    speedup = (
        coalesced_report.sustained_qps / baseline_report.sustained_qps
        if baseline_report.sustained_qps
        else 0.0
    )
    return {
        "direct": direct,
        "baseline": baseline_report.as_dict(),
        "coalesced": coalesced_report.as_dict(),
        "overload": overload_report.as_dict(),
        "speedup_vs_baseline": round(speedup, 2),
        "telemetry_snapshot": snapshot,
    }


def run_benchmark(profile: str = "full") -> dict:
    scale = SCALE[profile]
    registry = MetricsRegistry()
    legs = asyncio.run(_run_legs(scale, registry))
    snapshot = legs.pop("telemetry_snapshot")
    result = {
        "profile": profile,
        "requests": scale["requests"],
        "users": scale["users"],
        "zipf_exponent": ZIPF_EXPONENT,
        "miss_fraction": MISS_FRACTION,
        **legs,
        "gates": {
            "min_speedup": MIN_SPEEDUP,
            "min_coalescing_factor": MIN_COALESCING_FACTOR,
        },
    }
    topology = {
        "shard_count": scale["shards"],
        "router": "ConsistentHashRouter",
        "front_end": "asyncio+thread-executor",
        "max_batch_size": MAX_BATCH_SIZE,
        "max_delay_s": MAX_DELAY,
    }
    return finalize(
        RESULT_PATH,
        result,
        telemetry={"metrics": snapshot},
        metadata={"profile": profile},
        topology=topology,
    )


def check_gates(result: dict) -> None:
    """The acceptance gates, shared by pytest and the CI smoke job."""
    assert result["direct"]["wrong"] == 0, result["direct"]
    for leg in ("baseline", "coalesced", "overload"):
        section = result[leg]
        assert section["wrong"] == 0, (leg, section)
        accounted = (
            section["completed"]
            + section["shed"]
            + section.get("failed", 0)
            + section["wrong"]
        )
        assert accounted == section["requests"], (leg, section)
    assert result["speedup_vs_baseline"] >= MIN_SPEEDUP, result
    assert (
        result["coalesced"]["coalescing_factor"] >= MIN_COALESCING_FACTOR
    ), result["coalesced"]
    # Overload must actually engage admission control — an open loop at
    # far-past-capacity rates with a 64-deep bound has to shed.
    assert result["overload"]["shed"] > 0, result["overload"]
    assert result["metadata"]["topology"]["shard_count"] >= 2, result


def test_serving_coalescing_speedup():
    check_gates(run_benchmark("full"))


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="reduced-scale profile for CI smoke runs",
    )
    parser.add_argument(
        "--check-gates",
        action="store_true",
        help="apply the acceptance gates after the run (CI smoke job)",
    )
    args = parser.parse_args()
    report = run_benchmark("quick" if args.quick else "full")
    print(json.dumps({k: v for k, v in report.items() if k != "telemetry"}, indent=2))
    if args.check_gates:
        check_gates(report)
        print("\nall serving gates passed")
    print(f"\nwrote {RESULT_PATH}")
