"""Fault-tolerance benchmark: replicated serving under injected failure.

The claim is that replication turns shard failure from an outage into a
latency blip: with R bit-identical replicas per shard behind each
shard's failover loop (deadlines, attempt timeouts, retry-with-backoff
onto an untried replica, circuit-breaker membership), killing a replica
mid-stream must cost throughput, never correctness.  Three legs:

* **baseline** — R=2 fault-free closed loop through
  :class:`~repro.serving.service.ShardedService` over
  ``CaramCluster.build(..., replication=2)``: the throughput reference
  the degraded legs are gated against;
* **replica_kill** — the same loop, but once half the requests have
  completed, replica 1 of *every* shard is crashed.  Gates: zero wrong
  answers, every admitted request resolved (accounting closes), at
  least one eviction per shard, and sustained throughput >= 50% of the
  fault-free baseline;
* **chaos_soak** — all four chaos modes at once on different replicas
  (crash, hang, transient errors, and ECC-guarded bit corruption via
  the reliability stack).  Gate: zero wrong answers — every
  admitted request returns the bit-identical correct answer or a typed
  error, never silent corruption — with the faults shown to fire: bit
  faults injected, retries taken, and the hung replica's calls cut off
  by the attempt timeout.

Every leg verifies each answer against the precomputed expected value.
Results land in ``BENCH_serving_faults.json`` with the replication
topology under ``metadata.topology``.

Run standalone with::

    PYTHONPATH=src python benchmarks/bench_serving_faults.py [--quick]

or through pytest (asserts the fault gates)::

    PYTHONPATH=src python -m pytest benchmarks/bench_serving_faults.py
"""

import argparse
import asyncio
import json

from harness import finalize, result_path
from repro.serving import (
    CaramCluster,
    ChaosSpec,
    FailoverPolicy,
    ShardedService,
    make_request_stream,
    run_closed_loop,
)
from repro.telemetry.metrics import MetricsRegistry
from repro.utils.rng import make_rng

RESULT_PATH = result_path("serving_faults")

SEED = 20070            # ISPASS 2007
KEY_BITS = 22
MISS_FRACTION = 0.1
ZIPF_EXPONENT = 1.0
REPLICATION = 2

#: Full-scale knobs (standalone runs) and the CI ``--quick`` profile.
SCALE = {
    "full": {
        "shards": 2,
        "index_bits": 8,
        "slots": 16,
        "records": 4000,
        "requests": 12000,
        "users": 300,
    },
    "quick": {
        "shards": 2,
        "index_bits": 7,
        "slots": 16,
        "records": 1500,
        "requests": 5000,
        "users": 150,
    },
}

MAX_BATCH_SIZE = 512
MAX_DELAY = 0.002

#: Failover knobs for the degraded legs: a short per-attempt timeout so
#: a hung replica costs one bounded wait, not the whole deadline, and a
#: fast-tripping breaker so dead replicas leave the rotation quickly.
POLICY = FailoverPolicy(
    deadline=2.0,
    attempt_timeout=0.05,
    evict_after=2,
    probation_after=0.05,   # recovered replicas rejoin within the run
    seed=SEED,
)

#: Acceptance gates (ISSUE 10).  ``failed`` counts requests resolved
#: with a typed error after every replica of a set was down — permanent
#: kills are fully covered by the surviving replica (near-zero), the
#: all-modes soak tolerates brief whole-set outages while evicted
#: replicas wait out probation.
MIN_KILL_THROUGHPUT_FRACTION = 0.5
MAX_FAILED_FRACTION = {
    "baseline": 0.0,
    "replica_kill": 0.01,
    "chaos_soak": 0.05,
}


def make_records(scale: dict):
    rng = make_rng(SEED)
    keys = rng.choice(1 << KEY_BITS, size=scale["records"], replace=False)
    return [(int(key), int(key) & 0xFFFF) for key in keys]


def build_cluster(scale: dict) -> CaramCluster:
    """A freshly built and loaded replicated cluster (one per leg —
    each service owns and closes its cluster)."""
    cluster = CaramCluster.build(
        shard_count=scale["shards"],
        replication=REPLICATION,
        policy=POLICY,
        index_bits=scale["index_bits"],
        slots=scale["slots"],
    )
    cluster.load(make_records(scale))
    return cluster


def failover_counters(cluster: CaramCluster) -> dict:
    totals = [shard.failover.as_dict() for shard in cluster.shards]
    return {stat: sum(t[stat] for t in totals) for stat in totals[0]}


def corruption_counters(cluster: CaramCluster) -> dict:
    """Summed reliability-guard counters across every replica that has
    the ECC stack enabled (the ``corrupt`` chaos targets)."""
    injected = corrections = detections = 0
    for shard in cluster.shards:
        for replica in shard.replicas:
            manager = replica.group._reliability
            if manager is None:
                continue
            for guard in manager.guards:
                injected += guard.stats.faults_injected
                corrections += guard.stats.corrections
                detections += guard.stats.detections
    return {
        "faults_injected": injected,
        "corrections": corrections,
        "detections": detections,
    }


async def run_leg(scale: dict, stream, chaos=None, registry=None) -> dict:
    """One closed loop through a fresh service.

    ``chaos`` is ``None`` (fault-free), a list of ``(shard, replica,
    spec)`` triples injected before traffic starts, or the string
    ``"kill-midstream"`` — crash replica 1 of every shard once half the
    requests have completed.
    """
    cluster = build_cluster(scale)
    service = ShardedService(
        cluster,
        max_batch_size=MAX_BATCH_SIZE,
        max_delay=MAX_DELAY,
    )
    if isinstance(chaos, list):
        for shard_id, replica_id, spec in chaos:
            cluster.inject_chaos(shard_id, replica_id, spec)

    async def kill_midstream():
        target = max(1, len(stream) // 2)
        while service.stats.completed < target:
            await asyncio.sleep(0.002)
        for shard_id in range(scale["shards"]):
            cluster.kill_replica(shard_id, 1)

    async with service:
        killer = None
        if chaos == "kill-midstream":
            killer = asyncio.ensure_future(kill_midstream())
        report = await run_closed_loop(
            service, stream, users=scale["users"]
        )
        if killer is not None:
            killer.cancel()
            try:
                await killer
            except asyncio.CancelledError:
                pass
        leg = report.as_dict()
        leg["failover"] = failover_counters(cluster)
        leg["membership"] = cluster.membership()
        leg["corruption"] = corruption_counters(cluster)
        if registry is not None:
            cluster.register_telemetry(registry)
            leg["telemetry_snapshot"] = registry.snapshot()
    return leg


async def _run_legs(scale: dict, registry: MetricsRegistry) -> dict:
    records = make_records(scale)
    stored = [key for key, _ in records]
    values = dict(records)

    def stream_of(seed_offset: int = 0):
        return make_request_stream(
            stored,
            values,
            requests=scale["requests"],
            zipf_exponent=ZIPF_EXPONENT,
            miss_fraction=MISS_FRACTION,
            seed=SEED + seed_offset,
            key_bits=KEY_BITS,
        )

    baseline = await run_leg(scale, stream_of(0))
    replica_kill = await run_leg(
        scale, stream_of(1), chaos="kill-midstream", registry=registry
    )

    # Chaos soak: all four modes at once, spread so every shard keeps at
    # least one replica that only suffers *recoverable* chaos.  The
    # corruption rate stays where SECDED's miscorrection probability is
    # negligible for this geometry: word-organized bucket rows are
    # ~600-bit codewords, and above ~1e-4 flips/bit/access a triple
    # flip within one access miscorrects (and writeback then persists
    # the poisoned row with consistent check bits) often enough to show
    # up in a 5k-request run.  The zero-wrong gate holds at the tested
    # rate by correction, not by luck — the injected/corrected counters
    # are gated non-zero below.
    #
    # Shard 1's hang window must close before its peer crashes at call
    # 40, or both replicas are down at once.  A replica still running an
    # abandoned call gets no new call, so each hung call ends and the
    # breaker re-admits the replica before the next one starts: ~0.13 s
    # per hung call here, so two calls span about what three spanned
    # when calls queued behind the hung one (0.19-0.24 s).
    soak_specs = [
        (0, 0, ChaosSpec(mode="error", at_call=2, duration_calls=6,
                         error_rate=1.0, seed=SEED)),
        (0, 1, ChaosSpec(mode="corrupt", bit_flip_rate=2e-5, seed=SEED)),
        (1, 0, ChaosSpec(mode="hang", at_call=3, duration_calls=2,
                         hang_seconds=0.08)),
        (1, 1, ChaosSpec(mode="crash", at_call=40)),
    ]
    chaos_soak = await run_leg(scale, stream_of(2), chaos=soak_specs)

    throughput_fraction = (
        replica_kill["sustained_qps"] / baseline["sustained_qps"]
        if baseline["sustained_qps"]
        else 0.0
    )
    return {
        "baseline": baseline,
        "replica_kill": replica_kill,
        "chaos_soak": chaos_soak,
        "kill_throughput_fraction": round(throughput_fraction, 4),
    }


def run_benchmark(profile: str = "full") -> dict:
    scale = SCALE[profile]
    registry = MetricsRegistry()
    legs = asyncio.run(_run_legs(scale, registry))
    snapshot = legs["replica_kill"].pop("telemetry_snapshot", {})
    result = {
        "profile": profile,
        "requests": scale["requests"],
        "users": scale["users"],
        "zipf_exponent": ZIPF_EXPONENT,
        "miss_fraction": MISS_FRACTION,
        **legs,
        "gates": {
            "min_kill_throughput_fraction": MIN_KILL_THROUGHPUT_FRACTION,
            "max_failed_fraction": MAX_FAILED_FRACTION,
        },
    }
    topology = {
        "shard_count": scale["shards"],
        "replication": REPLICATION,
        "router": "ConsistentHashRouter",
        "front_end": "asyncio+thread-executor",
        "max_batch_size": MAX_BATCH_SIZE,
        "max_delay_s": MAX_DELAY,
        "deadline_s": POLICY.deadline,
        "attempt_timeout_s": POLICY.attempt_timeout,
    }
    return finalize(
        RESULT_PATH,
        result,
        telemetry={"metrics": snapshot} if snapshot else None,
        metadata={"profile": profile},
        topology=topology,
    )


def check_gates(result: dict) -> None:
    """The acceptance gates, shared by pytest and the CI chaos job."""
    for leg in ("baseline", "replica_kill", "chaos_soak"):
        section = result[leg]
        # Zero wrong answers under every fault schedule — the headline.
        assert section["wrong"] == 0, (leg, section)
        # Every admitted request resolved: the accounting closes.
        accounted = (
            section["completed"]
            + section["shed"]
            + section["failed"]
            + section["wrong"]
        )
        assert accounted == section["requests"], (leg, section)
        assert (
            section["failed"]
            <= MAX_FAILED_FRACTION[leg] * section["requests"]
        ), (leg, section)
    # The kill leg must actually kill: an eviction on every shard...
    kill = result["replica_kill"]
    assert kill["failover"]["evictions"] >= (
        result["metadata"]["topology"]["shard_count"]
    ), kill["failover"]
    # ...while sustaining at least half the fault-free throughput.
    assert (
        result["kill_throughput_fraction"]
        >= MIN_KILL_THROUGHPUT_FRACTION
    ), result["kill_throughput_fraction"]
    # The soak must actually corrupt memory (and the ECC stack must have
    # seen it) — otherwise the zero-wrong gate is vacuous.
    soak = result["chaos_soak"]
    assert soak["corruption"]["faults_injected"] > 0, soak["corruption"]
    assert soak["failover"]["retries"] > 0, soak["failover"]
    # The hung replica must outlive its attempt timeout: a timer that
    # never fires would pass the zero-wrong gate too.
    assert soak["failover"]["timeouts"] > 0, soak["failover"]
    assert result["metadata"]["topology"]["replication"] >= 2, result


def test_serving_fault_tolerance():
    check_gates(run_benchmark("quick"))


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
        help="apply the acceptance gates after the run (CI chaos job)",
    )
    args = parser.parse_args()
    report = run_benchmark("quick" if args.quick else "full")
    print(json.dumps(
        {k: v for k, v in report.items() if k != "telemetry"}, indent=2
    ))
    if args.check_gates:
        check_gates(report)
        print("\nall serving-fault gates passed")
    print(f"\nwrote {RESULT_PATH}")
