"""Replicated shards, chaos injection, and the fault-tolerant path.

The load-bearing property: under any schedule of replica-level faults
(crash, hang, transient errors, bit corruption), every admitted request
either returns the **bit-identical correct answer** or a **typed**
``CaRamError`` — no silent wrong answers, no lost futures.
"""

import asyncio
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import (
    CaRamError,
    ConfigurationError,
    ReliabilityError,
    ServiceOverloadError,
    ShardUnavailableError,
)
from repro.serving.cluster import CaramCluster
from repro.serving.replication import (
    ACTIVE,
    EVICTED,
    PROBATION,
    ChaosSpec,
    FailoverPolicy,
    FaultTolerantService,
    Replica,
    ReplicaSet,
    ReplicatedCluster,
)
from repro.telemetry.health import HealthFinding, HealthReport
from repro.telemetry.metrics import MetricsRegistry
from repro.utils.rng import make_rng

KEY_BITS = 16


def make_records(count=120, seed=11):
    rng = make_rng(seed)
    keys = rng.choice(1 << KEY_BITS, size=count, replace=False)
    return [(int(key), int(key) & 0xFF) for key in keys]


def build_replicated(
    shard_count=2, replication=2, records=None, policy=None, clock=None
):
    kwargs = dict(
        index_bits=5, slots=8, key_bits=KEY_BITS, policy=policy
    )
    if clock is not None:
        kwargs["clock"] = clock
    cluster = ReplicatedCluster.build(shard_count, replication, **kwargs)
    cluster.load(make_records() if records is None else records)
    return cluster


def build_reference(shard_count=2, records=None):
    cluster = CaramCluster.build(
        shard_count=shard_count, index_bits=5, slots=8, key_bits=KEY_BITS
    )
    cluster.load(make_records() if records is None else records)
    return cluster


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def make_report(level):
    return HealthReport(
        findings=[
            HealthFinding(
                rule="test", level=level, message="synthetic", value=0.0
            )
        ]
    )


class TestValidation:
    def test_bad_specs_rejected(self):
        with pytest.raises(ConfigurationError):
            ChaosSpec(mode="meteor")
        with pytest.raises(ConfigurationError):
            ChaosSpec(mode="hang", hang_seconds=-1)
        with pytest.raises(ConfigurationError):
            ChaosSpec(mode="error", error_rate=1.5)
        with pytest.raises(ConfigurationError):
            FailoverPolicy(max_attempts=0)
        with pytest.raises(ConfigurationError):
            FailoverPolicy(deadline=-0.1)
        with pytest.raises(ConfigurationError):
            FailoverPolicy(balancer="random")
        with pytest.raises(ConfigurationError):
            ReplicatedCluster.build(2, replication=0)

    def test_ft_service_requires_replicated_cluster(self):
        reference = build_reference()
        with pytest.raises(ConfigurationError):
            FaultTolerantService(reference)
        reference.close()


class TestReplicatedCluster:
    def test_replicas_are_bit_identical(self):
        records = make_records()
        cluster = build_replicated(records=records)
        for rset in cluster.replica_sets:
            counts = {
                replica.shard.group.record_count
                for replica in rset.replicas
            }
            assert len(counts) == 1
        assert cluster.record_count == len(records)
        cluster.close()

    def test_direct_batch_matches_unreplicated_reference(self):
        records = make_records()
        cluster = build_replicated(records=records)
        reference = build_reference(records=records)
        keys = [key for key, _ in records]
        keys += [(key + 1) & 0xFFFF for key, _ in records[:30]]
        assert cluster.search_batch(keys) == reference.search_batch(keys)
        assert cluster.search(keys[0]) == reference.search(keys[0])
        cluster.close()
        reference.close()

    def test_round_robin_spreads_reads(self):
        cluster = build_replicated(shard_count=1, replication=3)
        rset = cluster.replica_sets[0]
        for _ in range(12):
            rset.call([make_records()[0][0]])
        calls = [replica.calls for replica in rset.replicas]
        assert all(count >= 3 for count in calls)
        cluster.close()

    def test_least_inflight_picks_idle_replica(self):
        cluster = build_replicated(
            shard_count=1,
            replication=3,
            policy=FailoverPolicy(balancer="least-inflight"),
        )
        rset = cluster.replica_sets[0]
        rset.replicas[0].inflight = 5
        rset.replicas[1].inflight = 2
        assert rset.pick().replica_id == 2
        rset.replicas[2].inflight = 9
        assert rset.pick().replica_id == 1
        cluster.close()

    def test_telemetry_mounts(self):
        cluster = build_replicated()
        registry = MetricsRegistry()
        cluster.register_telemetry(registry, prefix="serving")
        cluster.search_batch([make_records()[0][0]])
        snapshot = registry.snapshot()["stats"]
        assert "serving.shard0.replica0.search" in snapshot
        assert "serving.shard1.replica1.search" in snapshot
        topology = snapshot["serving.cluster.topology"]
        assert topology["replication"] == 2
        membership = snapshot["serving.replica.membership"]
        assert membership["shard0"]["replicas"]["replica0"]["state"] == ACTIVE
        assert snapshot["serving.cluster.search"]["lookups"] > 0
        cluster.close()


class TestChaosModes:
    def test_crash_fails_over_and_evicts(self):
        records = make_records()
        cluster = build_replicated(
            shard_count=1,
            records=records,
            policy=FailoverPolicy(evict_after=2, probation_after=60.0),
        )
        reference = build_reference(shard_count=1, records=records)
        cluster.kill_replica(0, 0)
        keys = [key for key, _ in records]
        assert cluster.search_batch(keys) == reference.search_batch(keys)
        rset = cluster.replica_sets[0]
        # One batch = one call per shard; round-robin lands on the dead
        # replica every other call, so a few batches reach evict_after.
        for _ in range(4):
            cluster.search_batch(keys[:4])
        assert rset.replicas[0].state == EVICTED
        assert rset.stats.evictions == 1
        assert rset.stats.retries >= 2
        cluster.close()
        reference.close()

    def test_error_window_is_transient_and_deterministic(self):
        records = make_records()
        cluster = build_replicated(shard_count=1, records=records)
        cluster.inject_chaos(
            0, 0, ChaosSpec(mode="error", at_call=1, duration_calls=2)
        )
        replica = cluster.replica(0, 0)
        key = records[0][0]
        assert replica.call([key])[0].hit  # call 0: before the window
        for _ in range(2):  # calls 1-2: inside the window
            with pytest.raises(ReliabilityError):
                replica.call([key])
        assert replica.call([key])[0].hit  # call 3: window closed
        assert replica.chaos.injected == 2
        cluster.close()

    def test_corrupt_mode_rides_the_reliability_layer(self):
        """Corruption chaos goes through FaultInjector + ECC, so answers
        stay correct while faults demonstrably fire."""
        records = make_records()
        cluster = build_replicated(shard_count=1, records=records)
        reference = build_reference(shard_count=1, records=records)
        cluster.inject_chaos(
            0, 0, ChaosSpec(mode="corrupt", bit_flip_rate=2e-4, seed=7)
        )
        keys = [key for key, _ in records]
        expected = reference.search_batch(keys)
        for _ in range(6):
            assert cluster.search_batch(keys) == expected
        group = cluster.replica(0, 0).shard.group
        manager = group._reliability
        assert sum(
            guard.stats.faults_injected for guard in manager.guards
        ) > 0
        cluster.close()
        reference.close()

    def test_whole_set_down_raises_typed_error(self):
        cluster = build_replicated(
            shard_count=1,
            policy=FailoverPolicy(evict_after=1, probation_after=60.0),
        )
        cluster.kill_replica(0, 0)
        cluster.kill_replica(0, 1)
        key = make_records()[0][0]
        with pytest.raises(ShardUnavailableError) as excinfo:
            cluster.search_batch([key])
        assert excinfo.value.shard_id == 0
        assert excinfo.value.exit_code == 13
        cluster.close()


class TestCircuitBreaker:
    def test_evict_probation_readmit_cycle(self):
        clock = FakeClock()
        policy = FailoverPolicy(
            evict_after=2,
            probation_after=5.0,
            readmit_after=2,
            probe_interval=1,
        )
        cluster = build_replicated(
            shard_count=1, policy=policy, clock=clock
        )
        rset = cluster.replica_sets[0]
        victim = rset.replicas[0]
        rset.record_failure(victim, "error")
        assert victim.state == ACTIVE
        rset.record_failure(victim, "error")
        assert victim.state == EVICTED

        # While evicted, picks never land on the victim.
        for _ in range(6):
            assert rset.pick() is not victim
        # Cooldown elapses -> probation; probes trickle back.
        clock.advance(5.0)
        picked = {rset.pick().replica_id for _ in range(6)}
        assert victim.state == PROBATION
        assert victim.replica_id in picked
        # Enough probe successes -> re-admitted.
        rset.record_success(victim)
        rset.record_success(victim)
        assert victim.state == ACTIVE
        assert rset.stats.readmissions == 1

        # A probation failure re-evicts immediately.
        rset.record_failure(victim, "error")
        rset.record_failure(victim, "error")
        clock.advance(5.0)
        rset.pick()
        assert victim.state == PROBATION
        rset.record_failure(victim, "error")
        assert victim.state == EVICTED
        cluster.close()

    def test_health_verdicts_drive_membership(self):
        cluster = build_replicated(shard_count=1)
        rset = cluster.replica_sets[0]
        cluster.apply_health_report(0, 0, make_report("warn"))
        assert rset.replicas[0].state == ACTIVE
        assert rset.replicas[0].health_warnings == 1
        cluster.apply_health_report(0, 0, make_report("critical"))
        assert rset.replicas[0].state == EVICTED
        cluster.apply_health_report(0, 1, make_report("ok"))
        assert rset.replicas[1].state == ACTIVE
        cluster.close()

    def test_trace_events_emitted(self):
        from repro.telemetry.trace import Tracer

        cluster = build_replicated(
            shard_count=1,
            policy=FailoverPolicy(evict_after=1, probation_after=0.0),
        )
        tracer = Tracer()
        cluster.set_tracer(tracer)
        rset = cluster.replica_sets[0]
        rset.record_failure(rset.replicas[0], "error")
        rset.pick()
        rset.record_success(rset.replicas[0])
        rset.record_success(rset.replicas[0])
        kinds = [event.kind for event in tracer.events()]
        assert "replica.evicted" in kinds
        assert "replica.probation" in kinds
        assert "replica.readmitted" in kinds
        cluster.close()


class TestFaultTolerantService:
    RECORDS = make_records(count=150, seed=23)

    def run_service(self, cluster, keys, **service_kwargs):
        service = FaultTolerantService(cluster, **service_kwargs)

        async def run():
            async with service:
                return await asyncio.gather(
                    *(service.lookup(key) for key in keys),
                    return_exceptions=True,
                )

        return asyncio.run(run()), service

    def test_replica_crash_is_invisible_to_callers(self):
        cluster = build_replicated(
            records=self.RECORDS,
            policy=FailoverPolicy(
                deadline=2.0, attempt_timeout=0.2, evict_after=2
            ),
        )
        reference = build_reference(records=self.RECORDS)
        cluster.kill_replica(0, 1)
        cluster.kill_replica(1, 1)
        keys = [key for key, _ in self.RECORDS]
        outcomes, service = self.run_service(
            cluster, keys, max_batch_size=8, max_delay=0.0
        )
        assert outcomes == reference.search_batch(keys)
        assert service.stats.completed == len(keys)
        evictions = sum(
            rset.stats.evictions for rset in cluster.replica_sets
        )
        assert evictions >= 1
        reference.close()

    def test_hang_bounded_by_attempt_timeout(self):
        cluster = build_replicated(
            shard_count=1,
            records=self.RECORDS,
            policy=FailoverPolicy(
                deadline=2.0, attempt_timeout=0.03, evict_after=2
            ),
        )
        reference = build_reference(shard_count=1, records=self.RECORDS)
        cluster.inject_chaos(
            0, 0, ChaosSpec(mode="hang", hang_seconds=0.2)
        )
        keys = [key for key, _ in self.RECORDS[:40]]
        outcomes, _ = self.run_service(
            cluster, keys, max_batch_size=16, max_delay=0.0
        )
        assert outcomes == reference.search_batch(keys)
        rset = cluster.replica_sets[0]
        assert rset.stats.timeouts >= 1
        assert rset.replicas[0].state == EVICTED
        reference.close()

    def test_hedged_read_wins_over_slow_replica(self):
        cluster = build_replicated(
            shard_count=1,
            records=self.RECORDS,
            policy=FailoverPolicy(
                deadline=5.0,
                hedge_delay=0.01,
                evict_after=100,  # keep the slow replica in rotation
            ),
        )
        reference = build_reference(shard_count=1, records=self.RECORDS)
        # Round-robin picks replica 1 first: hang that one so the
        # primary call stalls and the hedge (on replica 0) wins.
        cluster.inject_chaos(
            0, 1, ChaosSpec(mode="hang", hang_seconds=0.15)
        )
        keys = [key for key, _ in self.RECORDS[:30]]
        outcomes, _ = self.run_service(
            cluster, keys, max_batch_size=30, max_delay=0.05
        )
        assert outcomes == reference.search_batch(keys)
        rset = cluster.replica_sets[0]
        assert rset.stats.hedges >= 1
        assert rset.stats.hedge_wins >= 1
        reference.close()

    def test_whole_set_down_fails_typed_and_sheds_nothing_silently(self):
        cluster = build_replicated(
            shard_count=1,
            records=self.RECORDS,
            policy=FailoverPolicy(
                deadline=0.5,
                attempt_timeout=0.1,
                evict_after=1,
                probation_after=60.0,
            ),
        )
        cluster.kill_replica(0, 0)
        cluster.kill_replica(0, 1)
        keys = [key for key, _ in self.RECORDS[:25]]
        outcomes, service = self.run_service(
            cluster, keys, max_batch_size=8, max_delay=0.0
        )
        assert all(
            isinstance(outcome, ShardUnavailableError)
            for outcome in outcomes
        )
        assert cluster.replica_sets[0].stats.exhausted >= 1
        # Every admitted request resolved: nothing hangs, nothing lost.
        assert service.stats.requests == len(keys)

    def test_failed_lookups_close_the_coalescer_accounting(self):
        """Lookups whose shard is down count as ``failed``, so the
        coalescer's ``requests == completed + shed + failed`` identity
        closes inside the service."""
        cluster = build_replicated(
            records=self.RECORDS,
            policy=FailoverPolicy(evict_after=1, probation_after=60.0),
        )
        cluster.kill_replica(0, 0)
        cluster.kill_replica(0, 1)
        stored = [key for key, _ in self.RECORDS]
        dead = [k for k in stored if cluster.router.shard_for_query(k) == 0]
        live = [k for k in stored if cluster.router.shard_for_query(k) == 1]
        dead, live = dead[:12], live[:7]
        outcomes, service = self.run_service(
            cluster, dead + live, max_batch_size=8, max_delay=0.0
        )
        assert all(
            isinstance(outcome, ShardUnavailableError)
            for outcome in outcomes[: len(dead)]
        )
        assert all(outcome.hit for outcome in outcomes[len(dead) :])
        stats = service.stats
        assert stats.failed == len(dead)
        assert stats.completed == len(live)
        assert stats.shed == 0
        assert stats.requests == stats.completed + stats.shed + stats.failed
        assert service.stats.as_dict()["failed"] == len(dead)


class TestFaultScheduleProperty:
    """Hypothesis: random fault schedules never produce a silent wrong
    answer or a lost future (satellite of ISSUE 10)."""

    RECORDS = make_records(count=100, seed=31)
    STORED = [key for key, _ in RECORDS]
    REFERENCE = build_reference(shard_count=2, records=RECORDS)
    EXPECTED = {
        key: (result.hit, result.data)
        for key, result in zip(
            STORED + [(k + 1) & 0xFFFF for k in STORED],
            REFERENCE.search_batch(
                STORED + [(k + 1) & 0xFFFF for k in STORED]
            ),
        )
    }

    chaos_strategy = st.one_of(
        st.none(),
        st.builds(
            ChaosSpec,
            mode=st.sampled_from(["crash", "hang", "error"]),
            at_call=st.integers(0, 6),
            duration_calls=st.one_of(st.none(), st.integers(1, 4)),
            hang_seconds=st.just(0.03),
            error_rate=st.sampled_from([0.5, 1.0]),
            seed=st.integers(0, 99),
        ),
        st.builds(
            ChaosSpec,
            mode=st.just("corrupt"),
            bit_flip_rate=st.just(2e-4),
            seed=st.integers(0, 99),
        ),
    )

    @settings(deadline=None, max_examples=10)
    @given(
        schedules=st.lists(chaos_strategy, min_size=4, max_size=4),
        picks=st.lists(
            st.tuples(st.integers(0, 99), st.booleans()),
            min_size=1,
            max_size=40,
        ),
        data_seed=st.integers(0, 9),
    )
    def test_no_silent_wrong_answers_no_lost_futures(
        self, schedules, picks, data_seed
    ):
        keys = [
            self.STORED[i] if hit else (self.STORED[i] + 1) & 0xFFFF
            for i, hit in picks
        ]
        cluster = build_replicated(
            shard_count=2,
            records=self.RECORDS,
            policy=FailoverPolicy(
                deadline=1.0,
                attempt_timeout=0.02,
                evict_after=2,
                probation_after=0.05,
                seed=data_seed,
            ),
        )
        for (shard_id, replica_id), spec in zip(
            itertools.product(range(2), range(2)), schedules
        ):
            if spec is not None:
                cluster.inject_chaos(shard_id, replica_id, spec)
        service = FaultTolerantService(
            cluster, max_batch_size=8, max_delay=0.0
        )

        async def run():
            async with service:
                return await asyncio.gather(
                    *(service.lookup(key) for key in keys),
                    return_exceptions=True,
                )

        # An overall timeout proves no future is lost/hung.
        outcomes = asyncio.run(asyncio.wait_for(run(), 30.0))
        assert len(outcomes) == len(keys)
        for key, outcome in zip(keys, outcomes):
            if isinstance(outcome, Exception):
                assert isinstance(outcome, CaRamError)
                continue
            hit, data = self.EXPECTED[key]
            assert outcome.hit == hit and outcome.data == data
