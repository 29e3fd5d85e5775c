"""Tests for the coalescing async front end.

The load-bearing property: any interleaving of concurrent single-key
lookups returns results bit-identical to one direct ``search_batch`` over
the same keys, with identical summed per-key search stats — batching is
an invisible optimization, never a semantic change.
"""

import asyncio
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import (
    ConfigurationError,
    KeyFormatError,
    ServiceOverloadError,
)
from repro.serving.cluster import CaramCluster
from repro.serving.replication import FailoverPolicy
from repro.serving.service import ShardedService
from repro.utils.rng import make_rng

KEY_BITS = 16


def make_records(count=120, seed=11):
    rng = make_rng(seed)
    keys = rng.choice(1 << KEY_BITS, size=count, replace=False)
    return [(int(key), int(key) & 0xFF) for key in keys]


def build_cluster(shard_count=2, records=None, replication=1, policy=None):
    cluster = CaramCluster.build(
        shard_count=shard_count,
        index_bits=5,
        slots=8,
        key_bits=KEY_BITS,
        replication=replication,
        policy=policy,
    )
    cluster.load(make_records() if records is None else records)
    return cluster


def make_service(
    shard_count=2, records=None, replication=1, policy=None, **kwargs
):
    kwargs.setdefault("offload", False)
    return ShardedService(
        build_cluster(shard_count, records, replication, policy), **kwargs
    )


class TestValidation:
    def test_bad_knobs_rejected(self):
        cluster = build_cluster()
        with pytest.raises(ConfigurationError):
            ShardedService(cluster, max_batch_size=0)
        with pytest.raises(ConfigurationError):
            ShardedService(cluster, max_delay=-1.0)
        with pytest.raises(ConfigurationError):
            ShardedService(cluster, max_pending=0)
        cluster.close()

    def test_cross_loop_reuse_rejected(self):
        service = make_service()
        records = make_records()

        async def one_lookup():
            return await service.lookup(records[0][0])

        asyncio.run(one_lookup())
        with pytest.raises(ConfigurationError):
            asyncio.run(one_lookup())
        asyncio.run(asyncio.sleep(0))  # silence unfinished-task warnings


class TestCoalescing:
    def test_flush_on_size(self):
        """With an effectively infinite window, the batch flushes the
        moment it fills — max_batch_size concurrent requests, one batch."""
        records = make_records()
        service = make_service(
            shard_count=1,
            records=records,
            max_batch_size=4,
            max_delay=60.0,
        )

        async def run():
            async with service:
                keys = [key for key, _ in records[:4]]
                results = await asyncio.gather(
                    *(service.lookup(key) for key in keys)
                )
                assert [r.data for r in results] == [
                    data for _, data in records[:4]
                ]

        asyncio.run(run())
        assert service.stats.batches == 1
        assert service.stats.max_batch_observed == 4
        assert service.stats.coalescing_factor == 4.0

    def test_flush_on_deadline(self):
        """A partial batch flushes once the oldest request's window
        expires, without waiting to fill."""
        records = make_records()
        service = make_service(
            shard_count=1,
            records=records,
            max_batch_size=100,
            max_delay=0.02,
        )

        async def run():
            async with service:
                keys = [key for key, _ in records[:3]]
                results = await asyncio.gather(
                    *(service.lookup(key) for key in keys)
                )
                assert all(r.hit for r in results)

        asyncio.run(run())
        assert service.stats.batches == 1
        assert service.stats.coalesced_keys == 3

    def test_oversize_burst_splits_into_batches(self):
        records = make_records()
        service = make_service(
            shard_count=1,
            records=records,
            max_batch_size=8,
            max_delay=0.005,
        )

        async def run():
            async with service:
                keys = [key for key, _ in records[:20]]
                await asyncio.gather(
                    *(service.lookup(key) for key in keys)
                )

        asyncio.run(run())
        assert service.stats.batches >= 3  # ceil(20 / 8)
        assert service.stats.max_batch_observed <= 8
        assert service.stats.coalesced_keys == 20


class TestAdmissionControl:
    def test_shed_on_overload(self):
        """Requests beyond max_pending shed with a typed error naming the
        shard; admitted ones still get correct answers."""
        records = make_records()
        service = make_service(
            shard_count=1,
            records=records,
            max_batch_size=100,
            max_delay=0.02,
            max_pending=2,
        )

        async def run():
            async with service:
                keys = [key for key, _ in records[:5]]
                return await asyncio.gather(
                    *(service.lookup(key) for key in keys),
                    return_exceptions=True,
                )

        outcomes = asyncio.run(run())
        shed = [
            o for o in outcomes if isinstance(o, ServiceOverloadError)
        ]
        answered = [o for o in outcomes if not isinstance(o, Exception)]
        assert len(shed) == 3 and len(answered) == 2
        assert all(error.shard_id == 0 for error in shed)
        assert all(r.hit for r in answered)
        assert service.stats.shed == 3
        assert service.stats.completed == 2
        assert service.stats.requests == 5

    @pytest.mark.parametrize("replication", [1, 2])
    def test_malformed_key_rejected_at_admission(self, replication):
        """A key or mask the shards cannot hold fails alone, before it is
        queued: the lookups coalesced around it still answer, and no
        replica is charged for it."""
        cluster = CaramCluster.build(1, replication=replication)
        cluster.load([(key, key & 0xFFFF) for key in range(1, 3000, 7)])
        service = ShardedService(cluster)

        async def run():
            async with service:
                first = await asyncio.gather(
                    service.lookup(8),
                    service.lookup(15),
                    service.lookup(1 << 40),
                    service.lookup(22),
                    service.lookup(29, search_mask=1 << 40),
                    return_exceptions=True,
                )
                for _ in range(4):
                    with pytest.raises(KeyFormatError):
                        await service.lookup(1 << 40)
                return first, await service.lookup(8)

        first, after = asyncio.run(run())
        assert [r.data for r in (first[0], first[1], first[3])] == [8, 15, 22]
        assert isinstance(first[2], KeyFormatError)
        assert isinstance(first[4], KeyFormatError)
        assert after.data == 8
        assert service.stats.requests == service.stats.completed == 4
        for replica in cluster.shards[0].replicas:
            assert replica.state == "active" and replica.errors == 0

    def test_draining_service_rejects(self):
        records = make_records()
        service = make_service(records=records)

        async def run():
            async with service:
                await service.lookup(records[0][0])
                await service.drain()
                with pytest.raises(ServiceOverloadError):
                    await service.lookup(records[0][0])

        asyncio.run(run())
        assert service.stats.drains >= 1

    def test_drain_answers_everything_admitted(self):
        records = make_records()
        service = make_service(
            shard_count=1,
            records=records,
            max_batch_size=100,
            max_delay=60.0,  # only the drain can flush these
        )

        async def run():
            async with service:
                keys = [key for key, _ in records[:6]]
                tasks = [
                    asyncio.ensure_future(service.lookup(key))
                    for key in keys
                ]
                await asyncio.sleep(0)  # let them enqueue
                await service.drain()
                results = await asyncio.gather(*tasks)
                assert [r.data for r in results] == [
                    data for _, data in records[:6]
                ]

        asyncio.run(run())


    def test_drain_waits_without_spinning(self):
        """With a slow batch in flight on the executor, ``drain()``
        sleeps until the lane goes idle instead of polling the loop."""
        records = make_records()
        service = make_service(
            shard_count=1,
            records=records,
            policy=FailoverPolicy(deadline=2.0),
            max_delay=0.0,
            offload=True,
        )
        shard = service.cluster.shards[0]
        fast = shard.search_batch_columnar

        def slow(keys, search_mask=0, replica=None):
            time.sleep(0.3)
            return fast(keys, search_mask, replica)

        shard.search_batch_columnar = slow
        lane = service._lanes[0]

        async def run():
            async with service:
                task = asyncio.ensure_future(service.lookup(records[0][0]))
                for _ in range(1000):
                    if lane.busy:
                        break
                    await asyncio.sleep(0.001)
                assert lane.busy
                cpu, wall = time.process_time(), time.perf_counter()
                await asyncio.wait_for(service.drain(), timeout=5.0)
                cpu = time.process_time() - cpu
                wall = time.perf_counter() - wall
                assert (await task).data == records[0][1]
                return cpu, wall

        cpu, wall = asyncio.run(run())
        assert wall >= 0.2
        assert cpu < 0.5 * wall, (cpu, wall)


class TestLifecycle:
    def test_aclose_closes_cluster(self):
        records = make_records()
        service = make_service(records=records)
        closed = []
        original_close = service.cluster.close
        service.cluster.close = lambda: (closed.append(True), original_close())

        async def run():
            await service.lookup(records[0][0])
            await service.aclose()
            await service.aclose()  # idempotent

        asyncio.run(run())
        assert closed == [True]
        assert all(
            shard.group._batch_engine is None
            for shard in service.cluster.shards
        )


class TestAcloseHardening:
    """aclose is idempotent, concurrent-safe, and never strands futures."""

    def test_concurrent_aclose_runs_teardown_once(self):
        records = make_records()
        service = make_service(records=records)
        closed = []
        original_close = service.cluster.close
        service.cluster.close = lambda: (
            closed.append(True),
            original_close(),
        )

        async def run():
            await service.lookup(records[0][0])
            await asyncio.gather(*(service.aclose() for _ in range(5)))
            await service.aclose()  # and again after completion

        asyncio.run(run())
        assert closed == [True]

    def test_aclose_concurrent_with_inflight_lookups_resolves_all(self):
        """Lookups admitted before/while aclose runs either get their
        answer or a typed error — never a hang."""
        records = make_records()
        service = make_service(
            shard_count=1,
            records=records,
            max_batch_size=100,
            max_delay=60.0,  # only drain/close can flush
        )

        async def run():
            tasks = [
                asyncio.ensure_future(service.lookup(key))
                for key, _ in records[:8]
            ]
            await asyncio.sleep(0)  # let them enqueue
            closers = [
                asyncio.ensure_future(service.aclose()) for _ in range(3)
            ]
            outcomes = await asyncio.wait_for(
                asyncio.gather(*tasks, return_exceptions=True), 10.0
            )
            await asyncio.gather(*closers)
            return outcomes

        outcomes = asyncio.run(run())
        assert len(outcomes) == 8
        for outcome in outcomes:
            if isinstance(outcome, Exception):
                assert isinstance(outcome, ServiceOverloadError)
            else:
                assert outcome.hit

    def test_dead_lane_rejects_typed_and_fails_pending(self):
        """A lane whose worker died fails its queue with a typed error
        and rejects new arrivals instead of queueing them forever."""
        records = make_records()
        service = make_service(
            shard_count=1,
            records=records,
            max_batch_size=100,
            max_delay=60.0,
        )

        async def run():
            task = asyncio.ensure_future(service.lookup(records[0][0]))
            await asyncio.sleep(0.01)  # let the lane worker start waiting
            lane = service._lanes[0]
            lane.task.cancel()
            with pytest.raises(asyncio.CancelledError):
                await lane.task
            # The queued request resolved to a typed error...
            with pytest.raises(ServiceOverloadError):
                await asyncio.wait_for(task, 5.0)
            # ...and new arrivals are rejected loudly.
            with pytest.raises(ServiceOverloadError):
                await service.lookup(records[1][0])

        asyncio.run(run())
        asyncio.run(service.aclose())


class TestParityProperty:
    """Hypothesis: concurrent coalesced lookups == one direct batch."""

    RECORDS = make_records(count=150, seed=23)
    STORED = [key for key, _ in RECORDS]

    @pytest.mark.parametrize("offload", [False, True])
    @pytest.mark.parametrize("replication", [1, 2])
    @settings(deadline=None, max_examples=20)
    @given(
        picks=st.lists(
            st.tuples(st.integers(0, 149), st.booleans()),
            min_size=1,
            max_size=40,
        ),
        max_batch_size=st.integers(1, 16),
        max_delay_ms=st.sampled_from([0.0, 0.5]),
    )
    def test_any_interleaving_matches_direct_batch(
        self, replication, offload, picks, max_batch_size, max_delay_ms
    ):
        # Mix of stored keys and near-misses (key+1 is usually absent).
        keys = [
            self.STORED[i] if hit else (self.STORED[i] + 1) & 0xFFFF
            for i, hit in picks
        ]
        service = make_service(
            records=self.RECORDS,
            replication=replication,
            max_batch_size=max_batch_size,
            max_delay=max_delay_ms / 1000.0,
            offload=offload,
        )
        reference = build_cluster(
            records=self.RECORDS, replication=replication
        )

        async def run():
            async with service:
                return await asyncio.gather(
                    *(service.lookup(key) for key in keys)
                )

        coalesced = asyncio.run(run())
        direct = reference.search_batch(keys)
        assert coalesced == direct
        # Per-key stats sum identically regardless of batch boundaries.
        assert service.cluster.total_stats() == reference.total_stats()
        reference.close()
