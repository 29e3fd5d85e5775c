"""Tests for shard assembly: loading, parity, telemetry, lifecycle."""

import pytest

from repro.core.key import TernaryKey
from repro.errors import ConfigurationError
from repro.serving.cluster import CaramCluster, CaramShard
from repro.serving.router import ConsistentHashRouter, PrefixRangeRouter
from repro.telemetry.metrics import MetricsRegistry
from repro.utils.rng import make_rng


def make_records(count=400, seed=3, key_bits=22):
    rng = make_rng(seed)
    keys = rng.choice(1 << key_bits, size=count, replace=False)
    return [(int(key), int(key) & 0xFFFF) for key in keys]


def build_loaded(shard_count=3, records=None):
    cluster = CaramCluster.build(
        shard_count=shard_count, index_bits=6, slots=8
    )
    records = make_records() if records is None else records
    cluster.load(records)
    return cluster, records


class TestConstruction:
    def test_needs_shards(self):
        with pytest.raises(ConfigurationError):
            CaramCluster([], ConsistentHashRouter(1))

    def test_router_shard_count_must_match(self):
        cluster, _ = build_loaded(shard_count=2)
        with pytest.raises(ConfigurationError):
            CaramCluster(cluster.shards, ConsistentHashRouter(3))
        cluster.close()

    def test_build_shapes(self):
        cluster, _ = build_loaded(shard_count=3)
        with cluster:
            assert len(cluster) == 3
            assert all(
                isinstance(shard, CaramShard) for shard in cluster.shards
            )


class TestLookup:
    def test_every_stored_key_found(self):
        cluster, records = build_loaded()
        with cluster:
            assert cluster.record_count == len(records)
            for key, data in records[:100]:
                result = cluster.search(key)
                assert result.hit and result.data == data
                assert cluster.lookup(key) == data

    def test_batch_matches_scalar(self):
        cluster, records = build_loaded()
        with cluster:
            keys = [key for key, _ in records[:150]] + [1, 2, 3]
            batch = cluster.search_batch(keys)
            scalar = [cluster.search(key) for key in keys]
            assert batch == scalar

    def test_total_stats_sums_shards(self):
        cluster, records = build_loaded()
        with cluster:
            cluster.search_batch([key for key, _ in records[:50]])
            total = cluster.total_stats()
            assert total.lookups == sum(
                shard.stats.lookups for shard in cluster.shards
            )
            assert total.lookups >= 50


class TestPrefixCluster:
    def test_lpm_prefix_reachable_from_any_covered_address(self):
        key_bits = 8
        router = PrefixRangeRouter(4, key_bits=key_bits)
        cluster = CaramCluster.build(
            shard_count=4,
            index_bits=4,
            slots=8,
            router=router,
            key_bits=key_bits,
            data_bits=8,
            ternary=True,
        )
        with cluster:
            # A /1 prefix spans half the address space => two shards.
            prefix = TernaryKey(value=0x00, mask=0x7F, width=key_bits)
            assert len(router.shards_for_stored(prefix)) == 2
            cluster.load([(prefix, 42)])
            # One copy per covered range (each may expand further across
            # the hash buckets its don't-care bits can index).
            for shard_id in router.shards_for_stored(prefix):
                assert cluster.shards[shard_id].group.record_count > 0
            for address in (0x00, 0x3F, 0x7F):
                result = cluster.search(address)
                assert result.hit and result.data == 42
            assert not cluster.search(0x80).hit


class TestTelemetry:
    def test_shard_and_cluster_mounts(self):
        cluster, records = build_loaded(shard_count=2)
        with cluster:
            keys = [key for key, _ in records[:80]]
            cluster.search_batch(keys)
            registry = MetricsRegistry()
            cluster.register_telemetry(registry)
            stats = registry.snapshot()["stats"]
            assert stats["serving.shard0.replica0.search"]["lookups"] > 0
            merged = stats["serving.cluster.search"]
            assert merged["lookups"] == sum(
                shard.stats.lookups for shard in cluster.shards
            )
            occupancy = stats["serving.cluster.occupancy"]
            assert occupancy["record_count"] == len(records)
            topology = stats["serving.cluster.topology"]
            assert topology["shard_count"] == 2
            assert topology["router"] == "ConsistentHashRouter"

    def test_stored_state_counted_once_per_shard(self):
        cluster = CaramCluster.build(
            shard_count=2, index_bits=6, slots=8, replication=2
        )
        records = make_records(count=600)
        with cluster:
            cluster.load(records)
            cluster.search_batch([key for key, _ in records[:50]])
            registry = MetricsRegistry()
            cluster.register_telemetry(registry)
            stats = registry.snapshot()["stats"]
            primaries = [shard.group for shard in cluster.shards]
            groups = [
                replica.group
                for shard in cluster.shards
                for replica in shard.replicas
            ]
            occupancy = stats["serving.cluster.occupancy"]
            assert occupancy["record_count"] == cluster.record_count == 600
            assert occupancy["capacity_records"] == sum(
                group.capacity_records for group in primaries
            )
            assert occupancy["load_factor"] == pytest.approx(
                600 / occupancy["capacity_records"]
            )
            # Activity still adds over every replica.
            assert occupancy["physical_row_fetches"] == sum(
                group.physical_row_fetches for group in groups
            )
            assert stats["serving.cluster.search"]["lookups"] == sum(
                group.stats.lookups for group in groups
            )
            plans = [group.last_bulk_plan for group in primaries]
            bulk = stats["serving.cluster.bulk"]
            assert bulk["record_count"] == 600
            assert bulk["max_displacement"] == max(
                plan.max_displacement for plan in plans
            )
            assert bulk["max_reach"] == max(
                plan.as_dict()["max_reach"] for plan in plans
            )

    def test_cluster_ratios_recomputed_not_summed(self):
        cluster, records = build_loaded(shard_count=2)
        with cluster:
            cluster.search_batch([key for key, _ in records])
            registry = MetricsRegistry()
            cluster.register_telemetry(registry)
            merged = registry.snapshot()["stats"]["serving.cluster.search"]
            # All stored keys hit: the merged hit rate must be the ratio
            # of summed hits to summed lookups, not a sum of two 1.0s.
            assert merged["hit_rate"] == pytest.approx(1.0)


class TestLifecycle:
    def test_close_releases_every_group_engine(self):
        cluster, records = build_loaded(shard_count=2)
        cluster.search_batch([key for key, _ in records[:20]])
        groups = [shard.group for shard in cluster.shards]
        assert any(group._batch_engine is not None for group in groups)
        cluster.close()
        assert all(group._batch_engine is None for group in groups)

    def test_close_idempotent_and_reusable(self):
        cluster, records = build_loaded(shard_count=2)
        cluster.close()
        cluster.close()
        # A closed cluster lazily rebuilds engines on the next lookup.
        key, data = records[0]
        assert cluster.search(key).data == data
        cluster.close()
