"""MetricsRegistry: providers and snapshots."""

import json

import pytest

from repro.core.stats import SearchStats
from repro.errors import ConfigurationError
from repro.telemetry.metrics import MetricsRegistry


class TestRegistry:
    def test_provider_object_with_as_dict(self):
        registry = MetricsRegistry()
        stats = SearchStats()
        registry.register_provider("slice.search", stats)
        stats.record_lookup(2, hit=True)
        snap = registry.snapshot()
        assert snap["stats"]["slice.search"]["lookups"] == 1
        assert snap["stats"]["slice.search"]["amal"] == 2.0

    def test_provider_callable(self):
        registry = MetricsRegistry()
        registry.register_provider("occ", lambda: {"load_factor": 0.5})
        assert registry.snapshot()["stats"]["occ"] == {"load_factor": 0.5}

    def test_provider_reread_each_snapshot(self):
        registry = MetricsRegistry()
        stats = SearchStats()
        registry.register_provider("s", stats)
        first = registry.snapshot()["stats"]["s"]["lookups"]
        stats.record_lookup(1, hit=False)
        second = registry.snapshot()["stats"]["s"]["lookups"]
        assert (first, second) == (0, 1)

    def test_duplicate_provider_prefix_rejected(self):
        registry = MetricsRegistry()
        registry.register_provider("p", lambda: {})
        with pytest.raises(ConfigurationError):
            registry.register_provider("p", lambda: {})

    def test_invalid_provider_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ConfigurationError):
            registry.register_provider("bad", object())

    def test_snapshot_is_json_serializable(self):
        registry = MetricsRegistry()
        stats = SearchStats()
        stats.enable_latency_tracking()
        stats.record_lookup(1, hit=True)
        stats.latency.observe(0.002)
        registry.register_provider("s", stats)
        snapshot = registry.snapshot()
        assert json.loads(json.dumps(snapshot)) == snapshot
        assert list(snapshot) == ["stats"]


class TestBulkPlanProvider:
    def test_slice_mounts_planner_totals_after_bulk_load(self):
        from repro.telemetry.workload import build_workload_slice, make_keys

        slice_ = build_workload_slice(index_bits=6, slots=8)
        registry = MetricsRegistry()
        slice_.register_telemetry(registry)
        assert registry.snapshot()["stats"]["slice.bulk"] == {}
        assert slice_.last_bulk_plan is None

        keys = make_keys(slice_, load_factor=0.6, seed=5)
        slice_.bulk_load([(k, i) for i, k in enumerate(keys)])
        plan = registry.snapshot()["stats"]["slice.bulk"]
        assert plan["record_count"] == len(keys)
        assert plan["copy_count"] == len(keys)
        assert plan["spill_rate"] == pytest.approx(
            plan["spilled_copies"] / plan["copy_count"]
        )
        assert slice_.last_bulk_plan.as_dict() == plan

    def test_merged_totals_add_counts_and_take_maxima(self):
        from repro.core.bulk import BulkTotals

        plans = [
            BulkTotals(
                record_count=10,
                copy_count=12,
                spilled_copies=3,
                max_displacement=2,
                max_reach=1,
            ),
            BulkTotals(
                record_count=30,
                copy_count=28,
                spilled_copies=1,
                max_displacement=5,
                max_reach=0,
            ),
        ]
        merged = BulkTotals.merged(plans)
        assert merged == BulkTotals(
            record_count=40,
            copy_count=40,
            spilled_copies=4,
            max_displacement=5,
            max_reach=1,
        )
        # The ratio comes from the sums, not from adding 0.25 and 1/28.
        assert merged.spill_rate == pytest.approx(4 / 40)
        assert BulkTotals.merged(plans[:1]) == plans[0]
