"""Rollup tree: commutative merge, derived ratios, shard children."""

import itertools
import json

import pytest

from repro.errors import ConfigurationError
from repro.telemetry.histogram import LatencyHistogram
from repro.telemetry.rollup import (
    RollupNode,
    build_rollup,
    flatten_rollup,
    merge_blocks,
    rollup_from_dict,
)


def search_block(lookups, hits, accesses, histogram):
    return {
        "lookups": lookups,
        "hits": hits,
        "total_bucket_accesses": accesses,
        "hit_rate": hits / lookups,
        "amal": accesses / lookups,
        "access_histogram": histogram,
    }


class TestMergeBlocks:
    def test_integers_sum_exactly(self):
        merged = merge_blocks([{"reads": 3}, {"reads": 4}, {"reads": 5}])
        assert merged == {"reads": 12}
        assert isinstance(merged["reads"], int)

    def test_derived_ratios_recomputed_not_summed(self):
        a = search_block(100, 90, 110, {"1": 90, "2": 10})
        b = search_block(300, 30, 600, {"1": 100, "2": 200})
        merged = merge_blocks([a, b])
        assert merged["lookups"] == 400
        assert merged["hits"] == 120
        # 0.9 + 0.1 = 1.0 would be the (wrong) summed value.
        assert merged["hit_rate"] == pytest.approx(120 / 400)
        assert merged["amal"] == pytest.approx(710 / 400)
        assert merged["access_histogram"] == {"1": 190, "2": 210}

    def test_ratio_dropped_when_base_missing(self):
        merged = merge_blocks([{"hit_rate": 0.5}, {"hit_rate": 0.7}])
        assert "hit_rate" not in merged

    def test_zero_denominator_ratio_is_zero(self):
        merged = merge_blocks(
            [
                {"lookups": 0, "hits": 0, "hit_rate": 0.0},
                {"lookups": 0, "hits": 0, "hit_rate": 0.0},
            ]
        )
        assert merged["hit_rate"] == 0.0

    def test_sketches_merge_exactly(self):
        a = LatencyHistogram()
        a.observe_many([0.001, 0.002])
        b = LatencyHistogram()
        b.observe(0.004)
        merged = merge_blocks(
            [{"latency": a.as_dict()}, {"latency": b.as_dict()}]
        )
        assert merged["latency"]["count"] == 3

    def test_strings_kept_only_when_unanimous(self):
        merged = merge_blocks(
            [
                {"arrangement": "wide", "mode": "cam"},
                {"arrangement": "wide", "mode": "ram"},
            ]
        )
        assert merged["arrangement"] == "wide"
        assert "mode" not in merged

    def test_merge_is_commutative_over_permutations(self):
        blocks = [
            search_block(10, 5, 12, {"1": 9, "2": 1}),
            search_block(30, 12, 45, {"1": 20, "3": 10}),
            {"lookups": 7, "hits": 7, "reads": 2},
        ]
        reference = merge_blocks(blocks)
        for permutation in itertools.permutations(blocks):
            assert merge_blocks(list(permutation)) == reference

    def test_empty_and_singleton(self):
        assert merge_blocks([]) == {}
        assert merge_blocks([{"a": 1}]) == {"a": 1}


class TestRollupTree:
    def make_tree(self, order):
        root = RollupNode("subsystem")
        mounts = {
            "ip.slice0.search": search_block(100, 80, 120, {"1": 80, "2": 20}),
            "ip.slice1.search": search_block(100, 60, 150, {"1": 50, "2": 50}),
            "routes.slice0.search": search_block(50, 50, 50, {"1": 50}),
        }
        for key in order:
            root.mount(key, mounts[key])
        return root

    def test_mount_order_never_changes_aggregate(self):
        keys = [
            "ip.slice0.search",
            "ip.slice1.search",
            "routes.slice0.search",
        ]
        reference = self.make_tree(keys).aggregate()
        for permutation in itertools.permutations(keys):
            assert self.make_tree(permutation).aggregate() == reference

    def test_interior_node_aggregates_subtree_only(self):
        tree = self.make_tree(
            ["ip.slice0.search", "ip.slice1.search", "routes.slice0.search"]
        )
        ip = tree.children["ip"].aggregate()["search"]
        assert ip["lookups"] == 200
        assert ip["hit_rate"] == pytest.approx(140 / 200)
        total = tree.aggregate()["search"]
        assert total["lookups"] == 250
        assert total["amal"] == pytest.approx(320 / 250)

    def test_empty_mount_path_rejected(self):
        with pytest.raises(ConfigurationError):
            RollupNode().mount("", {"a": 1})

    def test_round_trip_through_json(self):
        tree = self.make_tree(["ip.slice0.search", "ip.slice1.search"])
        data = json.loads(json.dumps(tree.as_dict()))
        back = rollup_from_dict(data, "subsystem")
        assert back.aggregate() == tree.aggregate()
        assert back.flatten() == tree.flatten()

    def test_flatten_rollup_exposes_aggregates(self):
        tree = self.make_tree(["ip.slice0.search", "ip.slice1.search"])
        flat = flatten_rollup(tree)
        assert flat["ip.slice0.search.lookups"] == 100
        assert flat["aggregate.search.lookups"] == 200
        assert flat["aggregate.search.hit_rate"] == pytest.approx(0.7)


class TestSnapshotIntegration:
    def test_build_rollup_from_workload_snapshot(self):
        from repro.telemetry.workload import run_synthetic_workload

        report = run_synthetic_workload(queries=2000, track_latency=True)
        tree = build_rollup(report["metrics"])
        aggregate = tree.aggregate()
        slice_search = tree.children["slice"].aggregate()["search"]
        assert slice_search["lookups"] > 0
        assert "latency" in slice_search
        assert aggregate["search"]["lookups"] == slice_search["lookups"]
        # The tracer accounting block participates in the same tree
        # (single-segment mount path -> a root-level block).
        assert "dropped_events" in tree.blocks["tracer"]
