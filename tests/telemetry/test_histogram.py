"""LatencyHistogram: relative-error bound, exact merge, JSON round-trip."""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.telemetry.histogram import (
    DEFAULT_RELATIVE_ERROR,
    EXPORTED_QUANTILES,
    LatencyHistogram,
    is_sketch_dict,
)


def exact_quantile(values, q):
    """The rank-based quantile the sketch approximates: the
    ``max(1, ceil(q * n))``-th smallest observation."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


latencies = st.floats(
    min_value=1e-9, max_value=1e3, allow_nan=False, allow_infinity=False
)


class TestRecording:
    def test_empty_sketch(self):
        hist = LatencyHistogram()
        assert hist.count == 0
        assert hist.mean == 0.0
        assert hist.percentile(0.99) == 0.0

    def test_counts_and_mean(self):
        hist = LatencyHistogram()
        hist.observe_many([0.001, 0.002, 0.003])
        assert hist.count == 3
        assert hist.mean == pytest.approx(0.002)
        assert hist.min == pytest.approx(0.001)
        assert hist.max == pytest.approx(0.003)

    def test_zero_and_negative_go_to_zero_bucket(self):
        hist = LatencyHistogram()
        hist.observe(0.0)
        hist.observe(-1.0)
        hist.observe(0.5)
        assert hist.zero_count == 2
        assert hist.count == 3
        assert hist.percentile(0.0) == 0.0
        assert hist.percentile(1.0) == pytest.approx(0.5, rel=0.02)

    def test_invalid_relative_error_rejected(self):
        for bad in (0.0, 1.0, -0.1, 2.0):
            with pytest.raises(ConfigurationError):
                LatencyHistogram(bad)

    def test_invalid_quantile_rejected(self):
        hist = LatencyHistogram()
        with pytest.raises(ConfigurationError):
            hist.percentile(1.5)


class TestRelativeErrorBound:
    @settings(max_examples=60, deadline=None)
    @given(
        values=st.lists(latencies, min_size=1, max_size=300),
        q=st.floats(min_value=0.0, max_value=1.0),
        error=st.sampled_from([0.005, 0.01, 0.05]),
    )
    def test_percentile_within_configured_relative_error(
        self, values, q, error
    ):
        hist = LatencyHistogram(error)
        hist.observe_many(values)
        estimate = hist.percentile(q)
        exact = exact_quantile(values, q)
        assert abs(estimate - exact) <= error * exact * (1 + 1e-9), (
            estimate,
            exact,
        )

    def test_default_error_is_one_percent(self):
        assert DEFAULT_RELATIVE_ERROR == 0.01
        hist = LatencyHistogram()
        hist.observe_many(i / 1000.0 for i in range(1, 1001))
        for q in (0.5, 0.9, 0.99, 0.999):
            exact = exact_quantile([i / 1000.0 for i in range(1, 1001)], q)
            assert abs(hist.percentile(q) - exact) <= 0.01 * exact


class TestMerge:
    @settings(max_examples=40, deadline=None)
    @given(
        chunks=st.lists(
            st.lists(latencies, min_size=1, max_size=60),
            min_size=2,
            max_size=5,
        ),
        q=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_merge_is_order_independent(self, chunks, q):
        sketches = []
        for chunk in chunks:
            hist = LatencyHistogram()
            hist.observe_many(chunk)
            sketches.append(hist)

        forward = LatencyHistogram()
        for sketch in sketches:
            forward.merge(sketch)
        backward = LatencyHistogram()
        for sketch in reversed(sketches):
            backward.merge(sketch)

        assert forward.counts == backward.counts
        assert forward.zero_count == backward.zero_count
        assert forward.percentile(q) == backward.percentile(q)

    def test_merge_equals_single_sketch(self):
        values_a = [0.001 * i for i in range(1, 50)]
        values_b = [0.01 * i for i in range(1, 50)]
        merged = LatencyHistogram()
        part_a = LatencyHistogram()
        part_a.observe_many(values_a)
        part_b = LatencyHistogram()
        part_b.observe_many(values_b)
        merged.merge(part_a).merge(part_b)

        single = LatencyHistogram()
        single.observe_many(values_a + values_b)
        assert merged.counts == single.counts
        assert merged.count == single.count
        for q in (0.5, 0.9, 0.99):
            assert merged.percentile(q) == single.percentile(q)

    def test_merge_rejects_mismatched_error(self):
        with pytest.raises(ConfigurationError):
            LatencyHistogram(0.01).merge(LatencyHistogram(0.05))

    def test_copy_is_independent(self):
        hist = LatencyHistogram()
        hist.observe(0.5)
        dup = hist.copy()
        dup.observe(0.25)
        assert hist.count == 1
        assert dup.count == 2


class TestSerialization:
    def test_json_round_trip(self):
        hist = LatencyHistogram()
        hist.observe_many([0.0, 0.001, 0.002, 0.1, 3.0])
        data = json.loads(json.dumps(hist.as_dict()))
        back = LatencyHistogram.from_dict(data)
        assert back.counts == hist.counts
        assert back.zero_count == hist.zero_count
        assert back.count == hist.count
        assert back.total == pytest.approx(hist.total)
        for q, _name in EXPORTED_QUANTILES:
            assert back.percentile(q) == hist.percentile(q)

    def test_as_dict_exports_percentile_leaves(self):
        hist = LatencyHistogram()
        hist.observe_many(i / 100.0 for i in range(1, 101))
        data = hist.as_dict()
        assert is_sketch_dict(data)
        for _q, name in EXPORTED_QUANTILES:
            assert name in data
        assert data["p50"] <= data["p99"] <= data["p999"]

    def test_archived_sketches_merge_through_from_dict(self):
        part_a = LatencyHistogram()
        part_a.observe_many([0.001, 0.002])
        part_b = LatencyHistogram()
        part_b.observe_many([0.003])
        archived = json.loads(json.dumps([part_a.as_dict(), part_b.as_dict()]))
        merged = LatencyHistogram.from_dict(archived[0]).merge(
            LatencyHistogram.from_dict(archived[1])
        )
        assert merged.as_dict() == part_a.copy().merge(part_b).as_dict()
        assert merged.count == 3

    def test_is_sketch_dict_rejects_plain_dicts(self):
        assert not is_sketch_dict({"count": 3})
        assert not is_sketch_dict(42)


class TestStatsIntegration:
    def test_search_stats_latency_merges(self):
        from repro.core.stats import SearchStats

        left = SearchStats()
        left.enable_latency_tracking()
        left.latency.observe_many([0.001, 0.002])
        right = SearchStats()
        right.enable_latency_tracking()
        right.latency.observe(0.003)
        left.merge(right)
        assert left.latency.count == 3
        assert "latency" in left.as_dict()

    def test_search_stats_reset_clears_latency(self):
        from repro.core.stats import SearchStats

        stats = SearchStats()
        stats.enable_latency_tracking()
        stats.latency.observe(0.001)
        stats.reset()
        assert stats.latency.count == 0

    def test_batch_engine_records_chunk_latency(self):
        from repro.telemetry.workload import (
            build_workload_slice,
            make_keys,
            make_queries,
        )

        slice_ = build_workload_slice(6, 8)
        stored = make_keys(slice_, 0.6, 3)
        slice_.bulk_load([(key, key & 0xFFFF) for key in stored])
        slice_.enable_latency_tracking()
        slice_.search_batch(make_queries(stored, 2000, 0.5, 4))
        latency = slice_.stats.latency
        assert latency is not None
        assert latency.count >= 1
        assert latency.percentile(0.99) > 0.0
        slice_.disable_latency_tracking()
        assert slice_.stats.latency is None
