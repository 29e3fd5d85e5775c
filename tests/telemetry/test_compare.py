"""compare_telemetry: flattening, direction-aware classification, CLI.

The acceptance contract pinned here: an injected 2x AMAL regression in a
snapshot fixture is flagged as a regression (and fails the CLI).
"""

import json

import pytest

from repro.telemetry.compare import (
    IncomparableRunsError,
    compare_telemetry,
    flatten_numeric,
    is_goodness_metric,
    load_snapshot,
    main as compare_main,
)


def make_snapshot(amal=1.05, keys_per_sec=250_000.0, spills=40):
    """A miniature registry-style snapshot fixture."""
    return {
        "stats": {
            "slice.search": {
                "lookups": 10_000,
                "amal": amal,
                "hit_rate": 0.5,
                "access_histogram": {"1": 9_500, "2": 500},
            },
        },
        "throughput": {"batch_keys_per_sec": keys_per_sec},
        "spills": spills,
        "mode": "full",        # strings are not metrics
        "ok": True,            # booleans are not metrics
    }


class TestFlatten:
    def test_flattens_numeric_leaves_only(self):
        flat = flatten_numeric(make_snapshot())
        assert flat["stats.slice.search.amal"] == 1.05
        assert flat["stats.slice.search.access_histogram.2"] == 500.0
        assert flat["throughput.batch_keys_per_sec"] == 250_000.0
        assert "mode" not in flat
        assert "ok" not in flat

    def test_goodness_suffixes(self):
        assert is_goodness_metric("a.batch_keys_per_sec")
        assert is_goodness_metric("b.speedup")
        assert is_goodness_metric("c.hit_rate")
        assert not is_goodness_metric("stats.amal")
        assert not is_goodness_metric("phases.bulk.plan.seconds")


class TestClassification:
    def test_cost_increase_is_regression(self):
        report = compare_telemetry(
            {"amal": 1.0}, {"amal": 1.2}, threshold=0.05
        )
        assert not report.ok
        assert report.regressions[0].path == "amal"
        assert report.regressions[0].change == pytest.approx(0.2)

    def test_goodness_decrease_is_regression(self):
        report = compare_telemetry(
            {"keys_per_sec": 100.0}, {"keys_per_sec": 80.0}
        )
        assert not report.ok
        assert report.regressions[0].regression

    def test_goodness_increase_is_improvement(self):
        report = compare_telemetry(
            {"keys_per_sec": 100.0}, {"keys_per_sec": 150.0}
        )
        assert report.ok
        assert report.improvements[0].path == "keys_per_sec"

    def test_within_threshold_is_unchanged(self):
        report = compare_telemetry(
            {"amal": 1.00}, {"amal": 1.04}, threshold=0.05
        )
        assert report.ok
        assert report.unchanged == 1

    def test_added_and_removed_leaves(self):
        report = compare_telemetry({"old": 1}, {"new": 2})
        assert report.added == ["new"]
        assert report.removed == ["old"]

    def test_zero_baseline_appearance_is_infinite_change(self):
        report = compare_telemetry({"spills": 0}, {"spills": 9})
        assert not report.ok
        assert report.regressions[0].change == float("inf")
        assert "from zero" in report.regressions[0].describe()

    def test_report_as_dict_serializable(self):
        report = compare_telemetry(make_snapshot(), make_snapshot(amal=2.0))
        json.dumps(report.as_dict())


class TestPercentileDirectionRules:
    """Latency percentiles are cost metrics: up is worse, down is better."""

    def latency_snapshot(self, scale=1.0):
        from repro.telemetry.histogram import LatencyHistogram

        sketch = LatencyHistogram()
        sketch.observe_many(scale * i / 1000.0 for i in range(1, 101))
        return {"stats": {"slice.search": {"latency": sketch.as_dict()}}}

    def test_percentiles_flatten_as_numeric_leaves(self):
        flat = flatten_numeric(self.latency_snapshot())
        for name in ("p50", "p90", "p99", "p999"):
            assert f"stats.slice.search.latency.{name}" in flat
        assert not is_goodness_metric("stats.slice.search.latency.p99")

    def test_p99_increase_is_regression(self):
        report = compare_telemetry(
            self.latency_snapshot(), self.latency_snapshot(scale=2.0)
        )
        assert not report.ok
        paths = [delta.path for delta in report.regressions]
        assert "stats.slice.search.latency.p99" in paths
        assert "stats.slice.search.latency.p50" in paths

    def test_p99_decrease_is_improvement(self):
        report = compare_telemetry(
            self.latency_snapshot(), self.latency_snapshot(scale=0.5)
        )
        assert report.ok
        improved = [delta.path for delta in report.improvements]
        assert "stats.slice.search.latency.p99" in improved


class TestMetadataGuard:
    """The run-configuration block is compared for equality, not diffed."""

    META = {"engines": ["bitplane"], "worker_count": 4}

    def test_metadata_excluded_from_flattening(self):
        snap = dict(make_snapshot(), metadata={"worker_count": 4})
        flat = flatten_numeric(snap)
        assert not any(path.startswith("metadata") for path in flat)

    def test_matching_metadata_compares_normally(self):
        base = dict(make_snapshot(), metadata=dict(self.META))
        cur = dict(make_snapshot(amal=2.1), metadata=dict(self.META))
        report = compare_telemetry(base, cur)
        assert not report.ok  # the AMAL regression is still flagged

    def test_mismatched_metadata_refuses_comparison(self):
        base = dict(make_snapshot(), metadata=dict(self.META))
        cur = dict(
            make_snapshot(), metadata=dict(self.META, worker_count=1)
        )
        with pytest.raises(IncomparableRunsError, match="worker_count"):
            compare_telemetry(base, cur)

    def test_mismatched_topology_refuses_comparison(self):
        """Shard topology is configuration: a 4-shard run diffed against
        an 8-shard baseline is a layout change, not a regression."""
        base = dict(
            make_snapshot(),
            metadata=dict(
                self.META,
                topology={"shard_count": 4, "router": "ConsistentHashRouter"},
            ),
        )
        cur = dict(
            make_snapshot(),
            metadata=dict(
                self.META,
                topology={"shard_count": 8, "router": "ConsistentHashRouter"},
            ),
        )
        with pytest.raises(IncomparableRunsError, match="topology"):
            compare_telemetry(base, cur)

    def test_legacy_snapshot_without_metadata_still_compares(self):
        base = make_snapshot()
        cur = dict(make_snapshot(), metadata=dict(self.META))
        assert compare_telemetry(base, cur).ok

    def test_cli_exit_code_on_incomparable_runs(self, tmp_path, capsys):
        base_path = tmp_path / "base.json"
        cur_path = tmp_path / "cur.json"
        base_path.write_text(
            json.dumps(dict(make_snapshot(), metadata=dict(self.META)))
        )
        cur_path.write_text(
            json.dumps(
                dict(make_snapshot(), metadata=dict(self.META, engines=[]))
            )
        )
        assert compare_main([str(base_path), str(cur_path)]) == 2
        assert "different configurations" in capsys.readouterr().out


class TestInjectedAmalRegressionAcceptance:
    """The 2x-AMAL fixture must be flagged, by API and by CLI."""

    def test_doubled_amal_is_flagged(self):
        baseline = make_snapshot(amal=1.05)
        regressed = make_snapshot(amal=2.10)
        report = compare_telemetry(baseline, regressed)
        assert not report.ok
        paths = [delta.path for delta in report.regressions]
        assert "stats.slice.search.amal" in paths
        amal_delta = next(
            d for d in report.regressions
            if d.path == "stats.slice.search.amal"
        )
        assert amal_delta.change == pytest.approx(1.0)

    def test_cli_exit_codes(self, tmp_path, capsys):
        base_path = tmp_path / "base.json"
        bad_path = tmp_path / "bad.json"
        base_path.write_text(json.dumps(make_snapshot(amal=1.05)))
        bad_path.write_text(json.dumps(make_snapshot(amal=2.10)))

        assert compare_main([str(base_path), str(base_path)]) == 0
        assert compare_main([str(base_path), str(bad_path)]) == 1
        out = capsys.readouterr().out
        assert "REGRESSION" in out
        assert "stats.slice.search.amal" in out

    def test_load_snapshot(self, tmp_path):
        path = tmp_path / "snap.json"
        path.write_text(json.dumps({"a": 1}))
        assert load_snapshot(path) == {"a": 1}
