"""Unit tests for search statistics."""

import pytest

from repro.core.stats import SearchStats


class TestRecording:
    def test_amal(self):
        stats = SearchStats()
        stats.record_lookup(1, hit=True)
        stats.record_lookup(3, hit=True)
        assert stats.amal == pytest.approx(2.0)

    def test_hit_rate(self):
        stats = SearchStats()
        stats.record_lookup(1, hit=True)
        stats.record_lookup(1, hit=False)
        assert stats.hit_rate == pytest.approx(0.5)
        assert stats.misses == 1

    def test_histogram(self):
        stats = SearchStats()
        for accesses in (1, 1, 2):
            stats.record_lookup(accesses, hit=True)
        assert stats.access_histogram[1] == 2
        assert stats.access_histogram[2] == 1

    def test_insert_probes(self):
        stats = SearchStats()
        stats.record_insert(1)
        stats.record_insert(3)
        assert stats.average_insert_probes == pytest.approx(2.0)

    def test_empty_stats(self):
        stats = SearchStats()
        assert stats.amal == 0.0
        assert stats.hit_rate == 0.0
        assert stats.average_insert_probes == 0.0


class TestMergeReset:
    def test_merge(self):
        a = SearchStats()
        a.record_lookup(1, hit=True)
        b = SearchStats()
        b.record_lookup(3, hit=False)
        b.record_insert(2)
        a.merge(b)
        assert a.lookups == 2
        assert a.amal == pytest.approx(2.0)
        assert a.inserts == 1

    def test_reset(self):
        stats = SearchStats()
        stats.record_lookup(5, hit=True)
        stats.record_insert(1)
        stats.record_delete()
        stats.reset()
        assert stats.lookups == 0
        assert stats.deletes == 0
        assert not stats.access_histogram

    def test_merge_and_reset_cover_engine_counters(self):
        a = SearchStats()
        a.record_scalar_fallbacks(2)
        a.record_probe_walk(5)
        b = SearchStats()
        b.record_scalar_fallbacks(3)
        b.record_probe_walk(7)
        a.merge(b)
        assert a.scalar_fallbacks == 5
        assert a.probe_walk_keys == 12
        a.reset()
        assert a.scalar_fallbacks == 0
        assert a.probe_walk_keys == 0


class TestEngineCounters:
    """scalar_fallbacks / probe_walk_keys: accumulated, not compared."""

    def test_accumulation_ignores_non_positive(self):
        stats = SearchStats()
        stats.record_scalar_fallbacks(3)
        stats.record_scalar_fallbacks(0)
        stats.record_probe_walk(4)
        stats.record_probe_walk(-1)
        assert stats.scalar_fallbacks == 3
        assert stats.probe_walk_keys == 4

    def test_excluded_from_equality(self):
        scalar = SearchStats()
        batch = SearchStats()
        scalar.record_lookup(1, hit=True)
        batch.record_lookup(1, hit=True)
        batch.record_scalar_fallbacks(1)
        batch.record_probe_walk(9)
        # Scalar/batch differential parity is over lookup semantics; the
        # engine-path counters must not break it.
        assert scalar == batch

    def test_exported_in_as_dict(self):
        stats = SearchStats()
        stats.record_scalar_fallbacks(2)
        stats.record_probe_walk(6)
        exported = stats.as_dict()
        assert exported["scalar_fallbacks"] == 2
        assert exported["probe_walk_keys"] == 6
