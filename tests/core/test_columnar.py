"""Columnar result sets.

``search_batch_columnar`` is the native output of the batch engine — a
struct-of-arrays :class:`~repro.core.results.BatchResultSet` whose lazy
``results()`` materialization must be bit-identical to the scalar path
(results *and* ``SearchStats``), under ternary/masked queries, reliability
overlays, and interleaved writes.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import Arrangement
from repro.core.subsystem import CARAMSubsystem
from repro.cam.tcam import TCAM
from repro.errors import ConfigurationError
from repro.reliability.faults import FaultConfig
from repro.telemetry.metrics import MetricsRegistry

from tests.core.test_batch_search import (
    KEY_BITS,
    _ternary_or_binary,
    fill_to,
    make_group,
    make_slice,
    mixed_queries,
    snapshot,
)


def columnar_differential(store, queries, search_mask=0):
    """Scalar and columnar lookups over the same store must agree exactly.

    Checks the materialized ``results()``, the ``data_values()`` fast
    path, and the ``SearchStats`` accounting.  Returns the result set.
    """
    store.stats.reset()
    scalar = [store.search(q, search_mask) for q in queries]
    scalar_stats = snapshot(store.stats)

    store.stats.reset()
    result_set = store.search_batch_columnar(queries, search_mask)
    assert store.stats == scalar_stats
    assert len(result_set) == len(queries)
    assert result_set.results() == scalar
    assert result_set.data_values() == [
        r.data if r.hit else None for r in scalar
    ]
    return result_set


class TestColumnarDifferential:
    @pytest.mark.parametrize("seed", [5, 6])
    def test_slice_matches_scalar(self, seed):
        rng = random.Random(seed)
        slice_ = make_slice(index_bits=4, slots=4)
        stored = fill_to(slice_, rng, 0.85)
        queries = mixed_queries(rng, stored, 400)
        result_set = columnar_differential(slice_, queries)
        scalar = [slice_.search(q) for q in queries]
        # The columns themselves carry the per-key accounting.
        assert list(result_set.hit) == [r.hit for r in scalar]
        assert list(result_set.bucket_accesses) == [
            r.bucket_accesses for r in scalar
        ]
        assert int(result_set.hit.sum()) > 0

    def test_ternary_stores_and_masked_queries(self):
        rng = random.Random(21)
        slice_ = make_slice(index_bits=4, slots=4, ternary=True)
        stored = []
        for _ in range(30):
            value = rng.randrange(1 << KEY_BITS)
            mask = rng.choice([0, 0b11 << 6, 0b101])
            try:
                slice_.insert(_ternary_or_binary(value, mask), value & 0xFF)
                stored.append(value)
            except Exception:
                continue
        for search_mask in (0, 1 << 12, 0b11 << 6):
            columnar_differential(
                slice_, mixed_queries(rng, stored, 150), search_mask
            )

    @pytest.mark.parametrize(
        "arrangement", [Arrangement.VERTICAL, Arrangement.HORIZONTAL]
    )
    def test_group_matches_scalar(self, arrangement):
        rng = random.Random(31)
        group = make_group(arrangement)
        stored = fill_to(group, rng, 0.85)
        columnar_differential(group, mixed_queries(rng, stored, 300))

    def test_subsystem_overflow_overrides(self):
        """Overflow-store hits surface as columnar overrides."""
        sub = CARAMSubsystem()
        group = make_group(Arrangement.VERTICAL)
        sub.add_group(group)
        sub.attach_overflow("batch-test", TCAM(64, KEY_BITS))
        keys = [5 + 32 * i for i in range(group.slots_per_bucket + 3)]
        for key in keys:
            sub.insert("batch-test", key, key & 0xFF)

        scalar = [sub.search("batch-test", k) for k in keys + [9999]]
        result_set = sub.search_batch_columnar("batch-test", keys + [9999])
        assert result_set.results() == scalar
        assert all(r.hit and r.bucket_accesses == 1 for r in scalar[:-1])
        assert not result_set.results()[-1].hit


class TestColumnarResultSet:
    def test_stale_set_refuses_materialization(self):
        """A result set outlived by a mirror re-decode must fail loudly."""
        rng = random.Random(41)
        slice_ = make_slice(index_bits=4, slots=4)
        stored = fill_to(slice_, rng, 0.5)
        unmaterialized = slice_.search_batch_columnar(stored[:20])
        materialized = slice_.search_batch_columnar(stored[:20])
        early = materialized.results()  # snapshot taken before the write
        slice_.delete(stored[0])
        fresh = slice_.search_batch_columnar(stored[:20])  # re-decodes
        assert fresh.results()  # the new set tracks the new version
        # A set materialized before the write keeps its valid snapshot...
        assert materialized.results() is early
        # ...but one that never materialized must not silently pair its
        # stale coordinates with the re-decoded mirror.
        with pytest.raises(ConfigurationError, match="stale"):
            unmaterialized.results()

    def test_columnar_rows_counter_and_provider(self):
        rng = random.Random(43)
        slice_ = make_slice(index_bits=4, slots=4)
        stored = fill_to(slice_, rng, 0.5)
        registry = MetricsRegistry()
        slice_.register_telemetry(registry)
        slice_.search_batch_columnar(stored)
        slice_.search_batch(stored)
        block = registry.snapshot()["stats"]["slice.batch"]
        assert block["columnar_rows"] == 2 * len(stored)


class TestReliabilityOverlay:
    def test_dead_row_overlay_matches_scalar(self):
        rng = random.Random(53)
        slice_ = make_slice(index_bits=4, slots=4)
        stored = fill_to(slice_, rng, 0.8)
        slice_.enable_reliability(faults=FaultConfig(dead_rows=(3,)))
        queries = mixed_queries(rng, stored, 200)
        slice_.stats.reset()
        scalar = [slice_.search(q) for q in queries]
        result_set = slice_.search_batch_columnar(queries)
        assert result_set.results() == scalar
        assert result_set.data_values() == [
            r.data if r.hit else None for r in scalar
        ]


class TestColumnarEquivalenceProperty:
    """Hypothesis: under any interleaving of inserts, deletes, and masked
    columnar searches, ``results()`` stays bit-identical to the scalar
    path (results and stats)."""

    @settings(max_examples=15, deadline=None)
    @given(
        ops=st.lists(
            st.one_of(
                st.tuples(
                    st.just("insert"),
                    st.integers(0, (1 << KEY_BITS) - 1),
                    st.sampled_from([0, 0b11 << 6, 0b101]),
                ),
                st.tuples(st.just("delete"), st.integers(0, 1 << 20)),
                st.tuples(
                    st.just("search"),
                    st.integers(0, 1 << 20),
                    st.sampled_from([0, 1 << 12, 0b11 << 6]),
                ),
            ),
            min_size=5,
            max_size=25,
        )
    )
    def test_random_interleavings(self, ops):
        slice_ = make_slice(index_bits=4, slots=4, ternary=True)
        live = []
        for op in ops:
            if op[0] == "insert":
                _, value, mask = op
                try:
                    slice_.insert(
                        _ternary_or_binary(value, mask), value & 0xFF
                    )
                    live.append(value)
                except Exception:
                    continue
            elif op[0] == "delete":
                if live:
                    try:
                        slice_.delete(live.pop(op[1] % len(live)))
                    except Exception:
                        continue
            else:
                _, seed, mask = op
                rng = random.Random(seed)
                queries = mixed_queries(rng, live or [0], 20)
                columnar_differential(slice_, queries, search_mask=mask)
        columnar_differential(slice_, live or [1])
