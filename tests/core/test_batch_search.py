"""Differential tests: ``search_batch`` must be bit-identical to ``search``.

The batch engine is an optimization, not a second model — every test here
drives the same store through the scalar path and the batch path and
asserts exact equality of the result lists *and* of the ``SearchStats``
accounting (lookups, hits, bucket accesses, match passes, access
histogram), which is what keeps AMAL trustworthy.
"""

import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cam.tcam import TCAM
from repro.core.config import Arrangement, SliceConfig
from repro.core.index import IndexGenerator
from repro.core.key import TernaryKey
from repro.core.record import RecordFormat
from repro.core.slice import CARAMSlice
from repro.core.stats import SearchStats
from repro.core.subsystem import CARAMSubsystem, SliceGroup
from repro.errors import KeyFormatError
from repro.hashing.base import ModuloHash
from repro.hashing.bit_select import BitSelectHash

KEY_BITS = 16


def snapshot(stats: SearchStats) -> SearchStats:
    copy = SearchStats()
    copy.merge(stats)
    return copy


def assert_differential(store, queries, search_mask=0, check_fetches=False):
    """Scalar and batch lookups over the same store must agree exactly."""
    store.stats.reset()
    if check_fetches:
        store.physical_row_fetches = 0
    scalar = [store.search(q, search_mask) for q in queries]
    scalar_stats = snapshot(store.stats)
    scalar_fetches = store.physical_row_fetches if check_fetches else None

    store.stats.reset()
    if check_fetches:
        store.physical_row_fetches = 0
    batch = store.search_batch(queries, search_mask)
    assert batch == scalar
    assert store.stats == scalar_stats
    if check_fetches:
        assert store.physical_row_fetches == scalar_fetches
    return scalar


def make_slice(
    index_bits=4,
    slots=4,
    match_processors=None,
    ternary=False,
    bit_select=True,
    **slice_kwargs,
):
    fmt = RecordFormat(key_bits=KEY_BITS, data_bits=8, ternary=ternary)
    aux_bits = 8
    config = SliceConfig(
        index_bits=index_bits,
        row_bits=aux_bits + slots * fmt.slot_bits,
        record_format=fmt,
        aux_bits=aux_bits,
        match_processors=match_processors,
    )
    if bit_select:
        hash_function = BitSelectHash(
            KEY_BITS, tuple(range(KEY_BITS - index_bits, KEY_BITS))
        )
    else:
        hash_function = ModuloHash(config.rows)
    return CARAMSlice(
        config, IndexGenerator(hash_function, config.rows), **slice_kwargs
    )


def mixed_queries(rng, stored_keys, count):
    """Half stored keys (hits), half random (mostly misses), shuffled."""
    queries = [rng.choice(stored_keys) for _ in range(count // 2)]
    queries += [rng.randrange(1 << KEY_BITS) for _ in range(count - len(queries))]
    rng.shuffle(queries)
    return queries


class TestSliceDifferential:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("processors", [None, 1, 3])
    def test_binary_with_spills(self, seed, processors):
        """Dense load on a modulo-hashed slice: many probe extensions."""
        rng = random.Random(seed)
        slice_ = make_slice(
            index_bits=3, slots=2, match_processors=processors, bit_select=False
        )
        stored = []
        for _ in range(14):  # 14 of 16 capacity: heavy spilling
            key = rng.randrange(1 << KEY_BITS)
            slice_.insert(key, key & 0xFF)
            stored.append(key)
        assert any(slice_.memory.peek_row(r) for r in range(8))
        results = assert_differential(
            slice_, mixed_queries(rng, stored, 300)
        )
        assert any(r.hit for r in results)
        assert any(r.bucket_accesses > 1 for r in results)

    @pytest.mark.parametrize("seed", [10, 11])
    def test_ternary_records_and_queries(self, seed):
        """Ternary stores/queries, with don't-cares in and out of hash bits."""
        rng = random.Random(seed)
        slice_ = make_slice(index_bits=4, slots=4, ternary=True)
        hash_mask = slice_.index_generator.hash_function.position_mask
        in_hash = hash_mask & -hash_mask  # one bit the hash consumes
        out_of_hash = (0b11 << 6) & ~hash_mask
        assert in_hash and out_of_hash
        stored = []
        for _ in range(28):
            value = rng.randrange(1 << KEY_BITS)
            choice = rng.random()
            if choice < 0.3:
                key = value  # binary record
            elif choice < 0.6:
                # don't-cares outside the hash bits: stays single-home
                key = TernaryKey(value=value, mask=out_of_hash, width=KEY_BITS)
            else:
                # a don't-care inside the hash bits: duplicated rows
                key = TernaryKey(value=value, mask=in_hash, width=KEY_BITS)
            try:
                slice_.insert(key, rng.randrange(256))
                stored.append(key)
            except Exception:
                pass
        queries = []
        for _ in range(200):
            choice = rng.random()
            value = rng.randrange(1 << KEY_BITS)
            if choice < 0.4:
                queries.append(value)
            elif choice < 0.7:
                queries.append(
                    TernaryKey(value=value, mask=out_of_hash, width=KEY_BITS)
                )
            else:
                # don't-care over a hash bit: forces the multi-row path
                queries.append(
                    TernaryKey(value=value, mask=in_hash, width=KEY_BITS)
                )
        queries += stored[:10]
        assert_differential(slice_, queries)

    def test_uniform_search_mask(self):
        rng = random.Random(5)
        slice_ = make_slice(index_bits=4, slots=4)
        hash_mask = slice_.index_generator.hash_function.position_mask
        stored = [rng.randrange(1 << KEY_BITS) for _ in range(30)]
        for key in stored:
            slice_.insert(key, 1)
        # Mask clear of the hash bits: stays vectorized.
        assert_differential(
            slice_,
            mixed_queries(rng, stored, 100),
            search_mask=(0b11 << 6) & ~hash_mask,
        )
        # Mask overlapping the hash bits: every key takes the scalar path.
        assert_differential(
            slice_,
            mixed_queries(rng, stored, 50),
            search_mask=hash_mask & -hash_mask,
        )

    def test_empty_batch(self):
        slice_ = make_slice()
        assert slice_.search_batch([]) == []
        assert slice_.stats.lookups == 0

    def test_key_out_of_range_rejected(self):
        slice_ = make_slice()
        with pytest.raises(KeyFormatError):
            slice_.search_batch([0, 1 << KEY_BITS])
        with pytest.raises(KeyFormatError):
            slice_.search_batch([0], search_mask=1 << KEY_BITS)
        with pytest.raises(KeyFormatError):
            slice_.search_batch([TernaryKey(value=0, mask=0, width=KEY_BITS - 1)])

    def test_shared_miss_results_are_equal_values(self):
        """Plain misses may share one SearchResult instance — by value they
        must still equal the scalar miss result."""
        slice_ = make_slice()
        results = slice_.search_batch([1, 2, 3])
        assert all(not r.hit and r.bucket_accesses == 1 for r in results)
        assert results[0] == replace(results[1])


class TestMirrorInvalidation:
    def test_interleaved_inserts_deletes_and_batches(self):
        """The mirror must track every mutation between batch calls."""
        rng = random.Random(21)
        slice_ = make_slice(index_bits=4, slots=4)
        live = []
        for round_no in range(6):
            for _ in range(8):
                key = rng.randrange(1 << KEY_BITS)
                try:
                    slice_.insert(key, key & 0xFF)
                    live.append(key)
                except Exception:
                    pass
            for _ in range(min(3, len(live) - 1)):
                victim = live.pop(rng.randrange(len(live)))
                try:
                    slice_.delete(victim)
                except Exception:
                    pass
            queries = mixed_queries(rng, live, 60)
            assert_differential(slice_, queries)

    def test_ram_mode_writes_are_visible_to_batches(self):
        slice_ = make_slice(index_bits=3, slots=2, bit_select=False)
        slice_.insert(0x1234, 7)
        assert slice_.search_batch([0x1234])[0].hit
        home = slice_.index_generator.index(0x1234)
        slice_.ram_write(home, 0)
        assert slice_.record_count == 0
        assert not slice_.search_batch([0x1234])[0].hit

    def test_incremental_sync_decodes_only_dirty_rows(self):
        slice_ = make_slice(index_bits=4, slots=4)
        for key in range(0, 3000, 100):
            slice_.insert(key, 1)
        slice_.search_batch(list(range(50)))
        mirror = slice_._synced_mirror()
        decoded_after_build = mirror.rows_decoded
        slice_.search_batch(list(range(50)))
        assert mirror.rows_decoded == decoded_after_build  # nothing dirty
        slice_.insert(0x4242, 9)
        slice_.search_batch([0x4242])
        # Only the touched row(s) re-decoded, not the whole array.
        assert 0 < mirror.rows_decoded - decoded_after_build < slice_.config.rows


def make_group(arrangement, slice_count=2, match_processors=3, **group_kwargs):
    fmt = RecordFormat(key_bits=KEY_BITS, data_bits=8)
    config = SliceConfig(
        index_bits=4,
        row_bits=8 + 3 * fmt.slot_bits,
        record_format=fmt,
        aux_bits=8,
        match_processors=match_processors,
    )
    buckets = (
        config.rows * slice_count
        if arrangement is Arrangement.VERTICAL
        else config.rows
    )
    return SliceGroup(
        config=config,
        slice_count=slice_count,
        arrangement=arrangement,
        hash_function=ModuloHash(buckets),
        name="batch-test",
        **group_kwargs,
    )


class TestGroupDifferential:
    @pytest.mark.parametrize(
        "arrangement", [Arrangement.VERTICAL, Arrangement.HORIZONTAL]
    )
    @pytest.mark.parametrize("seed", [31, 32])
    def test_group_matches_scalar(self, arrangement, seed):
        rng = random.Random(seed)
        group = make_group(arrangement)
        stored = []
        target = int(group.capacity_records * 0.85)
        while len(stored) < target:
            key = rng.randrange(1 << KEY_BITS)
            try:
                group.insert(key, key & 0xFF)
                stored.append(key)
            except Exception:
                break
        results = assert_differential(
            group, mixed_queries(rng, stored, 400), check_fetches=True
        )
        assert any(r.hit for r in results)

    def test_group_probe_extension(self):
        """Force spills so batch lookups exercise the probe fallback."""
        group = make_group(Arrangement.HORIZONTAL)
        bucket_capacity = group.slots_per_bucket
        # All keys hash to bucket 3 -> guaranteed overflow chains.
        keys = [3 + 16 * i for i in range(bucket_capacity + 4)]
        for key in keys:
            group.insert(key, 1)
        queries = keys + [3 + 16 * 99, 7]
        results = assert_differential(group, queries, check_fetches=True)
        assert any(r.bucket_accesses > 1 for r in results)


def fill_to(store, rng, load_factor):
    """Insert random keys until the store reaches the target load factor."""
    stored = []
    capacity = getattr(store, "capacity_records", None)
    if capacity is None:
        capacity = store.config.capacity_records
    target = int(capacity * load_factor)
    while len(stored) < target:
        key = rng.randrange(1 << KEY_BITS)
        try:
            store.insert(key, key & 0xFF)
            stored.append(key)
        except Exception:
            break
    return stored


class TestProbeWalkVectorized:
    @pytest.mark.parametrize("processors", [None, 2])
    def test_high_load_walk_never_goes_scalar(self, processors):
        """At alpha=0.9 with uniform misses, every binary key resolves in
        the vectorized walk — zero scalar fallbacks."""
        rng = random.Random(77)
        slice_ = make_slice(
            index_bits=3, slots=4, match_processors=processors,
            bit_select=False,
        )
        stored = fill_to(slice_, rng, 0.9)
        assert slice_.load_factor >= 0.85
        results = assert_differential(slice_, mixed_queries(rng, stored, 400))
        assert slice_.stats.scalar_fallbacks == 0
        assert slice_.stats.probe_walk_keys > 0
        assert any(r.bucket_accesses > 1 for r in results)

    @pytest.mark.parametrize(
        "arrangement", [Arrangement.VERTICAL, Arrangement.HORIZONTAL]
    )
    def test_group_walk_never_goes_scalar(self, arrangement):
        rng = random.Random(78)
        group = make_group(arrangement)
        stored = fill_to(group, rng, 0.9)
        assert_differential(
            group, mixed_queries(rng, stored, 400), check_fetches=True
        )
        assert group.stats.scalar_fallbacks == 0
        assert group.stats.probe_walk_keys > 0

    def test_only_multi_home_keys_fall_back(self):
        """Ternary queries masked over hash bits are the one scalar case."""
        rng = random.Random(79)
        slice_ = make_slice(index_bits=4, slots=4, ternary=True)
        hash_mask = slice_.index_generator.hash_function.position_mask
        stored = fill_to(slice_, rng, 0.5)
        in_hash = hash_mask & -hash_mask
        queries = mixed_queries(rng, stored, 60)
        multi = [
            TernaryKey(value=rng.randrange(1 << KEY_BITS), mask=in_hash,
                       width=KEY_BITS)
            for _ in range(5)
        ]
        assert_differential(slice_, queries + multi)
        assert slice_.stats.scalar_fallbacks == len(multi)


class TestAccountReads:
    def test_slice_mirror_reads_uncounted_by_default(self):
        slice_ = make_slice(index_bits=3, slots=2, bit_select=False)
        slice_.insert(5, 1)
        slice_.memory.stats.reset()
        slice_.search_batch([5, 6])
        assert slice_.memory.stats.reads == 0


class TestChunkSize:
    def test_small_chunks_differential(self, monkeypatch):
        """A chunk size forcing many chunks must not change anything."""
        import repro.core.batch as batch

        monkeypatch.setattr(batch, "DEFAULT_CHUNK_SIZE", 16)
        monkeypatch.setattr(batch, "MIN_CHUNK_SIZE", 16)
        rng = random.Random(93)
        slice_ = make_slice(index_bits=3, slots=2, bit_select=False)
        stored = fill_to(slice_, rng, 0.9)
        slice_.enable_latency_tracking()
        assert_differential(slice_, mixed_queries(rng, stored, 200))
        # One latency observation per chunk walk: 200 keys, 13 chunks.
        assert slice_.stats.latency.count == 13

    def test_default_chunk_scales_with_row_width(self):
        from repro.core.batch import (
            DEFAULT_CHUNK_SIZE,
            MIN_CHUNK_SIZE,
            default_chunk_size,
        )

        # Narrow geometries keep the legacy chunk size.
        assert default_chunk_size(4, 16) == DEFAULT_CHUNK_SIZE
        # Design D's 128 slots of 32-bit keys (one 4-byte plane word each)
        # fit a 4,096-address batch in one chunk.
        assert default_chunk_size(128, 32, value_words=1) >= 4096
        # Design A's 96 slots x 2 words of 128-bit keys: 4 MiB over
        # (96 x 16 + 5 x 8) bytes per key.
        assert default_chunk_size(96, 128, value_words=1) == 2661
        # The trigram study's horizontal bucket: 384 slots x 2 words.
        wide = default_chunk_size(384, 128)
        assert MIN_CHUNK_SIZE <= wide < DEFAULT_CHUNK_SIZE
        # Degenerate widths clamp at the floor.
        assert default_chunk_size(1 << 20, 256) == MIN_CHUNK_SIZE


class TestSubsystemBatch:
    def test_overflow_store_consulted_on_misses(self):
        sub = CARAMSubsystem()
        group = make_group(Arrangement.VERTICAL)
        sub.add_group(group)
        sub.attach_overflow("batch-test", TCAM(64, KEY_BITS))
        # Fill one bucket through the subsystem so overflow diverts.
        keys = [5 + 32 * i for i in range(group.slots_per_bucket + 3)]
        for key in keys:
            sub.insert("batch-test", key, key & 0xFF)

        scalar = [sub.search("batch-test", k) for k in keys + [9999]]
        group.stats.reset()
        batch = sub.search_batch("batch-test", keys + [9999])
        assert batch == scalar
        # Every stored key hits (some via the TCAM), each at one access.
        assert all(r.hit and r.bucket_accesses == 1 for r in batch[:-1])
        assert not batch[-1].hit

    def test_no_overflow_store_passthrough(self):
        sub = CARAMSubsystem()
        group = make_group(Arrangement.HORIZONTAL)
        sub.add_group(group)
        group.insert(77, 1)
        results = sub.search_batch("batch-test", [77, 78])
        assert results[0].hit and not results[1].hit


def _ternary_or_binary(value, mask):
    return TernaryKey(value=value, mask=mask, width=KEY_BITS) if mask else value


class TestEngineEquivalenceProperty:
    """Hypothesis: under any interleaving of inserts, deletes, syncs, and
    batch searches over a ternary store, the batch engine stays
    bit-identical to the scalar path — results and stats — with or
    without an overflow TCAM (the columnar overlay against the scalar
    one)."""

    @pytest.mark.parametrize(
        "overflow_entries", [0, 8], ids=["no-store", "tcam"]
    )
    @settings(max_examples=20, deadline=None)
    @given(
        ops=st.lists(
            st.one_of(
                st.tuples(
                    st.just("insert"),
                    st.integers(0, (1 << KEY_BITS) - 1),
                    st.sampled_from([0, 0b11 << 6, 1 << 12, 0b101]),
                ),
                st.tuples(st.just("delete"), st.integers(0, 1 << 20)),
                st.tuples(st.just("search"), st.integers(0, 1 << 20)),
            ),
            min_size=5,
            max_size=30,
        )
    )
    def test_random_interleavings(self, overflow_entries, ops):
        if overflow_entries:
            # Two two-slot buckets, so records do overflow into the TCAM.
            store = make_slice(index_bits=1, slots=2, ternary=True)
            store.attach_overflow(TCAM(overflow_entries, KEY_BITS))
        else:
            store = make_slice(index_bits=4, slots=4, ternary=True)
        live = []
        for op in ops:
            if op[0] == "insert":
                _, value, mask = op
                key = _ternary_or_binary(value, mask)
                try:
                    store.insert(key, value & 0xFF)
                except Exception:
                    continue
                live.append(key)
            elif op[0] == "delete":
                if not live:
                    continue
                victim = live.pop(op[1] % len(live))
                try:
                    store.delete(victim)
                except Exception:
                    continue
            else:
                rng = random.Random(op[1])
                values = [getattr(k, "value", k) for k in live] or [0]
                assert_differential(store, mixed_queries(rng, values, 20))
        final = [getattr(k, "value", k) for k in live] or [1]
        assert_differential(store, final)
