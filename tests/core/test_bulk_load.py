"""Property tests: ``bulk_load`` must equal sequential ``insert`` bit for bit.

The bulk-build pipeline is an optimization of the construction path, not a
second model: for any record set that sequential insertion can place, the
vectorized build must produce the *same memory image* (every row, including
reach fields), the same record counts, the same ``SearchStats``, and a
decoded mirror identical to one decoded fresh from the rows.  Hypothesis
drives random geometries, load factors up to 0.9, ternary keys (including
multi-home duplication), and sorted-bucket priorities through both a
:class:`CARAMSlice` and both :class:`SliceGroup` arrangements.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import Arrangement, SliceConfig
from repro.core.index import IndexGenerator
from repro.core.key import TernaryKey
from repro.core.record import Record, RecordFormat
from repro.core.slice import CARAMSlice
from repro.core.stats import SearchStats
from repro.core.subsystem import SliceGroup
from repro.errors import CapacityError, ConfigurationError, KeyFormatError
from repro.hashing.base import ModuloHash
from repro.hashing.bit_select import BitSelectHash
from repro.memory.mirror import DecodedMirror, keys_to_words

KEY_BITS = 16


def make_config(index_bits, slots, ternary, aux_bits=8):
    fmt = RecordFormat(key_bits=KEY_BITS, data_bits=8, ternary=ternary)
    return SliceConfig(
        index_bits=index_bits,
        row_bits=aux_bits + slots * fmt.slot_bits,
        record_format=fmt,
        aux_bits=aux_bits,
    )


def value_priority(keys, masks, data):
    """A deliberately tie-heavy priority so sorted buckets are exercised."""
    return keys[:, 0] % 7


def make_slice(index_bits, slots, ternary, bit_select, priority):
    config = make_config(index_bits, slots, ternary)
    if bit_select:
        hash_function = BitSelectHash(
            KEY_BITS, tuple(range(KEY_BITS - index_bits, KEY_BITS))
        )
    else:
        hash_function = ModuloHash(config.rows)
    return CARAMSlice(
        config,
        IndexGenerator(hash_function, config.rows),
        slot_priority=value_priority if priority else None,
    )


def make_pairs(rng, count, ternary, multi_home, hash_mask):
    """Random (key, data) pairs; ternary masks stay off the hash bits unless
    ``multi_home`` asks for duplicated copies."""
    pairs = []
    for _ in range(count):
        value = rng.randrange(1 << KEY_BITS)
        data = rng.randrange(256)
        if ternary and rng.random() < 0.5:
            if multi_home and rng.random() < 0.3:
                mask = hash_mask & -hash_mask  # one hash bit -> two homes
            else:
                mask = (0b11 << 6) & ~hash_mask
            pairs.append((TernaryKey(value=value, mask=mask, width=KEY_BITS), data))
        else:
            pairs.append((value, data))
    return pairs


def columnar_args(pairs):
    """The same records in ``bulk_load(keys, data)`` form: a word matrix
    when every key is an int, else the key sequence."""
    keys = [key for key, _ in pairs]
    if not any(isinstance(key, TernaryKey) for key in keys):
        keys = keys_to_words(keys, KEY_BITS)
    return keys, [data for _, data in pairs]


def sequential_reference(store_factory, pairs):
    """Build the scalar reference; returns (store, error-or-None)."""
    store = store_factory()
    try:
        for key, data in pairs:
            store.insert(key, data)
    except CapacityError as exc:
        return store, exc
    return store, None


def array_snapshots(store):
    return [array.snapshot() for array in store._arrays]


def assert_same_state(bulk, reference):
    assert array_snapshots(bulk) == array_snapshots(reference)
    assert bulk.record_count == reference.record_count
    assert bulk.stats == reference.stats


def assert_mirror_matches_rows(store):
    """The installed mirror must equal one decoded fresh from the rows."""
    installed = store._synced_mirror()
    fresh = DecodedMirror(store._arrays, store._layout, store.geometry)
    fresh.sync()
    assert np.array_equal(installed.valid, fresh.valid)
    assert np.array_equal(installed.key_words, fresh.key_words)
    assert np.array_equal(installed.mask_words, fresh.mask_words)
    assert np.array_equal(installed.reach, fresh.reach)
    assert np.array_equal(installed.data_words, fresh.data_words)
    buckets, slots = np.nonzero(fresh.valid)
    assert installed.records_at(buckets, slots) == fresh.records_at(
        buckets, slots
    )


@st.composite
def slice_case(draw):
    index_bits = draw(st.integers(2, 5))
    slots = draw(st.integers(1, 4))
    ternary = draw(st.booleans())
    # Multi-home duplication needs bit-selection (other hashes reject
    # don't-cares over hash input); binary stores exercise both hashes.
    bit_select = draw(st.booleans()) if not ternary else True
    priority = draw(st.booleans())
    load = draw(st.floats(0.1, 0.9))
    multi_home = ternary and draw(st.booleans())
    seed = draw(st.integers(0, 1 << 20))
    return index_bits, slots, ternary, bit_select, priority, load, multi_home, seed


@given(slice_case())
@settings(max_examples=60, deadline=None)
def test_slice_bulk_load_equals_sequential_insert(case):
    index_bits, slots, ternary, bit_select, priority, load, multi_home, seed = case
    rng = random.Random(seed)
    factory = lambda: make_slice(index_bits, slots, ternary, bit_select, priority)
    capacity = (1 << index_bits) * slots
    pairs = make_pairs(
        rng,
        max(1, int(capacity * load)),
        ternary,
        multi_home,
        hash_mask=(
            factory().index_generator.hash_function.position_mask
            if bit_select
            else 0
        ),
    )
    reference, error = sequential_reference(factory, pairs)
    bulk, columnar = factory(), factory()
    if error is not None:
        before = array_snapshots(bulk)
        with pytest.raises(CapacityError):
            bulk.bulk_load(pairs)
        with pytest.raises(CapacityError):
            columnar.bulk_load(*columnar_args(pairs))
        # All-or-nothing: the failed bulk load wrote nothing.
        assert array_snapshots(bulk) == before
        assert array_snapshots(columnar) == before
        assert bulk.record_count == columnar.record_count == 0
        return
    copies = bulk.bulk_load(pairs)
    assert copies == reference.record_count
    assert_same_state(bulk, reference)
    assert_mirror_matches_rows(bulk)
    assert columnar.bulk_load(*columnar_args(pairs)) == copies
    assert_same_state(columnar, reference)
    assert_mirror_matches_rows(columnar)
    assert columnar.last_bulk_plan == bulk.last_bulk_plan
    # The installed mirror serves lookups identically to the scalar store.
    queries = [rng.randrange(1 << KEY_BITS) for _ in range(40)]
    assert bulk.search_batch(queries) == [reference.search(q) for q in queries]


@st.composite
def group_case(draw):
    index_bits = draw(st.integers(2, 4))
    slots = draw(st.integers(1, 3))
    slice_count = draw(st.integers(1, 3))
    arrangement = draw(st.sampled_from([Arrangement.VERTICAL, Arrangement.HORIZONTAL]))
    priority = draw(st.booleans())
    load = draw(st.floats(0.1, 0.9))
    seed = draw(st.integers(0, 1 << 20))
    return index_bits, slots, slice_count, arrangement, priority, load, seed


@given(group_case())
@settings(max_examples=40, deadline=None)
def test_group_bulk_load_equals_sequential_insert(case):
    index_bits, slots, slice_count, arrangement, priority, load, seed = case
    rng = random.Random(seed)
    config = make_config(index_bits, slots, ternary=False)
    buckets = (
        config.rows * slice_count
        if arrangement is Arrangement.VERTICAL
        else config.rows
    )
    factory = lambda: SliceGroup(
        config=config,
        slice_count=slice_count,
        arrangement=arrangement,
        hash_function=ModuloHash(buckets),
        slot_priority=value_priority if priority else None,
        name="bulk-test",
    )
    capacity = factory().capacity_records
    pairs = make_pairs(
        rng, max(1, int(capacity * load)), ternary=False, multi_home=False,
        hash_mask=0,
    )
    reference, error = sequential_reference(factory, pairs)
    bulk, columnar = factory(), factory()
    if error is not None:
        with pytest.raises(CapacityError):
            bulk.bulk_load(pairs)
        with pytest.raises(CapacityError):
            columnar.bulk_load(*columnar_args(pairs))
        assert bulk.record_count == columnar.record_count == 0
        return
    copies = bulk.bulk_load(pairs)
    assert copies == reference.record_count
    assert_same_state(bulk, reference)
    assert_mirror_matches_rows(bulk)
    assert columnar.bulk_load(*columnar_args(pairs)) == copies
    assert_same_state(columnar, reference)
    assert_mirror_matches_rows(columnar)
    assert columnar.last_bulk_plan == bulk.last_bulk_plan
    queries = [rng.randrange(1 << KEY_BITS) for _ in range(40)]
    assert bulk.search_batch(queries) == [reference.search(q) for q in queries]


class TestBulkLoadTargeted:
    def test_multi_home_ternary_group(self):
        """Horizontal group + bit-selection + duplicated ternary copies."""
        rng = random.Random(4242)
        config = make_config(4, 3, ternary=True)
        hash_function = BitSelectHash(KEY_BITS, tuple(range(12, 16)))
        factory = lambda: SliceGroup(
            config=config,
            slice_count=2,
            arrangement=Arrangement.HORIZONTAL,
            hash_function=hash_function,
            slot_priority=value_priority,
            name="ternary-bulk",
        )
        pairs = make_pairs(
            rng, 40, ternary=True, multi_home=True,
            hash_mask=hash_function.position_mask,
        )
        reference, error = sequential_reference(factory, pairs)
        assert error is None
        bulk = factory()
        bulk.bulk_load(pairs)
        assert_same_state(bulk, reference)
        assert_mirror_matches_rows(bulk)
        # Duplicated copies mean more stored copies than input records.
        assert bulk.record_count > len(pairs)

    def test_non_empty_store_falls_back_to_sequential(self):
        factory = lambda: make_slice(3, 2, False, False, False)
        reference = factory()
        pairs = [(k, k & 0xFF) for k in range(10)]
        for key, data in pairs:
            reference.insert(key, data)
        staged = factory()
        staged.insert(*pairs[0])
        staged.bulk_load(pairs[1:])
        assert_same_state(staged, reference)

    def test_wide_reach_field_takes_the_fast_path(self):
        config = make_config(3, 2, ternary=False, aux_bits=70)
        factory = lambda: CARAMSlice(config, IndexGenerator(ModuloHash(8), 8))
        pairs = [(k * 8 + k % 2, k) for k in range(12)]  # buckets 0, 1 spill
        reference, error = sequential_reference(factory, pairs)
        assert error is None
        bulk = factory()
        bulk.bulk_load(pairs)
        assert bulk.last_bulk_plan.max_displacement > 0
        assert_same_state(bulk, reference)
        assert_mirror_matches_rows(bulk)

    def test_capacity_error_before_any_write(self):
        slice_ = make_slice(2, 1, False, False, False)
        # Far more records than the 4-bucket, 1-slot geometry can hold.
        with pytest.raises(CapacityError):
            slice_.bulk_load([(k, 0) for k in range(16)])
        assert slice_.record_count == 0
        assert all(v == 0 for v in slice_.memory.snapshot())

    def test_reach_limited_capacity_error_is_untouched(self):
        """Overflow past the reach limit (not raw capacity) must also leave
        the store untouched, where sequential insertion would fail midway."""
        config = make_config(2, 1, ternary=False, aux_bits=1)  # reach <= 1
        slice_ = CARAMSlice(config, IndexGenerator(ModuloHash(4), 4))
        # Three keys in bucket 0: the third needs displacement 2 > reach 1.
        with pytest.raises(CapacityError):
            slice_.bulk_load([(0, 0), (4, 0), (8, 0), (1, 0)])
        assert slice_.record_count == 0
        assert all(v == 0 for v in slice_.memory.snapshot())

    def test_empty_bulk_load_is_a_noop(self):
        slice_ = make_slice(3, 2, False, True, False)
        assert slice_.bulk_load([]) == 0
        assert slice_.record_count == 0
        assert slice_.stats.inserts == 0

    def test_group_dma_load_validates_images(self):
        config = make_config(3, 2, ternary=False)
        group = SliceGroup(
            config=config,
            slice_count=2,
            arrangement=Arrangement.VERTICAL,
            hash_function=ModuloHash(config.rows * 2),
            name="dma-test",
        )
        with pytest.raises(ConfigurationError):
            group.dma_load([[0] * config.rows])  # one image for two slices
        with pytest.raises(ConfigurationError):
            group.dma_load([[0] * 3, [0] * config.rows])  # short image


def make_format_slice(data_bits):
    """A binary 16-bit slice over 8 modulo-hashed buckets of 2 slots."""
    fmt = RecordFormat(key_bits=KEY_BITS, data_bits=data_bits)
    config = SliceConfig(
        index_bits=3,
        row_bits=8 + 2 * fmt.slot_bits,
        record_format=fmt,
        aux_bits=8,
    )
    return CARAMSlice(config, IndexGenerator(ModuloHash(8), 8))


class TestBulkLoadRejections:
    """The build's column parse rejects what ``insert`` rejects, before
    any row, mirror plane or counter moves."""

    @pytest.mark.parametrize(
        "key, datum, data_bits",
        [
            pytest.param(1 << KEY_BITS, 0, 8, id="key-too-wide"),
            pytest.param(-1, 0, 8, id="negative-key"),
            pytest.param(
                TernaryKey.exact(3, 8), 0, 8, id="ternary-key-of-another-width"
            ),
            pytest.param(
                TernaryKey(4, 0b11, KEY_BITS), 0, 8,
                id="dont-care-bits-in-a-binary-format",
            ),
            pytest.param(5, 256, 8, id="data-too-wide"),
            pytest.param(5, -1, 8, id="negative-data"),
            pytest.param(5, -1, 64, id="negative-data-in-a-64-bit-field"),
            pytest.param(5, 1, 0, id="data-without-a-data-field"),
        ],
    )
    def test_rejects_what_insert_rejects(self, key, datum, data_bits):
        scalar = make_format_slice(data_bits)
        with pytest.raises(KeyFormatError):
            scalar.insert(key, datum)
        assert scalar.record_count == 0

        keys, data = [3, key], [0, datum]
        forms = [
            ([(3, 0), (key, datum)],),
            (keys, data),
            (keys, np.array(data, dtype=np.int64)),
        ]
        if isinstance(key, int) and key >= 0:
            forms.append((np.array([[3], [key]], dtype=np.uint64), data))
        for args in forms:
            store = make_format_slice(data_bits)
            mirror = store._synced_mirror()
            planes = (mirror.valid.copy(), mirror.key_planes.copy(),
                      mirror.data_words.copy(), mirror.version)
            with pytest.raises(KeyFormatError):
                store.bulk_load(*args)
            assert store.record_count == 0
            assert store.stats == SearchStats()
            assert all(v == 0 for v in store.memory.snapshot())
            assert np.array_equal(mirror.valid, planes[0])
            assert np.array_equal(mirror.key_planes, planes[1])
            assert np.array_equal(mirror.data_words, planes[2])
            assert mirror.version == planes[3]

    def test_data_count_must_match_the_keys(self):
        store = make_format_slice(8)
        with pytest.raises(KeyFormatError):
            store.bulk_load([1, 2, 3], [0, 0])
        assert store.record_count == 0


class TestBulkLoadRecords:
    def _ternary_group(self):
        config = make_config(4, 3, ternary=True)
        hash_function = BitSelectHash(KEY_BITS, tuple(range(12, 16)))
        return lambda: SliceGroup(
            config=config,
            slice_count=2,
            arrangement=Arrangement.HORIZONTAL,
            hash_function=hash_function,
            slot_priority=value_priority,
            name="records",
        ), hash_function.position_mask

    def test_bulk_load_builds_no_record(self, monkeypatch):
        """Int, ``TernaryKey`` (multi-home included) and word-matrix input
        all reach the rows and the mirror as words."""
        factory, hash_mask = self._ternary_group()
        rng = random.Random(77)
        pairs = make_pairs(rng, 40, True, True, hash_mask)
        ints = [(rng.randrange(1 << KEY_BITS), rng.randrange(256))
                for _ in range(40)]
        inputs = [(pairs,), columnar_args(pairs), (ints,), columnar_args(ints)]
        assert isinstance(inputs[3][0], np.ndarray)
        stores = [factory() for _ in inputs]

        def refuse(*args, **kwargs):
            raise AssertionError("bulk_load built a Record")

        with monkeypatch.context() as patch:
            patch.setattr(Record, "__init__", refuse)
            for store, args in zip(stores, inputs):
                store.bulk_load(*args)
        assert stores[0].record_count > len(pairs)  # multi-home copies
        for store, records in zip(stores, (pairs, pairs, ints, ints)):
            assert_same_state(store, sequential_reference(factory, records)[0])
            assert_mirror_matches_rows(store)

    def test_first_results_after_a_build_fill_the_memo_once(self, monkeypatch):
        factory, hash_mask = self._ternary_group()
        pairs = make_pairs(random.Random(5), 40, True, True, hash_mask)
        store = factory()
        store.bulk_load(pairs)
        queries = [
            (key.value if isinstance(key, TernaryKey) else key)
            for key, _ in pairs
        ]
        built = []
        original = Record.__init__

        def counting(self, *args, **kwargs):
            built.append(args)
            original(self, *args, **kwargs)

        monkeypatch.setattr(Record, "__init__", counting)
        first = store.search_batch_columnar(queries).results()
        assert all(result.hit for result in first)
        assert len(built) == store.record_count  # every valid slot, once
        built.clear()
        assert store.search_batch_columnar(queries).results() == first
        assert not built
