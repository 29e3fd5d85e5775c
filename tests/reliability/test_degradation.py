"""Graceful degradation end to end: restore, quarantine, victim overlay.

Drives a small CARAMSlice and a SliceGroup through manufactured faults
and checks the layer's one contract — detect or correct, never lie —
plus the bookkeeping around it (victims, retries, rebuild, telemetry).
"""

from collections import Counter

import numpy as np
import pytest

from repro.core.config import Arrangement, SliceConfig
from repro.core.index import make_index_generator
from repro.core.key import TernaryKey
from repro.core.record import Record, RecordFormat
from repro.core.slice import CARAMSlice
from repro.core.subsystem import SliceGroup
from repro.errors import CaRamError, ConfigurationError, ReliabilityError
from repro.hashing.base import ModuloHash
from repro.hashing.bit_select import BitSelectHash
from repro.reliability import manager as manager_module
from repro.reliability.faults import FaultConfig
from repro.reliability.manager import ReliabilityPolicy
from repro.utils.rng import make_rng

INDEX_BITS = 6
KEY_BITS = 32
DATA_BITS = 16


def _build_slice():
    config = SliceConfig(
        index_bits=INDEX_BITS,
        row_bits=256,
        record_format=RecordFormat(key_bits=KEY_BITS, data_bits=DATA_BITS),
    )
    positions = range(KEY_BITS - INDEX_BITS, KEY_BITS)
    gen = make_index_generator(BitSelectHash(KEY_BITS, list(positions)))
    return CARAMSlice(config, gen)


def _build_group(arrangement=Arrangement.HORIZONTAL, slice_count=2):
    config = SliceConfig(
        index_bits=INDEX_BITS,
        row_bits=256,
        record_format=RecordFormat(key_bits=KEY_BITS, data_bits=DATA_BITS),
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
    )


def _small_slice(slots, ternary=False, slot_priority=None):
    """16-bit keys, 8-bit data, 8 rows of ``slots`` slots, key mod 8."""
    fmt = RecordFormat(key_bits=16, data_bits=8, ternary=ternary)
    config = SliceConfig(
        index_bits=3, row_bits=8 + slots * fmt.slot_bits, record_format=fmt
    )
    return CARAMSlice(
        config,
        make_index_generator(ModuloHash(8)),
        slot_priority=slot_priority,
    )


def _stored_keys(target, seed=42):
    rng = make_rng(seed)
    keys = []
    seen = set()
    while len(keys) < target:
        key = int(rng.integers(0, 1 << KEY_BITS))
        if key not in seen:
            seen.add(key)
            keys.append(key)
    return keys


@pytest.fixture
def loaded_slice():
    slice_ = _build_slice()
    keys = _stored_keys(int(slice_.config.capacity_records * 0.5))
    slice_.bulk_load([(k, k & 0xFFFF) for k in keys])
    return slice_, keys


def _home(slice_, key):
    return slice_.index_generator.index(key)


class TestEnableDisable:
    def test_enable_installs_guards(self, loaded_slice):
        slice_, _ = loaded_slice
        manager = slice_.enable_reliability()
        assert slice_.reliability is manager
        assert slice_.memory.guard is not None
        slice_.disable_reliability()
        assert slice_.reliability is None
        assert slice_.memory.guard is None

    def test_lookups_unchanged_with_clean_layer(self, loaded_slice):
        slice_, keys = loaded_slice
        expected = [slice_.search(k).data for k in keys[:50]]
        slice_.enable_reliability()
        assert [slice_.search(k).data for k in keys[:50]] == expected


class TestRestore:
    def test_detected_corruption_restored_in_place(self, loaded_slice):
        slice_, keys = loaded_slice
        slice_.search_batch(keys[:4])  # warm the mirror (last-good copy)
        slice_.enable_reliability()
        target = _home(slice_, keys[0])
        expected = slice_.search(keys[0]).data
        slice_.memory._data[target] ^= 0b11  # double flip, one segment
        assert slice_.search(keys[0]).data == expected
        manager = slice_.reliability
        assert manager.restores == 1
        assert not manager.quarantined_buckets
        assert slice_.stats.lookup_retries >= 1

    def test_restore_budget_escalates_to_quarantine(
        self, loaded_slice, monkeypatch
    ):
        slice_, keys = loaded_slice
        slice_.search_batch(keys[:4])
        monkeypatch.setattr(manager_module, "RESTORE_ATTEMPTS", 0)
        slice_.enable_reliability()
        target = _home(slice_, keys[0])
        expected = slice_.search(keys[0]).data
        slice_.memory._data[target] ^= 0b11
        assert slice_.search(keys[0]).data == expected
        assert target in slice_.reliability.quarantined_buckets


    def test_restore_never_reverts_an_unsynced_write(self):
        """A row written since the mirror's last sync has a stale decode;
        restoring the bucket from it would silently drop the write."""
        fmt = RecordFormat(key_bits=16, data_bits=8)
        config = SliceConfig(
            index_bits=3, row_bits=8 + 4 * fmt.slot_bits, record_format=fmt
        )
        slice_ = CARAMSlice(config, make_index_generator(ModuloHash(8)))
        slice_.bulk_load([(k, k & 0xFF) for k in (1, 2, 3, 9, 10)])
        manager = slice_.enable_reliability()
        slice_.insert(17, 0x42)  # row 1, after the mirror's last decode
        flips = 0b11 << 26  # two adjacent bits of one ECC segment
        manager.guards[0].inject_access_fault(1, flips)
        for lookup in (
            lambda: slice_.search_batch([17])[0],
            lambda: slice_.search(17),
        ):
            try:
                result = lookup()
            except CaRamError:
                continue
            assert result.hit and result.data == 0x42
        assert slice_.record_count == 6
        # The write is still in the row: undo the flips and it reads back.
        manager.guards[0].inject_access_fault(1, flips)
        assert slice_.search_batch([17])[0].data == 0x42
        assert slice_.search(17).data == 0x42
        assert len(list(slice_.records())) == slice_.record_count

    def test_restore_writes_back_holes(self):
        """A restore writes the last-good rows back as they were: it does
        not close up the hole a delete left before a valid slot."""
        slice_ = _small_slice(slots=4)
        slice_.bulk_load([(k, k) for k in (1, 9, 17)])  # all in bucket 1
        slice_.delete(1)  # slot 0 becomes a hole before 9 and 17
        slice_.search_batch([9])  # the mirror decodes the holed row
        manager = slice_.enable_reliability()
        before = slice_.memory.snapshot()
        manager.guards[0].inject_access_fault(1, 0b11)
        assert slice_.search(17).data == 17
        assert manager.restores == 1
        assert slice_.memory.snapshot() == before

    def test_restore_keeps_records_inserted_into_a_spared_bucket(self):
        """A spared bucket stores new records; restoring it writes them
        back instead of emptying it, which lost them silently."""
        slice_ = _small_slice(slots=4)
        slice_.bulk_load([(k, k) for k in (1, 2, 9)])
        manager = slice_.enable_reliability()
        assert manager.quarantine_bucket(1) == 2
        slice_.insert(17, 17)  # bucket 1 is a healthy spare row now
        slice_.search_batch([17])  # the mirror decodes it
        manager.guards[0].inject_access_fault(1, 0b11)
        assert slice_.search(17).data == 17
        assert manager.restores == 1
        assert len(list(slice_.records())) == slice_.record_count == 2

    def test_write_paths_build_records_only_for_victims(self, monkeypatch):
        """Deletes and restores work on words; a sorted insert builds the
        one Record it was given, a quarantine one per victim."""
        def longer_first(keys, masks, data):
            return 16 - np.bitwise_count(masks).sum(axis=1)

        slice_ = _small_slice(4, ternary=True, slot_priority=longer_first)
        keys = {k: TernaryKey.exact(k, 16) for k in (1, 9, 17, 2, 10)}
        slice_.bulk_load([(key, k) for k, key in keys.items()])
        manager = slice_.enable_reliability()
        built = Counter()
        for cls in (Record, TernaryKey):
            def counting(self, *args, _init=cls.__init__, **kwargs):
                built[type(self).__name__] += 1
                _init(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", counting)
        slice_.delete(keys[9])
        assert built == Counter()
        slice_.insert(keys[9], 9)
        assert built == Counter(Record=1)
        built.clear()
        slice_._synced_mirror()  # the last-good image of bucket 1
        manager.guards[0].inject_access_fault(1, 0b11)
        assert manager.restore_bucket(1)
        assert built == Counter()
        assert manager.quarantine_bucket(1) == 3
        assert built == Counter(Record=3, TernaryKey=3)


class TestWholeDatabaseReads:
    @pytest.mark.parametrize("first", ["records", "scan"])
    def test_reads_repair_a_detected_fault(self, first):
        """``records()`` and ``scan()`` sync the mirror under the repair
        loop a lookup uses: a detected fault is restored, not raised."""
        slice_ = _small_slice(slots=2)
        slice_.bulk_load([(k, k) for k in (1, 2, 3, 9)])
        slice_.search_batch([1])
        manager = slice_.enable_reliability()
        manager.guards[0].inject_access_fault(1, 0b11)
        readers = {
            "records": lambda: list(slice_.records()),
            "scan": slice_.scan,
        }
        for name in (first, *(n for n in readers if n != first)):
            stored = sorted((r.key.value, r.data) for *_, r in readers[name]())
            assert stored == [(1, 1), (2, 2), (3, 3), (9, 9)]
            assert manager.restores == 1


class TestQuarantine:
    def test_dead_row_records_still_found(self, loaded_slice):
        slice_, keys = loaded_slice
        target = _home(slice_, keys[0])
        slice_.enable_reliability(faults=FaultConfig(dead_rows=(target,)))
        for key in keys:
            result = slice_.search(key)
            assert result.hit and result.data == key & 0xFFFF
        manager = slice_.reliability
        assert target in manager.quarantined_buckets
        assert manager.victims
        assert slice_.stats.quarantines >= 1
        assert slice_.stats.victim_hits >= 1

    def test_batch_equals_scalar_under_quarantine(self, loaded_slice):
        slice_, keys = loaded_slice
        target = _home(slice_, keys[0])
        slice_.enable_reliability(faults=FaultConfig(dead_rows=(target,)))
        rng = make_rng(9)
        queries = keys + [
            int(k) for k in rng.integers(0, 1 << KEY_BITS, size=100)
        ]
        scalar = [
            (r.hit, r.data if r.hit else None)
            for r in map(slice_.search, queries)
        ]
        batch = [
            (r.hit, r.data if r.hit else None)
            for r in slice_.search_batch(queries)
        ]
        assert batch == scalar

    def test_victim_store_capacity_enforced(self, loaded_slice, monkeypatch):
        slice_, keys = loaded_slice
        target = _home(slice_, keys[0])
        monkeypatch.setattr(manager_module, "RESTORE_ATTEMPTS", 0)
        slice_.enable_reliability(
            ReliabilityPolicy(victim_capacity=0),
            FaultConfig(dead_rows=(target,)),
        )
        with pytest.raises(ReliabilityError):
            slice_.search(keys[0])

    def test_rebuild_reabsorbs_victims(self, loaded_slice):
        slice_, keys = loaded_slice
        target = _home(slice_, keys[0])
        slice_.enable_reliability(faults=FaultConfig(dead_rows=(target,)))
        slice_.search(keys[0])  # trigger the quarantine
        manager = slice_.reliability
        assert manager.victims
        slice_.rebuild()
        assert not manager.victims
        assert not manager.quarantined_buckets
        for key in keys:
            assert slice_.search(key).data == key & 0xFFFF


class TestGroupDegradation:
    @pytest.mark.parametrize(
        "arrangement", [Arrangement.HORIZONTAL, Arrangement.VERTICAL]
    )
    def test_dead_row_survival_both_arrangements(self, arrangement):
        group = _build_group(arrangement)
        keys = _stored_keys(int(group.capacity_records * 0.4))
        group.bulk_load([(k, k & 0xFFFF) for k in keys])
        group.enable_reliability(
            faults=FaultConfig(dead_rows=(3, 17), dead_row_count=1, seed=2)
        )
        for key in keys:
            result = group.search(key)
            assert result.hit and result.data == key & 0xFFFF
        scalar = [(r.hit, r.data) for r in map(group.search, keys)]
        batch = [(r.hit, r.data) for r in group.search_batch(keys)]
        assert batch == scalar

    def test_telemetry_provider_exports_reliability(self):
        from repro.telemetry.metrics import MetricsRegistry

        group = _build_group()
        keys = _stored_keys(20)
        group.bulk_load([(k, 1) for k in keys])
        registry = MetricsRegistry()
        group.register_telemetry(registry, prefix="g")
        group.enable_reliability(faults=FaultConfig(dead_rows=(0,)))
        snapshot = registry.snapshot()
        assert snapshot["stats"]["g.reliability"]["ecc"] is True


class TestPolicyValidation:
    def test_bad_policy_rejected(self):
        with pytest.raises(ConfigurationError):
            ReliabilityPolicy(max_retries=-1)
        with pytest.raises(ConfigurationError):
            ReliabilityPolicy(victim_capacity=-1)
