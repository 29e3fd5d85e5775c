"""Unit tests for SliceGroup bulk evaluation/modification and the handle
delegation."""

import pytest

from repro.api import CaRamLibrary
from repro.core.config import Arrangement, SliceConfig
from repro.core.record import RecordFormat
from repro.core.subsystem import SliceGroup
from repro.hashing.base import ModuloHash
from repro.utils.bits import mask_of


def row_writes(group):
    """Log every physical row write from now on as ``(slice, row)``."""
    log = []
    for slice_id, array in enumerate(group._arrays):
        array.subscribe_invalidation(
            lambda start, count, slice_id=slice_id: log.extend(
                (slice_id, row) for row in range(start, start + count)
            )
        )
    return log


def make_group(arrangement=Arrangement.VERTICAL, slice_count=2):
    config = SliceConfig(
        index_bits=3, row_bits=128,
        record_format=RecordFormat(key_bits=16, data_bits=8),
    )
    buckets = (
        config.rows * slice_count
        if arrangement is Arrangement.VERTICAL
        else config.rows
    )
    return SliceGroup(
        config, slice_count, arrangement, ModuloHash(buckets), name="bulk"
    )


@pytest.mark.parametrize(
    "arrangement", [Arrangement.VERTICAL, Arrangement.HORIZONTAL]
)
class TestGroupBulkOps:
    def test_scan_everything(self, arrangement):
        group = make_group(arrangement)
        for k in range(30):
            group.insert(k, data=k)
        matches = group.scan()
        assert len(matches) == 30

    def test_scan_predicate(self, arrangement):
        group = make_group(arrangement)
        for k in range(30):
            group.insert(k, data=k)
        mask = mask_of(16) & ~0x7  # select low 3 bits == 0b101
        keys = sorted(
            record.key.value for _, _, record in group.scan(0x5, mask)
        )
        assert keys == [5, 13, 21, 29]

    def test_sweeps_read_every_row_of_every_slice(self, arrangement):
        group = make_group(arrangement)
        for k in range(30):
            group.insert(k, data=1)
        sweep = [group.config.rows] * group.slice_count

        def reads():
            return [array.stats.reads for array in group._arrays]

        before = reads()
        group.scan()
        after_scan = reads()
        assert [a - b for a, b in zip(after_scan, before)] == sweep
        group.update_where(0, mask_of(16), lambda r: 2)
        assert [a - b for a, b in zip(reads(), after_scan)] == sweep

    def test_update_where(self, arrangement):
        group = make_group(arrangement)
        for k in range(30):
            group.insert(k, data=1)
        modified = group.update_where(0, mask_of(16), lambda r: 9)
        assert modified == 30
        assert all(group.lookup(k) == 9 for k in range(30))

    def test_update_preserves_spilled_records(self, arrangement):
        group = make_group(arrangement)
        slots = group.slots_per_bucket
        buckets = group.bucket_count
        keys = [i * buckets for i in range(slots + 2)]  # overload bucket 0
        for key in keys:
            group.insert(key, data=1)
        group.update_where(0, mask_of(16), lambda r: 3)
        for key in keys:
            assert group.lookup(key) == 3


class TestPerSlotWrites:
    """Without slot priority, a write touches only the row it changes."""

    def fill_home(self, group, count):
        """Insert ``count`` keys that all hash to bucket 0."""
        for i in range(count):
            group.insert(i * group.bucket_count, data=1)

    def test_insert_writes_only_the_free_slots_row(self):
        group = make_group(Arrangement.HORIZONTAL)
        self.fill_home(group, group.config.slots_per_bucket)  # slice 0 full
        log = row_writes(group)
        group.insert(group.config.slots_per_bucket * group.bucket_count)
        assert log == [(1, 0)]

    def test_delete_writes_only_the_cleared_row(self):
        group = make_group(Arrangement.HORIZONTAL)
        self.fill_home(group, group.config.slots_per_bucket + 1)
        log = row_writes(group)
        assert group.delete(0) == 1
        assert log == [(0, 0)]
        # The cleared slot stays a hole until the next insert takes it.
        assert (0, 0) not in {(b, s) for b, s, _ in group.records()}
        group.insert(0, data=2)
        assert log == [(0, 0), (0, 0)]
        assert group.lookup(0) == 2

    def test_reach_raise_writes_only_the_homes_first_row(self):
        group = make_group(Arrangement.HORIZONTAL)
        self.fill_home(group, group.slots_per_bucket)  # bucket 0 full
        log = row_writes(group)
        spilled = group.slots_per_bucket * group.bucket_count
        group.insert(spilled, data=1)
        # The spilled record's row in bucket 1, then the home's reach.
        assert log == [(0, 1), (0, 0)]
        assert group.search(spilled).bucket_accesses == 2


class TestHandleDelegation:
    def test_scan_and_update_through_handle(self):
        lib = CaRamLibrary(slice_count=2, index_bits=4, row_bits=256)
        db = lib.allocate_database(
            "d", RecordFormat(key_bits=16, data_bits=8), slice_count=2
        )
        for k in range(20):
            db.insert(k * 3, data=0)
        assert len(db.scan()) == 20
        assert db.update_where(0, mask_of(16), lambda r: 4) == 20
        assert db.lookup(9) == 4
