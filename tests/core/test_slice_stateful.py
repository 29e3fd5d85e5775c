"""Stateful property test: a CA-RAM slice against a dictionary model.

Hypothesis drives random interleavings of insert / delete / flap /
search / batch search / rebuild / clear / bulk reload and checks, after
every step, that the slice agrees with a plain dict on membership, data,
stored records and record count — the batch path's mirror and its Record
memo included.  It also checks every physical row, reach field included,
against :class:`BucketModel`: the bucket write rules replayed on the
scalar codec.  Variants run a sorted slice whose priority ties often and
a sorted two-slice horizontal group, and share the one example budget.
"""

import hypothesis.strategies as st
from hypothesis import settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.core.config import Arrangement, SliceConfig
from repro.core.index import make_index_generator
from repro.core.key import TernaryKey
from repro.core.record import Record, RecordFormat
from repro.core.slice import CARAMSlice
from repro.core.subsystem import SliceGroup
from repro.errors import CapacityError
from repro.hashing.base import ModuloHash

INDEX_BITS = 4
ROWS = 1 << INDEX_BITS
SLOTS = 3
CAPACITY = ROWS * SLOTS

#: Half the keys share home bucket 0, so it fills, spills, raises its
#: reach and takes holes from deletes; the rest spread over all rows.
KEYS = st.one_of(
    st.integers(min_value=0, max_value=255),
    st.integers(min_value=0, max_value=7).map(lambda lap: lap * ROWS),
)
DATA = st.integers(min_value=0, max_value=255)

#: The examples the one-slice machine ran alone, shared by the variants.
EXAMPLES = 100


def build_config() -> SliceConfig:
    record_format = RecordFormat(key_bits=8, data_bits=8)
    return SliceConfig(
        index_bits=INDEX_BITS,
        row_bits=8 + SLOTS * record_format.slot_bits,
        record_format=record_format,
        slots_override=SLOTS,
    )


def build_slice(slot_priority=None) -> CARAMSlice:
    return CARAMSlice(
        build_config(),
        make_index_generator(ModuloHash(ROWS)),
        slot_priority=slot_priority,
    )


def column_priority(keys, masks, data):
    """A tie-heavy sorted-bucket priority over word columns."""
    return keys[:, 0] % 3


def record_priority(record):
    """:func:`column_priority` of one Record, for the reference model."""
    return record.key.value % 3


class BucketModel:
    """Reference bucket store: row images kept with ``read_all``/``pack``.

    An insert takes the first free slot on the home's linear-probe walk,
    or with a priority splices the record in before the first occupant of
    strictly lower priority and re-packs the occupants from slot 0; it
    raises the home's reach to the walk's length.  A delete clears the
    first slot holding the key on the home's walk up to its reach.
    """

    def __init__(self, group, priority=None):
        self.geometry = group.geometry
        self.layout = group.config.layout
        self.index = group.index_generator
        self.priority = priority
        self.limit = min(self.layout.max_reach, self.geometry.bucket_count - 1)
        self.clear()

    def clear(self):
        geometry = self.geometry
        self.rows = [[0] * geometry.rows for _ in range(geometry.slices)]

    def slots(self, bucket):
        """The bucket's records in slot order, None in empty slots."""
        return [
            record if valid else None
            for slice_id, row in self.geometry.rows_of(bucket)
            for valid, record in self.layout.read_all(self.rows[slice_id][row])
        ]

    def reach(self, bucket):
        slice_id, row = self.geometry.rows_of(bucket)[0]
        return self.layout.read_aux(self.rows[slice_id][row])

    def write(self, bucket, slots, reach):
        geometry = self.geometry
        for i, (slice_id, row) in enumerate(geometry.rows_of(bucket)):
            first = geometry.slot_offset(slice_id)
            self.rows[slice_id][row] = self.layout.pack(
                slots[first : first + geometry.slots], reach if i == 0 else 0
            )

    def probe(self, home, attempt):
        return (home + attempt) % self.geometry.bucket_count

    def insert(self, record) -> bool:
        home = self.index.index(record.key)
        for attempt in range(self.limit + 1):
            bucket = self.probe(home, attempt)
            slots = self.slots(bucket)
            if None not in slots:
                continue
            if self.priority is None:
                slots[slots.index(None)] = record
            else:
                stored = [other for other in slots if other is not None]
                rank = self.priority(record)
                position = next(
                    (
                        i
                        for i, other in enumerate(stored)
                        if self.priority(other) < rank
                    ),
                    len(stored),
                )
                stored.insert(position, record)
                slots = stored + [None] * (len(slots) - len(stored))
            self.write(bucket, slots, self.reach(bucket))
            if attempt > self.reach(home):
                self.write(home, self.slots(home), attempt)
            return True
        return False

    def delete(self, key) -> bool:
        home = self.index.index(key)
        for attempt in range(self.reach(home) + 1):
            bucket = self.probe(home, attempt)
            slots = self.slots(bucket)
            for i, record in enumerate(slots):
                if record is not None and record.key == key:
                    slots[i] = None
                    self.write(bucket, slots, self.reach(bucket))
                    return True
        return False

    def rebuild(self):
        stored = [
            record
            for bucket in range(self.geometry.bucket_count)
            for record in self.slots(bucket)
            if record is not None
        ]
        self.clear()
        if self.priority is not None:
            stored.sort(key=self.priority, reverse=True)
        for record in stored:
            assert self.insert(record)


class SliceMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.caram = self.build()
        self.buckets = BucketModel(self.caram, self.model_priority())
        self.model = {}

    def build(self) -> SliceGroup:
        return build_slice()

    def model_priority(self):
        return None

    def record(self, key, data=0) -> Record:
        return Record(TernaryKey.exact(key, 8), data)

    @rule(key=KEYS, data=DATA)
    def insert(self, key, data):
        if key in self.model:
            # The behavioral model stores duplicates; keep the state
            # machine simple by skipping keys already present.
            return
        if len(self.model) >= CAPACITY:
            return
        placed = self.buckets.insert(self.record(key, data))
        try:
            self.caram.insert(key, data)
        except CapacityError:
            # Legal when probing is reach-limited; the key is absent.
            assert not placed
            assert not self.caram.search(key).hit
            return
        assert placed
        self.model[key] = data

    @rule(key=KEYS)
    def delete(self, key):
        cleared = self.buckets.delete(self.record(key).key)
        assert cleared == (key in self.model)
        if key in self.model:
            removed = self.caram.delete(key)
            assert removed == 1
            del self.model[key]
        else:
            from repro.errors import LookupError_

            try:
                self.caram.delete(key)
            except LookupError_:
                pass
            else:  # pragma: no cover - would be a bug
                raise AssertionError("delete of absent key succeeded")

    @rule(key=KEYS, data=DATA)
    def flap(self, key, data):
        """A route flap: delete a stored key and insert it again."""
        if key in self.model:
            self.delete(key)
            self.insert(key, data)

    @rule(key=KEYS)
    def search(self, key):
        result = self.caram.search(key)
        if key in self.model:
            assert result.hit
            assert result.data == self.model[key]
        else:
            assert not result.hit

    @rule(keys=st.lists(KEYS, max_size=8))
    def search_batch(self, keys):
        for key, got in zip(keys, self.caram.search_batch(keys)):
            want = self.caram.search(key)
            assert (
                got.hit, got.record, got.row, got.slot, got.bucket_accesses
            ) == (
                want.hit, want.record, want.row, want.slot,
                want.bucket_accesses,
            )

    @precondition(lambda self: not self.model)
    @rule(pairs=st.dictionaries(KEYS, DATA, max_size=CAPACITY // 2))
    def bulk_reload(self, pairs):
        self.caram.bulk_load(list(pairs.items()))
        for key, data in pairs.items():
            assert self.buckets.insert(self.record(key, data))
        self.model.update(pairs)

    @rule()
    def rebuild(self):
        self.caram.rebuild()
        self.buckets.rebuild()

    @precondition(lambda self: len(self.model) > 0)
    @rule()
    def clear(self):
        self.caram.clear()
        self.buckets.clear()
        self.model.clear()

    @invariant()
    def record_count_matches(self):
        assert self.caram.record_count == len(self.model)

    @invariant()
    def stored_records_match(self):
        stored = [
            (record.key.value, record.data)
            for _, _, record in self.caram.records()
        ]
        assert sorted(stored) == sorted(self.model.items())
        assert self.caram.scan_count() == len(self.model)

    @invariant()
    def rows_match_bucket_model(self):
        for array, rows in zip(self.caram._arrays, self.buckets.rows):
            assert array.snapshot() == rows
        assert self.caram.reach_fields() == [
            self.buckets.reach(bucket)
            for bucket in range(self.caram.bucket_count)
        ]

    @invariant()
    def load_factor_bounded(self):
        assert 0.0 <= self.caram.load_factor <= 1.0


class SortedSliceMachine(SliceMachine):
    """Buckets kept in a priority order that ties often."""

    def build(self) -> SliceGroup:
        return build_slice(slot_priority=column_priority)

    def model_priority(self):
        return record_priority


class HorizontalSliceMachine(SortedSliceMachine):
    """Sorted buckets spanning the same row of two slices."""

    def build(self) -> SliceGroup:
        return SliceGroup(
            build_config(),
            2,
            Arrangement.HORIZONTAL,
            ModuloHash(ROWS),
            slot_priority=column_priority,
        )


_SHARE = settings(max_examples=EXAMPLES // 3, deadline=None)
TestSliceStateMachine = SliceMachine.TestCase
TestSliceStateMachine.settings = _SHARE
TestSortedSliceStateMachine = SortedSliceMachine.TestCase
TestSortedSliceStateMachine.settings = _SHARE
TestHorizontalSliceStateMachine = HorizontalSliceMachine.TestCase
TestHorizontalSliceStateMachine.settings = _SHARE
