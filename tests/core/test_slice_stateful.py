"""Stateful property test: a CA-RAM slice against a dictionary model.

Hypothesis drives random interleavings of insert / delete / search /
batch search / rebuild / clear / bulk reload and checks, after every step,
that the slice agrees with a plain dict on membership, data, stored
records and record count — the batch path's mirror and its Record memo
included.
"""

import hypothesis.strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.core.config import SliceConfig
from repro.core.index import make_index_generator
from repro.core.record import RecordFormat
from repro.core.slice import CARAMSlice
from repro.errors import CapacityError
from repro.hashing.base import ModuloHash

INDEX_BITS = 4
ROWS = 1 << INDEX_BITS
SLOTS = 3
CAPACITY = ROWS * SLOTS

KEYS = st.integers(min_value=0, max_value=255)
DATA = st.integers(min_value=0, max_value=255)


def build_slice() -> CARAMSlice:
    record_format = RecordFormat(key_bits=8, data_bits=8)
    config = SliceConfig(
        index_bits=INDEX_BITS,
        row_bits=8 + SLOTS * record_format.slot_bits,
        record_format=record_format,
        slots_override=SLOTS,
    )
    return CARAMSlice(config, make_index_generator(ModuloHash(ROWS)))


class SliceMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.caram = build_slice()
        self.model = {}

    @rule(key=KEYS, data=DATA)
    def insert(self, key, data):
        if key in self.model:
            # The behavioral model stores duplicates; keep the state
            # machine simple by skipping keys already present.
            return
        if len(self.model) >= CAPACITY:
            return
        try:
            self.caram.insert(key, data)
        except CapacityError:
            # Legal when probing is reach-limited; the key is absent.
            assert not self.caram.search(key).hit
            return
        self.model[key] = data

    @rule(key=KEYS)
    def delete(self, key):
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
        self.model.update(pairs)

    @rule()
    def rebuild(self):
        self.caram.rebuild()

    @precondition(lambda self: len(self.model) > 0)
    @rule()
    def clear(self):
        self.caram.clear()
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
    def load_factor_bounded(self):
        assert 0.0 <= self.caram.load_factor <= 1.0


TestSliceStateMachine = SliceMachine.TestCase
