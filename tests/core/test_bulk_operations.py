"""Unit tests for massive data evaluation and modification (§1 / §3.2)."""

import pytest

from repro.core.config import SliceConfig
from repro.core.index import make_index_generator
from repro.core.record import Record, RecordFormat
from repro.core.slice import CARAMSlice
from repro.hashing.base import ModuloHash
from repro.utils.bits import mask_of


def make_slice():
    record_format = RecordFormat(key_bits=16, data_bits=8)
    config = SliceConfig(
        index_bits=4,
        row_bits=8 + 8 * record_format.slot_bits,
        record_format=record_format,
        slots_override=8,
    )
    return CARAMSlice(config, make_index_generator(ModuloHash(16)))


@pytest.fixture
def populated():
    sl = make_slice()
    for k in range(60):
        sl.insert(k, data=k % 100)
    return sl


class TestScan:
    def test_scan_everything(self, populated):
        matches = populated.scan()
        assert len(matches) == 60
        keys = {record.key.value for _, _, record in matches}
        assert keys == set(range(60))

    def test_scan_count(self, populated):
        assert populated.scan_count() == 60

    def test_ternary_predicate(self, populated):
        # Select keys whose low 4 bits are 0b0011: 3, 19, 35, 51.
        mask = mask_of(16) & ~0xF  # care only about the low nibble
        matches = populated.scan(search_key=0x3, search_mask=mask)
        keys = sorted(record.key.value for _, _, record in matches)
        assert keys == [3, 19, 35, 51]

    def test_exact_predicate(self, populated):
        matches = populated.scan(search_key=42, search_mask=0)
        assert len(matches) == 1
        assert matches[0][2].data == 42

    def test_scan_count_builds_no_record(self, monkeypatch):
        """A fresh build's Record memo is empty; counting matches must
        not fill it."""
        sl = make_slice()
        sl.bulk_load([(k, k % 100) for k in range(60)])
        predicates = [
            (0, None), (0x3, mask_of(16) & ~0xF), (42, 0), (0xFFFF, 0)
        ]

        def refuse(*args, **kwargs):
            raise AssertionError("scan_count built a Record")

        reads = sl.memory.stats.reads
        with monkeypatch.context() as patch:
            patch.setattr(Record, "__init__", refuse)
            counts = [sl.scan_count(key, mask) for key, mask in predicates]
        assert sl.memory.stats.reads - reads == 16 * len(predicates)
        assert counts == [len(sl.scan(key, mask)) for key, mask in predicates]
        assert counts == [60, 4, 1, 0]

    def test_scan_costs_one_access_per_row(self, populated):
        before = populated.memory.stats.reads
        populated.scan()
        assert populated.memory.stats.reads - before == 16

    def test_empty_slice(self):
        assert make_slice().scan() == []


class TestUpdateWhere:
    def test_update_all(self, populated):
        full_mask = mask_of(16)
        modified = populated.update_where(0, full_mask, lambda r: 7)
        assert modified == 60
        for k in range(60):
            assert populated.lookup(k) == 7

    def test_update_subset(self, populated):
        mask = mask_of(16) & ~0xF
        modified = populated.update_where(0x3, mask, lambda r: 99)
        assert modified == 4
        assert populated.lookup(3) == 99
        assert populated.lookup(4) == 4 % 100  # untouched

    def test_transform_sees_old_record(self, populated):
        populated.update_where(
            0, mask_of(16), lambda record: (record.data + 1) % 256
        )
        for k in range(60):
            assert populated.lookup(k) == (k % 100 + 1) % 256

    def test_no_matches(self, populated):
        assert populated.update_where(0xFFFF, 0, lambda r: 1) == 0

    def test_keys_and_structure_preserved(self, populated):
        populated.update_where(0, mask_of(16), lambda r: 5)
        assert populated.record_count == 60
        assert populated.scan_count() == 60
