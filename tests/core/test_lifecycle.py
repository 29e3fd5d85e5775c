"""Explicit teardown: close()/context-manager on slice, group, subsystem.

The serving tier drains shards and then closes them; these tests pin the
contract that close() drops the batch engine everywhere in the composition
hierarchy, is idempotent, and leaves the structure lazily reusable.
"""

from repro.core.config import Arrangement, SliceConfig
from repro.core.index import IndexGenerator
from repro.core.record import RecordFormat
from repro.core.slice import CARAMSlice
from repro.core.subsystem import CARAMSubsystem, SliceGroup
from repro.hashing.base import ModuloHash


def make_config():
    return SliceConfig(
        index_bits=3,
        row_bits=128,
        record_format=RecordFormat(key_bits=16, data_bits=8),
    )


def make_slice():
    config = make_config()
    return CARAMSlice(
        config, IndexGenerator(ModuloHash(config.rows), config.rows)
    )


def make_group(name="db"):
    config = make_config()
    return SliceGroup(
        config=config,
        slice_count=2,
        arrangement=Arrangement.VERTICAL,
        hash_function=ModuloHash(config.rows * 2),
        name=name,
    )


class TestSliceClose:
    def test_close_releases_engine_and_is_idempotent(self):
        slice_ = make_slice()
        slice_.insert(1, 2)
        slice_.search_batch([1, 3])
        assert slice_._batch_engine is not None
        slice_.close()
        assert slice_._batch_engine is None
        slice_.close()  # idempotent

    def test_closed_slice_lazily_rebuilds(self):
        slice_ = make_slice()
        slice_.insert(1, 2)
        slice_.search_batch([1])
        slice_.close()
        assert slice_.search_batch([1])[0].data == 2

    def test_context_manager(self):
        with make_slice() as slice_:
            slice_.insert(4, 5)
            slice_.search_batch([4])
        assert slice_._batch_engine is None


class TestGroupClose:
    def test_close_releases_group_engine(self):
        group = make_group()
        group.bulk_load([(1, 2), (3, 4)])
        group.search_batch([1, 3])
        assert group._batch_engine is not None
        group.close()
        assert group._batch_engine is None
        group.close()

    def test_context_manager(self):
        with make_group() as group:
            group.bulk_load([(1, 2)])
            group.search_batch([1])
        assert group._batch_engine is None


class TestSubsystemClose:
    def test_close_reaches_every_group(self):
        subsystem = CARAMSubsystem()
        subsystem.add_group(make_group("a"))
        subsystem.add_group(make_group("b"))
        subsystem.bulk_load("a", [(1, 2)])
        subsystem.bulk_load("b", [(3, 4)])
        subsystem.search_batch_columnar("a", [1]).results()
        subsystem.search_batch_columnar("b", [3]).results()
        groups = [subsystem.group("a"), subsystem.group("b")]
        assert all(g._batch_engine is not None for g in groups)
        subsystem.close()
        assert all(g._batch_engine is None for g in groups)

    def test_context_manager(self):
        with CARAMSubsystem() as subsystem:
            subsystem.add_group(make_group("a"))
            subsystem.bulk_load("a", [(1, 2)])
            assert subsystem.search("a", 1).data == 2
        assert subsystem.group("a")._batch_engine is None
