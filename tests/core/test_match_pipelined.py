"""Unit tests for pipelined matching (P < S configurations)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import SliceConfig
from repro.core.index import make_index_generator
from repro.core.key import TernaryKey
from repro.core.match import MatchProcessor, priority_encode_batch
from repro.core.record import Record, RecordFormat
from repro.core.slice import CARAMSlice
from repro.errors import KeyFormatError
from repro.hashing.base import ModuloHash

FMT = RecordFormat(key_bits=8, data_bits=8)


def candidate(value, data=0, valid=True):
    return (valid, Record(key=TernaryKey.exact(value, 8), data=data))


class TestMatchPipelined:
    def test_single_pass_when_p_covers_slots(self):
        mp = MatchProcessor(8)
        candidates = [candidate(i) for i in range(4)]
        result, passes = mp.match_pipelined(candidates, 2, processors=8)
        assert passes == 1
        assert result.matched_slot == 2

    def test_none_means_full_parallel(self):
        mp = MatchProcessor(8)
        candidates = [candidate(i) for i in range(10)]
        _, passes = mp.match_pipelined(candidates, 9, processors=None)
        assert passes == 1

    def test_multiple_passes(self):
        mp = MatchProcessor(8)
        candidates = [candidate(i) for i in range(8)]
        result, passes = mp.match_pipelined(candidates, 7, processors=2)
        assert result.matched_slot == 7
        assert passes == 4

    def test_early_stop_on_match(self):
        mp = MatchProcessor(8)
        candidates = [candidate(i) for i in range(8)]
        result, passes = mp.match_pipelined(candidates, 1, processors=2)
        assert result.matched_slot == 1
        assert passes == 1  # found in the first chunk

    def test_priority_preserved_across_passes(self):
        mp = MatchProcessor(8)
        # Duplicate keys in different chunks: the lower slot must win.
        candidates = [candidate(9, data=1), candidate(0), candidate(9, data=2)]
        result, passes = mp.match_pipelined(candidates, 9, processors=1)
        assert result.matched_slot == 0
        assert result.record.data == 1
        assert passes == 1

    def test_miss_scans_all_passes(self):
        mp = MatchProcessor(8)
        candidates = [candidate(i) for i in range(6)]
        result, passes = mp.match_pipelined(candidates, 99, processors=2)
        assert not result.hit
        assert passes == 3

    def test_bad_processor_count(self):
        mp = MatchProcessor(8)
        with pytest.raises(KeyFormatError):
            mp.match_pipelined([candidate(0), candidate(1)], 0, processors=0)


class TestConfigMatchPasses:
    def make_config(self, processors):
        return SliceConfig(
            index_bits=3,
            row_bits=8 + 8 * FMT.slot_bits,
            record_format=FMT,
            slots_override=8,
            match_processors=processors,
        )

    def test_default_is_one_pass(self):
        config = self.make_config(None)
        assert config.match_processor_count == 8
        assert config.match_passes == 1

    def test_half_processors_two_passes(self):
        config = self.make_config(4)
        assert config.match_passes == 2

    def test_ceil_division(self):
        config = self.make_config(3)
        assert config.match_passes == 3

    def test_invalid_count(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            self.make_config(0)


class TestSliceWithFewProcessors:
    def make_slice(self, processors):
        config = SliceConfig(
            index_bits=3,
            row_bits=8 + 8 * FMT.slot_bits,
            record_format=FMT,
            slots_override=8,
            match_processors=processors,
        )
        return CARAMSlice(config, make_index_generator(ModuloHash(8)))

    def test_results_identical_to_full_parallel(self):
        full = self.make_slice(None)
        narrow = self.make_slice(2)
        for sl in (full, narrow):
            for k in range(40):
                sl.insert(k, data=k % 100)
        for k in range(40):
            assert full.search(k).data == narrow.search(k).data

    def test_pass_accounting(self):
        sl = self.make_slice(2)
        sl.insert(0, data=1)
        sl.search(99999 % 256)  # a miss scans all 4 chunks
        assert sl.stats.total_match_passes >= 4
        assert sl.stats.average_match_passes > 1.0

    def test_latency_includes_passes(self):
        narrow = self.make_slice(2)
        full = self.make_slice(None)
        narrow.insert(1, data=1)
        full.insert(1, data=1)
        narrow_result = narrow.search(1)
        full_result = full.search(1)
        assert narrow.search_latency_cycles(narrow_result) > (
            full.search_latency_cycles(full_result)
        )


class TestPriorityEncodeBatchOracle:
    """``priority_encode_batch`` against ``match_pipelined``, row by row."""

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_agrees_with_match_pipelined(self, data):
        rows = data.draw(st.integers(0, 12))
        # Whole 8-byte rows take the popcount path when contiguous.
        slots = data.draw(
            st.integers(1, 130) | st.sampled_from([8, 64, 96, 128])
        )
        processors = data.draw(
            st.sampled_from([None, 1, 2, 3, 7, slots, slots + 3])
        )
        hits = data.draw(st.lists(
            st.sets(st.integers(0, slots - 1), max_size=min(slots, 8)),
            min_size=rows,
            max_size=rows,
        ))
        # Half the matrices are a column slice of a wider one, whose other
        # columns all match: non-contiguous rows take the counting path.
        offset = data.draw(st.none() | st.integers(0, 9))
        if offset is None:
            match = np.zeros((rows, slots), dtype=bool)
        else:
            wide = np.ones((rows, offset + slots + 7), dtype=bool)
            match = wide[:, offset : offset + slots]
            match[...] = False
        for row, matched in enumerate(hits):
            match[row, sorted(matched)] = True
        hit, slot, passes, multiple = priority_encode_batch(match, processors)

        mp = MatchProcessor(8)
        for row, matched in enumerate(hits):
            # Slot s holds key 1 when it matched the search key 1, else 0.
            candidates = [candidate(int(s in matched)) for s in range(slots)]
            result, want_passes = mp.match_pipelined(
                candidates, 1, processors=processors
            )
            want_slot = -1 if result.matched_slot is None else result.matched_slot
            assert bool(hit[row]) == result.hit
            assert int(slot[row]) == want_slot
            assert int(passes[row]) == want_passes
            assert bool(multiple[row]) == result.multiple_matches
