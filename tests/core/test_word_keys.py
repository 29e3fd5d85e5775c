"""The batch path's key forms: a word matrix, an int list, scalar keys.

``search_batch_columnar`` takes its keys as a ``(n, words)`` uint64 word
matrix or as a sequence of ints and ``TernaryKey`` s.  Both must give the
per-key scalar ``search`` answer: the same result columns, data values,
materialized results and ``SearchStats``.  A malformed batch is refused
with :class:`KeyFormatError` before any counter moves.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cam.tcam import TCAM
from repro.core.config import Arrangement, SliceConfig
from repro.core.key import TernaryKey
from repro.core.probing import DoubleHashing, QuadraticProbing
from repro.core.record import RecordFormat
from repro.core.stats import SearchStats
from repro.core.subsystem import SliceGroup
from repro.errors import CapacityError, KeyFormatError
from repro.hashing.bit_select import BitSelectHash
from repro.memory.mirror import keys_to_words

COLUMNS = ("hit", "row", "slot", "bucket_accesses", "multiple_matches")


def snapshot(stats: SearchStats) -> SearchStats:
    copy = SearchStats()
    copy.merge(stats)
    return copy


@st.composite
def word_path_cases(draw):
    """A small group (8 buckets) with stored records, and a query batch.

    Half the widths sit at a plane-width or word boundary.  The probing
    policy is linear, quadratic or double hashing: the batch walk's three
    ``probe_batch`` forms."""
    bits = draw(
        st.sampled_from([31, 32, 33, 64, 65])
        if draw(st.booleans())
        else st.integers(min_value=8, max_value=130)
    )
    top = (1 << bits) - 1
    key_values = st.integers(min_value=0, max_value=top)
    ternary = draw(st.booleans())
    three_positions = st.lists(
        st.integers(0, bits - 1), min_size=3, max_size=3, unique=True
    )
    positions = draw(three_positions)
    probing = draw(
        st.none()
        | st.just(QuadraticProbing())
        | three_positions.map(
            lambda step: DoubleHashing(BitSelectHash(bits, step))
        )
    )
    records = []
    for value in draw(st.lists(key_values, max_size=14)):
        mask = draw(st.just(0) | key_values) if ternary else 0
        key = TernaryKey(value=value, mask=mask, width=bits) if mask else value
        records.append((key, value & 0xFF))
    stored = [getattr(key, "value", key) for key, _ in records]
    queries = draw(
        st.lists(
            st.sampled_from(stored) | key_values if stored else key_values,
            max_size=24,
        )
    )
    return {
        "bits": bits,
        "ternary": ternary,
        "positions": positions,
        "probing": probing,
        "slice_count": draw(st.sampled_from([1, 2])),
        "overflow": draw(st.booleans()),
        "records": records,
        "queries": queries,
        "search_mask": draw(st.just(0) | key_values),
    }


def build_group(case) -> SliceGroup:
    bits = case["bits"]
    record_format = RecordFormat(
        key_bits=bits, data_bits=8, ternary=case["ternary"]
    )
    config = SliceConfig(
        index_bits=3,
        row_bits=8 + 2 * record_format.slot_bits,
        record_format=record_format,
        aux_bits=8,
    )
    group = SliceGroup(
        config,
        case["slice_count"],
        Arrangement.HORIZONTAL,
        BitSelectHash(bits, case["positions"]),
        probing=case["probing"],
    )
    if case["overflow"]:
        group.attach_overflow(TCAM(4, bits))
    for key, data in case["records"]:
        try:
            group.insert(key, data)
        except CapacityError:
            pass
    return group


class TestKeyFormsAgree:
    @settings(max_examples=150, deadline=None)
    @given(word_path_cases())
    @example(
        # Eight keys crowd one home: quadratic probing stores them at
        # attempts 0-3, where its rows part from linear probing's.
        {
            "bits": 32, "ternary": False, "positions": [0, 1, 2],
            "probing": QuadraticProbing(), "slice_count": 1,
            "overflow": False, "records": [(k, k) for k in range(8)],
            "queries": list(range(10)), "search_mask": 0,
        }
    )
    def test_words_ints_and_scalar_agree(self, case):
        group = build_group(case)
        queries, mask = case["queries"], case["search_mask"]

        group.stats.reset()
        scalar = [group.search(q, mask) for q in queries]
        scalar_stats = snapshot(group.stats)

        runs = {}
        for form, keys in (
            ("ints", list(queries)),
            ("words", keys_to_words(queries, case["bits"])),
        ):
            group.stats.reset()
            result_set = group.search_batch_columnar(keys, mask)
            assert group.stats == scalar_stats, form
            runs[form] = result_set
        for name in COLUMNS:
            assert np.array_equal(
                getattr(runs["words"], name), getattr(runs["ints"], name)
            ), name
        expected = [r.data if r.hit else None for r in scalar]
        for result_set in runs.values():
            assert result_set.data_values() == expected
            assert result_set.results() == scalar

    def test_uint64_column_and_int_list_agree(self):
        case = {
            "bits": 32, "ternary": False, "positions": [20, 21, 22],
            "probing": None, "slice_count": 1, "overflow": False,
            "records": [(k * 4099, k) for k in range(12)],
        }
        group = build_group(case)
        queries = [k * 4099 for k in range(16)]
        column = np.asarray(queries, dtype=np.uint64)
        assert (
            group.search_batch_columnar(column).data_values()
            == group.search_batch_columnar(queries).data_values()
            == [group.lookup(q) for q in queries]
        )


def assert_rejected(group, keys):
    """``keys`` raise ``KeyFormatError`` before any counter moves."""
    before = snapshot(group.stats)
    fetches = group.physical_row_fetches
    rows = group.batch_engine.columnar_rows
    with pytest.raises(KeyFormatError):
        group.search_batch_columnar(keys)
    assert group.stats == before
    assert group.physical_row_fetches == fetches
    assert group.batch_engine.columnar_rows == rows


class TestRejectedBatches:
    @pytest.fixture
    def group(self):
        case = {
            "bits": 100, "ternary": False, "positions": [0, 50, 99],
            "probing": None, "slice_count": 1, "overflow": False,
            "records": [(3, 1), (1 << 90, 2)],
        }
        group = build_group(case)
        group.search_batch([3])  # build the engine and the mirror
        return group

    @pytest.mark.parametrize(
        "keys",
        [
            pytest.param(np.zeros((2, 2), dtype=np.int64), id="int64-words"),
            pytest.param(np.zeros((2, 2), dtype=">u8"), id="big-endian-words"),
            pytest.param(np.zeros((2, 1), dtype=np.uint64), id="one-word"),
            pytest.param(np.zeros((2, 3), dtype=np.uint64), id="three-words"),
            pytest.param(
                np.array([[0, 0], [0, 1 << 36]], dtype=np.uint64),
                id="bit-100",
            ),
            pytest.param([3, -1], id="negative-int"),
            pytest.param(np.array([3, -1]), id="negative-int64-column"),
            pytest.param([3, np.int64(-1)], id="negative-int64-scalar"),
            pytest.param([3, 1 << 100], id="int-too-wide"),
        ],
    )
    def test_rejected_before_any_counter_moves(self, group, keys):
        assert_rejected(group, keys)

    @pytest.fixture
    def group32(self):
        """32-bit keys, whose mirror planes are 32 bits wide: a query bit
        above them, if it got past the check, would be cut off into a
        false hit on the stored key 3 (or 0)."""
        case = {
            "bits": 32, "ternary": False, "positions": [0, 16, 31],
            "probing": None, "slice_count": 1, "overflow": False,
            "records": [(0, 1), (3, 2)],
        }
        group = build_group(case)
        group.search_batch([3])  # build the engine and the mirror
        return group

    @pytest.mark.parametrize(
        "keys",
        [
            pytest.param(
                np.array([[3], [(1 << 32) | 3]], dtype=np.uint64),
                id="bit-32-word",
            ),
            pytest.param(
                np.array([3, 1 << 32], dtype=np.uint64), id="bit-32-column"
            ),
        ],
    )
    def test_32_bit_keys_rejected_before_any_counter_moves(
        self, group32, keys
    ):
        assert_rejected(group32, keys)

    def test_top_word_may_fill_to_the_width(self, group):
        words = keys_to_words([3, 1 << 90, (1 << 100) - 1], 100)
        assert group.search_batch_columnar(words).data_values() == [1, 2, None]


def build_group64(records) -> SliceGroup:
    return build_group({
        "bits": 64, "ternary": False, "positions": [0, 32, 63],
        "probing": None, "slice_count": 1, "overflow": False,
        "records": records,
    })


class TestSignedNumpyKeys:
    """NumPy converts a signed NumPy scalar to uint64 by wrapping it
    (``np.int64(-1)`` reads ``0xffff_ffff_ffff_ffff``).  Below 64 bits the
    wrapped key fails the width check; at 64 bits the parsers must refuse
    the sign itself."""

    @pytest.fixture
    def group64(self):
        group = build_group64([(3, 1), ((1 << 64) - 1, 2)])
        group.search_batch([3])  # build the engine and the mirror
        return group

    @pytest.mark.parametrize(
        "keys",
        [
            pytest.param([np.int64(-1)], id="int64"),
            pytest.param([3, np.int64(-1)], id="int64-after-an-int"),
            pytest.param([np.int32(-5), 3], id="int32"),
        ],
    )
    def test_batch_rejects_negative_scalars(self, group64, keys):
        assert_rejected(group64, keys)

    @pytest.mark.parametrize("stored", [[], [(3, 1)]], ids=["empty", "loaded"])
    def test_bulk_load_rejects_negative_scalars(self, stored):
        group = build_group64(stored)
        rows = [array.snapshot() for array in group._arrays]
        before = snapshot(group.stats)
        for args in (([np.int64(-1)], [1]), ([(np.int64(-1), 1)],)):
            with pytest.raises(KeyFormatError):
                group.bulk_load(*args)
        assert [array.snapshot() for array in group._arrays] == rows
        assert group.stats == before
        assert group.record_count == len(stored)

    def test_keys_to_words_rejects_negative_scalars(self):
        with pytest.raises(KeyFormatError):
            keys_to_words([np.int64(-1)], 64)
        with pytest.raises(KeyFormatError):
            keys_to_words([(1 << 64) - 1, np.int64(-2)], 64)
        words = keys_to_words([(1 << 64) - 1, np.uint64(5)], 64)
        assert words[:, 0].tolist() == [(1 << 64) - 1, 5]
