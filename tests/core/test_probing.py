"""Unit tests for the overflow probing policies."""

import pytest

import repro.core.index
from repro.core.config import SliceConfig
from repro.core.index import make_index_generator
from repro.core.probing import DoubleHashing, LinearProbing, QuadraticProbing
from repro.core.record import RecordFormat
from repro.core.slice import CARAMSlice
from repro.errors import ConfigurationError
from repro.hashing.base import ModuloHash
from repro.hashing.bit_select import BitSelectHash
from repro.hashing.universal import MultiplicativeHash
from repro.memory.mirror import keys_to_words
from repro.utils.rng import make_rng


class TestLinearProbing:
    def test_sequence(self):
        policy = LinearProbing()
        assert [policy.probe(5, a, 8, None) for a in range(4)] == [5, 6, 7, 0]

    def test_attempt_zero_is_home(self):
        assert LinearProbing().probe(3, 0, 8, None) == 3

    def test_negative_attempt_rejected(self):
        with pytest.raises(ConfigurationError):
            LinearProbing().probe(0, -1, 8, None)


class TestDoubleHashing:
    def test_home_first(self):
        policy = DoubleHashing(ModuloHash(8))
        assert policy.probe(3, 0, 8, key=10) == 3

    def test_step_is_odd(self):
        policy = DoubleHashing(ModuloHash(8))
        # key=4 -> step hash 4, forced odd to 5.
        assert policy.probe(0, 1, 8, key=4) == 5
        assert policy.probe(0, 2, 8, key=4) == 2

    def test_covers_all_rows_power_of_two(self):
        policy = DoubleHashing(ModuloHash(16))
        for key in range(20):
            visited = {policy.probe(0, a, 16, key) for a in range(16)}
            assert visited == set(range(16))

    def test_different_keys_different_sequences(self):
        policy = DoubleHashing(ModuloHash(64))
        seq_a = [policy.probe(0, a, 64, key=1) for a in range(5)]
        seq_b = [policy.probe(0, a, 64, key=2) for a in range(5)]
        assert seq_a != seq_b


class TestQuadraticProbing:
    def test_triangular_offsets(self):
        policy = QuadraticProbing()
        assert [policy.probe(0, a, 16, None) for a in range(5)] == [0, 1, 3, 6, 10]

    def test_covers_all_rows_power_of_two(self):
        policy = QuadraticProbing()
        visited = {policy.probe(0, a, 16, None) for a in range(16)}
        assert visited == set(range(16))


class TestProbeBatch:
    """``probe_batch`` answers a whole attempt level in array ops, equal
    per key to ``probe``."""

    @pytest.mark.parametrize(
        "policy",
        [
            LinearProbing(),
            QuadraticProbing(),
            DoubleHashing(ModuloHash(48)),
            DoubleHashing(BitSelectHash(32, (1, 7, 12, 20, 31))),
            DoubleHashing(MultiplicativeHash(64)),
        ],
        ids=["linear", "quadratic", "double-modulo", "double-bitselect",
             "double-multiplicative"],
    )
    @pytest.mark.parametrize("rows", [1, 48, 64])
    def test_matches_per_key_probe(self, policy, rows):
        rng = make_rng(5)
        keys = [int(k) for k in rng.integers(0, 1 << 32, size=200)]
        homes = rng.integers(0, rows, size=len(keys))
        words = keys_to_words(keys, 32)
        for attempt in range(6):
            expected = [
                policy.probe(int(home), attempt, rows, key)
                for home, key in zip(homes.tolist(), keys)
            ]
            got = policy.probe_batch(homes, attempt, rows, words)
            assert got.tolist() == expected

    def test_double_hashing_batch_walk_makes_no_per_key_probe(
        self, monkeypatch
    ):
        """At load 0.9 many keys walk past their home; the batch walk
        must hash every step in array ops, never through ``probe``."""
        fmt = RecordFormat(key_bits=32, data_bits=8)
        config = SliceConfig(
            index_bits=6,
            row_bits=8 + 8 * fmt.slot_bits,
            record_format=fmt,
            aux_bits=8,
        )
        slice_ = CARAMSlice(
            config,
            make_index_generator(ModuloHash(config.rows)),
            probing=DoubleHashing(MultiplicativeHash(config.rows)),
        )
        rng = make_rng(9)
        keys = [
            int(k)
            for k in rng.choice(
                1 << 32, size=int(0.9 * config.capacity_records), replace=False
            )
        ]
        for key in keys:
            slice_.insert(key, data=key & 0xFF)
        queries = keys + [key ^ 1 for key in keys[:64]]
        expected = [slice_.search(key) for key in queries]
        assert max(r.bucket_accesses for r in expected) > 1

        def refuse(*args, **kwargs):
            raise AssertionError("per-key probe in the batch walk")

        monkeypatch.setattr(DoubleHashing, "probe", refuse)
        assert slice_.search_batch(queries) == expected
        assert slice_.stats.scalar_fallbacks == 0

    def test_double_hashing_batch_walk_hashes_word_columns(self, monkeypatch):
        """Every attempt level's step hash (and the home hash) takes the
        walk's uint64 key column: no Python int per key per attempt."""
        fmt = RecordFormat(key_bits=32, data_bits=8)
        config = SliceConfig(
            index_bits=5, row_bits=8 + 4 * fmt.slot_bits,
            record_format=fmt, aux_bits=8,
        )
        slice_ = CARAMSlice(
            config,
            make_index_generator(ModuloHash(config.rows)),
            probing=DoubleHashing(MultiplicativeHash(config.rows)),
        )
        rng = make_rng(13)
        keys = [
            int(k)
            for k in rng.choice(
                1 << 32, size=int(0.9 * config.capacity_records), replace=False
            )
        ]
        slice_.bulk_load([(key, key & 0xFF) for key in keys])
        queries = keys + [key ^ 1 for key in keys[:32]]
        expected = [slice_.search(key) for key in queries]
        assert max(r.bucket_accesses for r in expected) > 1

        def refuse(*args, **kwargs):
            raise AssertionError("the batch walk made Python ints")

        monkeypatch.setattr(repro.core.index, "words_to_ints", refuse)
        assert slice_.search_batch(queries) == expected
