"""Unit tests for the update-churn study and SliceGroup.rebuild."""

import pytest

from repro.apps.iplookup.churn import run_update_churn
from repro.apps.iplookup.designs import IpDesign
from repro.apps.iplookup.prefix import Prefix
from repro.core.config import Arrangement, SliceConfig
from repro.core.key import TernaryKey
from repro.core.record import RecordFormat
from repro.core.subsystem import SliceGroup
from repro.errors import ConfigurationError
from repro.hashing.base import ModuloHash
from repro.hashing.bit_select import BitSelectHash
from repro.utils.rng import make_rng

DESIGN = IpDesign("churn", 7, 32, 2, Arrangement.HORIZONTAL)


def prefix_pairs(count, seed):
    rng = make_rng(seed)
    pairs = {}
    while len(pairs) < count:
        length = int(rng.choice([16, 20, 24], p=[0.2, 0.2, 0.6]))
        bits = int(rng.integers(0, 1 << length))
        prefix = Prefix.from_bits(bits, length)
        pairs.setdefault((prefix.value, prefix.length), (prefix, 1))
    return list(pairs.values())


class TestGroupRebuild:
    def make_group(self):
        config = SliceConfig(
            index_bits=4, row_bits=128,
            record_format=RecordFormat(key_bits=16, data_bits=8),
        )
        return SliceGroup(
            config, 1, Arrangement.VERTICAL, ModuloHash(16), name="r"
        )

    def test_rebuild_preserves_records(self):
        group = self.make_group()
        for k in range(40):
            group.insert(k, data=k % 100)
        group.rebuild()
        assert group.record_count == 40
        for k in range(40):
            assert group.lookup(k) == k % 100

    def duplicated_group(self):
        """Four two-slot buckets hashed on the top two key bits, holding
        one ternary key duplicated into buckets 0 and 2."""
        record_format = RecordFormat(key_bits=16, data_bits=8, ternary=True)
        config = SliceConfig(
            index_bits=2,
            row_bits=8 + 2 * record_format.slot_bits,
            record_format=record_format,
            aux_bits=8,
        )
        group = SliceGroup(
            config, 1, Arrangement.VERTICAL, BitSelectHash(16, (0, 1))
        )
        key = TernaryKey(value=0x0400, mask=0x8000, width=16)
        assert group.insert(key, 7) == 2
        assert [b for b, _, _ in group.records()] == [0, 2]
        return group

    def test_rebuild_keeps_one_copy_per_duplicated_home(self):
        group = self.duplicated_group()
        group.rebuild()
        assert group.record_count == 2
        assert [b for b, _, _ in group.records()] == [0, 2]
        # 0x8400 hashes to bucket 2, 0x0400 to bucket 0.
        assert [group.search(q).data for q in (0x0400, 0x8400)] == [7, 7]
        assert group.search_batch_columnar([0x0400, 0x8400]).data_values() == [
            7,
            7,
        ]

    def test_rebuild_compacts_reach(self):
        group = self.make_group()
        slots = group.slots_per_bucket
        keys = [i * 16 for i in range(slots + 2)]  # overload bucket 0
        for key in keys:
            group.insert(key)
        spilled = [k for k in keys if group.search(k).bucket_accesses > 1]
        for key in spilled:
            group.delete(key)
        # Reach is stale: misses on bucket 0 still over-scan.
        group.stats.reset()
        group.search(0xFFF0)  # bucket 0 miss
        assert group.stats.total_bucket_accesses > 1
        group.rebuild()
        group.stats.reset()
        group.search(0xFFF0)
        assert group.stats.total_bucket_accesses == 1


class TestChurn:
    def test_zero_flaps(self):
        result = run_update_churn(prefix_pairs(100, 3), DESIGN, flaps=0, seed=3)
        assert result.amal_fresh >= 1.0
        assert result.updates_per_flap_entries == 0.0

    def test_lookups_survive_churn(self):
        # run_update_churn asserts internally that every route resolves.
        result = run_update_churn(
            prefix_pairs(150, 4), DESIGN, flaps=300, seed=4
        )
        assert result.flaps == 300

    def test_duplicated_routes_survive_rebuild(self):
        """/12 and /14 prefixes sit under the hash window (the last 7 of
        the first 16 bits), so each is duplicated into 8 or 2 homes;
        run_update_churn probes one address in every home after the
        rebuild."""
        rng = make_rng(9)
        short = {}
        while len(short) < 20:
            length = int(rng.choice([12, 14]))
            bits = int(rng.integers(0, 1 << length))
            prefix = Prefix.from_bits(bits, length)
            short.setdefault((prefix.value, prefix.length), (prefix, 2))
        pairs = prefix_pairs(100, 9) + list(short.values())
        result = run_update_churn(pairs, DESIGN, flaps=50, seed=9)
        assert result.updates_per_flap_entries > 2

    def test_rebuild_restores_fresh_amal(self):
        result = run_update_churn(
            prefix_pairs(150, 5), DESIGN, flaps=400, seed=5
        )
        assert result.amal_after_rebuild <= result.amal_after_churn + 1e-9
        assert result.amal_after_rebuild == pytest.approx(
            result.amal_fresh, abs=0.05
        )

    def test_reach_shrinks_on_rebuild(self):
        result = run_update_churn(
            prefix_pairs(150, 6), DESIGN, flaps=400, seed=6
        )
        assert (
            result.mean_reach_after_rebuild
            <= result.mean_reach_after_churn + 1e-9
        )

    def test_update_touch_cost_is_small(self):
        """Point updates touch a handful of entries (duplication aside) —
        no TCAM-style block moves."""
        result = run_update_churn(
            prefix_pairs(150, 7), DESIGN, flaps=200, seed=7
        )
        assert result.updates_per_flap_entries < 8

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            run_update_churn([], DESIGN, flaps=1)
        with pytest.raises(ConfigurationError):
            run_update_churn(prefix_pairs(10, 8), DESIGN, flaps=-1)
