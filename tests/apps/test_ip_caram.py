"""Integration tests: behavioral CA-RAM LPM vs binary trie vs TCAM."""

import numpy as np
import pytest

from repro.apps.iplookup.baseline_tcam import build_lpm_tcam, lpm_lookup
from repro.apps.iplookup.caram import (
    build_ip_caram,
    ip_hash_function,
    ip_record_format,
    ip_slice_config,
    lpm_search,
    prefix_priority,
)
from repro.apps.iplookup.designs import IpDesign
from repro.apps.iplookup.prefix import Prefix
from repro.apps.iplookup.trie import BinaryTrie
from repro.core.config import Arrangement
from repro.utils.rng import make_rng

#: A small design for behavioral runs: 2^8 buckets of 32 x 6 keys.
SMALL_DESIGN = IpDesign("S", 8, 32, 2, Arrangement.HORIZONTAL)


def random_prefix_set(count, seed):
    """Distinct prefixes with realistic length spread."""
    rng = make_rng(seed)
    prefixes = {}
    lengths = rng.choice(
        [8, 12, 16, 20, 24, 28, 32], size=count * 2,
        p=[0.02, 0.05, 0.15, 0.2, 0.45, 0.08, 0.05],
    )
    for length in lengths:
        bits = int(rng.integers(0, 1 << int(length))) if length else 0
        prefix = Prefix.from_bits(bits, int(length))
        prefixes.setdefault((prefix.value, prefix.length), prefix)
        if len(prefixes) == count:
            break
    return list(prefixes.values())


@pytest.fixture(scope="module")
def prefix_set():
    return [(p, i % 251) for i, p in enumerate(random_prefix_set(400, 99))]


@pytest.fixture(scope="module")
def trie(prefix_set):
    t = BinaryTrie()
    t.insert_all(prefix_set)
    return t


@pytest.fixture(scope="module")
def caram(prefix_set):
    return build_ip_caram(prefix_set, SMALL_DESIGN)


@pytest.fixture(scope="module")
def tcam(prefix_set):
    return build_lpm_tcam(prefix_set)


class TestConfigHelpers:
    def test_slice_config_slots(self):
        config = ip_slice_config(SMALL_DESIGN)
        assert config.slots_per_bucket == 32
        assert config.record_format.ternary

    def test_hash_uses_last_bits_of_first_16(self):
        h = ip_hash_function(SMALL_DESIGN)
        assert h.positions == tuple(range(8, 16))

    def test_prefix_priority_is_length(self):
        from repro.core.record import Record
        from repro.memory.mirror import records_to_words

        record = Record(key=Prefix.from_string("10.0.0.0/8").to_ternary_key())
        words = records_to_words([record], ip_record_format())
        assert prefix_priority(*words)[0] == 8.0


class TestLpmAgreement:
    def test_caram_matches_trie_on_random_addresses(self, caram, trie):
        rng = make_rng(7)
        addresses = rng.integers(0, 1 << 32, size=500)
        for address in addresses:
            address = int(address)
            expected = trie.lookup(address)
            got = lpm_search(caram, address)
            if expected.hit:
                assert got == expected.data, hex(address)
            else:
                assert got is None, hex(address)

    def test_caram_matches_trie_on_covered_addresses(self, caram, trie,
                                                     prefix_set):
        # Probe inside every prefix to force hits.
        rng = make_rng(8)
        for prefix, _ in prefix_set[:200]:
            host_bits = 32 - prefix.length
            offset = int(rng.integers(0, 1 << host_bits)) if host_bits else 0
            address = prefix.value | offset
            assert lpm_search(caram, address) == trie.lookup(address).data

    def test_tcam_matches_trie(self, tcam, trie):
        rng = make_rng(9)
        for address in rng.integers(0, 1 << 32, size=300):
            address = int(address)
            expected = trie.lookup(address)
            got = lpm_lookup(tcam, address)
            assert got == (expected.data if expected.hit else None)

    def test_caram_load_factor_sane(self, caram, prefix_set):
        assert 0 < caram.load_factor < 1
        assert caram.record_count >= len(prefix_set)  # duplicates add

    def test_amal_close_to_one(self, caram, trie):
        caram.stats.reset()
        rng = make_rng(10)
        for address in rng.integers(0, 1 << 32, size=300):
            caram.search(int(address))
        assert 1.0 <= caram.stats.amal < 2.0
