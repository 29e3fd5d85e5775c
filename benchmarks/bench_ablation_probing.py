"""Ablation — overflow policy: linear probing vs double hashing vs
quadratic probing (Section 2.1's two options, plus one more).

Runs on the behavioral slice so the policies' actual probe sequences (and
their interaction with the reach field) are exercised, not just modeled.
"""

import pytest

from repro.core.config import SliceConfig
from repro.core.index import make_index_generator
from repro.core.probing import DoubleHashing, LinearProbing, QuadraticProbing
from repro.core.record import RecordFormat
from repro.core.slice import CARAMSlice
from repro.experiments.reporting import format_table
from repro.hashing.base import ModuloHash
from repro.hashing.universal import MultiplicativeHash
from repro.utils.rng import make_rng

INDEX_BITS = 7
ROWS = 1 << INDEX_BITS
SLOTS = 8
LOAD_FACTOR = 0.85


def build_slice(policy):
    record_format = RecordFormat(key_bits=24, data_bits=8)
    config = SliceConfig(
        index_bits=INDEX_BITS,
        row_bits=8 + SLOTS * record_format.slot_bits,
        record_format=record_format,
        slots_override=SLOTS,
    )
    return CARAMSlice(
        config, make_index_generator(ModuloHash(ROWS)), probing=policy
    )


def clustered_keys(count, seed):
    """Keys with clustered home buckets (where probing policy matters)."""
    rng = make_rng(seed)
    # Half the mass on a quarter of the buckets.
    hot = rng.integers(0, ROWS // 4, size=count // 2)
    cold = rng.integers(0, ROWS, size=count - count // 2)
    buckets = list(hot) + list(cold)
    keys = []
    seen = set()
    for i, bucket in enumerate(buckets):
        key = int(bucket) + ROWS * (i + 1)
        if key not in seen:
            seen.add(key)
            keys.append(key)
    return keys


def uniform_keys(count, seed):
    """Keys whose home buckets are uniform (the control workload)."""
    rng = make_rng(seed)
    return [int(key) for key in rng.choice(1 << 20, size=count, replace=False)]


POLICIES = [
    ("linear", lambda: LinearProbing()),
    ("double-hashing", lambda: DoubleHashing(MultiplicativeHash(ROWS))),
    ("quadratic", lambda: QuadraticProbing()),
]


def run_policy(policy, make_keys=clustered_keys):
    sl = build_slice(policy)
    keys = make_keys(int(ROWS * SLOTS * LOAD_FACTOR), seed=13)
    for key in keys:
        sl.insert(key, data=key % 251)
    sl.stats.reset()
    for key in keys:
        result = sl.search(key)
        assert result.hit and result.data == key % 251
    return {
        "amal": sl.stats.amal,
        "avg_insert_probes": sl.stats.average_insert_probes,
    }


@pytest.mark.parametrize("name,factory", POLICIES)
def test_probing_policy(benchmark, name, factory):
    stats = benchmark.pedantic(
        run_policy, args=(factory(),), rounds=1, iterations=1
    )
    assert stats["amal"] >= 1.0


def test_policies_all_correct_and_comparable():
    """Every policy finds every key.  On uniform homes the three are
    comparable; on clustered homes (half the keys homed on one
    contiguous quarter of the rows, twice that quarter's capacity) they
    rank as clustering theory predicts.  Linear probing suffers primary
    clustering: the overflow of the hot quarter forms one contiguous run
    every probe walks.  Quadratic probing escapes the run but keeps
    secondary clustering: keys sharing a home follow one probe sequence.
    Double hashing gives each key its own step, so it alone stays near
    the uniform case."""
    rows = []
    for name, factory in POLICIES:
        rows.append(
            {
                "policy": name,
                "AMAL uniform": round(
                    run_policy(factory(), uniform_keys)["amal"], 4
                ),
                "AMAL clustered": round(run_policy(factory())["amal"], 4),
            }
        )
    print("\n" + format_table(rows))
    uniform = {row["policy"]: row["AMAL uniform"] for row in rows}
    clustered = {row["policy"]: row["AMAL clustered"] for row in rows}
    assert min(uniform.values()) >= 1.0 and min(clustered.values()) >= 1.0
    # Uniform homes: no policy is catastrophically worse than another.
    assert max(uniform.values()) < 1.1 * min(uniform.values())
    # Clustered homes: the policy with neither kind of clustering stays
    # in the sane band; the others degrade in clustering order.
    assert clustered["double-hashing"] < 3.0
    assert (
        clustered["double-hashing"]
        < clustered["quadratic"]
        < clustered["linear"]
    )
