"""Fault-soak acceptance gates: zero silent corruption, free when off.

Two contracts of the reliability layer are pinned here with numbers:

* **detect-or-correct** — a 10k-lookup soak of the IP and trigram
  workloads at bit-flip rate 1e-4 (plus stuck cells and dead rows) must
  report **zero** silent wrong answers: every fault is either corrected
  by the segmented row ECC or detected and repaired through
  restore/quarantine/victim overlay;
* **zero cost when disabled** — on the ``bench_batch_lookup.py``
  slice/query stream, a slice whose reliability layer was enabled and then
  disabled must keep warm batch-lookup throughput within 5% of an
  identical slice that never had one (the guard hook is one ``is None``
  check per row access).  Both slices are built in the same run and timed
  in ``QUARTETS`` pinned ABBA quartets; the gate reads the median
  per-quartet ratio (``harness.paired_overhead``).

Results (per-rate soak reports + the disabled-path throughput) land in
``BENCH_fault_soak.json``.

Run standalone with::

    PYTHONPATH=src python benchmarks/bench_fault_soak.py

or through pytest (asserts both gates)::

    PYTHONPATH=src python -m pytest benchmarks/bench_fault_soak.py
"""

import json
import time

from bench_batch_lookup import build_slice, make_queries, populate
from harness import finalize, paired_overhead, result_path
from repro.reliability.soak import run_soak

RESULT_PATH = result_path("fault_soak")

QUARTETS = 10        # ABBA quartets (20 runs a side) behind the median
GATE_THRESHOLD = 0.05
SOAK_QUERIES = 10_000
SOAK_RATE = 1e-4
SOAK_SEED = 7


def _warm_pass(slice_, queries) -> float:
    """One warm batch pass, in keys/sec."""
    start = time.perf_counter()
    slice_.search_batch(queries)
    return len(queries) / (time.perf_counter() - start)


def measure_disabled_overhead() -> dict:
    """Warm batch throughput with the reliability layer disabled, against
    a baseline slice measured in the same run.

    Two identical slices are built; one has its reliability layer enabled
    and then disabled.  Their warm passes run in ``QUARTETS`` pinned ABBA
    quartets; the overhead is the median per-quartet ratio, and every
    quartet's ratio is reported.
    """
    slices = {"baseline": build_slice(), "disabled": build_slice()}
    stored = populate(slices["baseline"])
    populate(slices["disabled"])
    slices["disabled"].enable_reliability()
    slices["disabled"].disable_reliability()
    queries = make_queries(stored)
    for slice_ in slices.values():
        slice_.search_batch(queries)  # warm the mirror, engine and heap
    leg = paired_overhead(
        lambda: _warm_pass(slices["baseline"], queries),
        lambda: _warm_pass(slices["disabled"], queries),
        QUARTETS,
    )
    return {
        "keys": len(queries),
        "baseline_keys_per_sec": round(leg["reference_rate"]),
        "disabled_keys_per_sec": round(leg["candidate_rate"]),
        "disabled_overhead_vs_baseline": leg["overhead"],
        "disabled_overhead_quartets": leg["quartet_ratios"],
    }


def run_benchmark() -> dict:
    soaks = {
        name: run_soak(
            name, SOAK_RATE, queries=SOAK_QUERIES, seed=SOAK_SEED
        ).as_dict()
        for name in ("ip", "trigram")
    }
    result = {
        "soak_rate": SOAK_RATE,
        "soak_queries": SOAK_QUERIES,
        "silent_wrong": sum(s["silent_wrong"] for s in soaks.values()),
        "soaks": soaks,
        **measure_disabled_overhead(),
    }
    return finalize(RESULT_PATH, result)


def test_soak_detect_or_correct():
    for name in ("ip", "trigram"):
        report = run_soak(
            name, SOAK_RATE, queries=SOAK_QUERIES, seed=SOAK_SEED
        )
        assert report.silent_wrong == 0, report.as_dict()
        assert report.queries >= SOAK_QUERIES


def test_disabled_reliability_overhead():
    result = run_benchmark()
    assert result["silent_wrong"] == 0, result
    assert result["disabled_overhead_vs_baseline"] <= GATE_THRESHOLD, result


if __name__ == "__main__":
    stats = run_benchmark()
    print(json.dumps(stats, indent=2))
    print(f"\nwrote {RESULT_PATH}")
