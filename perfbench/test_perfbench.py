"""Self-tests of the benchmark, on tiny instances of each workload.

    python3 -m pytest perfbench -q

They check that inputs are seeded and fingerprinted, that every answer
is checked, that ``amal`` is exact for a seed, that a delay added to one
layer moves that layer's traced metric and its mapped end-to-end metric,
and that layers a workload bypasses read zero.
"""

from __future__ import annotations

import json
import os
import time

import numpy as np
import pytest

import run
from repro.apps.trigram.caram import StringKeyCodec
from repro.core.subsystem import SliceGroup
from repro.serving.router import ConsistentHashRouter
from workloads import WORKLOADS, IpChurn, ServeZipf, TrigramBatch

SECONDS = 0.3
READ_ONLY = ("serve-zipf", "trigram-batch")
BATCH = ("trigram-batch", "ip-churn")


@pytest.fixture(scope="module", autouse=True)
def few_samples():
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(run, "MIN_SAMPLES", 20)
        yield


def tiny(name: str, trace: bool, seed: int = 1) -> dict:
    report = run.measure(name, seed, SECONDS, trace, size="tiny")
    assert report["correct"] and report["failed"] == 0
    assert report["attempted"] > 0
    # One timed set-up per segment: setup_s is their median.
    assert len(report["setup_runs_s"]) == WORKLOADS[name].shapes["tiny"].segments
    return report["metrics"]


@pytest.fixture(scope="module")
def baseline(few_samples):
    """``baseline(name, trace)``: metrics of an unmodified tiny run,
    measured once per module."""
    cache: dict = {}

    def get(name: str, trace: bool) -> dict:
        if (name, trace) not in cache:
            cache[name, trace] = tiny(name, trace)
        return cache[name, trace]

    return get


def test_metric_names_match_benchmark_json():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)


@pytest.mark.parametrize("cls", [ServeZipf, TrigramBatch, IpChurn])
def test_inputs_are_seeded_and_fingerprinted(cls):
    shape = cls.shapes["tiny"]
    first, again, held_out = cls(1, shape), cls(1, shape), cls(2, shape)
    assert first.digest == again.digest
    assert first.digest != held_out.digest
    assert first.sizes == held_out.sizes
    load = [w.load_factor(w.build()) for w in (first, held_out)]
    assert load[0] == pytest.approx(load[1], rel=0.05)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_a_wrong_answer_is_counted(name):
    workload = WORKLOADS[name](1, WORKLOADS[name].shapes["tiny"])
    state = workload.build()
    if name == "serve-zipf":
        workload.expected[0] = -7
    elif name == "trigram-batch":
        workload.pool_expected[0][0] = -7
    else:
        right = workload.expected
        workload.expected = lambda batch: np.where(
            np.arange(workload.shape.batch) == 0, -7, right(batch)
        )
    workload.start(state, None)
    try:
        block = workload.run_block(state, 0, None)
    finally:
        workload.stop(state)
    wrong_per_block = 1 if name != "ip-churn" else workload.shape.rounds_per_block
    assert block.failed == wrong_per_block


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_amal_and_counts_are_exact_for_a_seed(name, baseline):
    again = tiny(name, False)
    assert again["amal"] == baseline(name, False)["amal"]
    traced = baseline(name, True)
    assert traced["core.batch.probe_walk_keys"] == tiny(name, True)[
        "core.batch.probe_walk_keys"
    ]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_layer_metric_is_reported_and_bypassed_layers_read_zero(
    name, baseline
):
    traced = baseline(name, True)
    assert set(traced) == set(run.PER_LAYER)
    assert set(baseline(name, False)) == set(run.END_TO_END)
    if name in BATCH:
        for metric, value in traced.items():
            if metric.startswith("serving."):
                assert value == 0, metric
        assert traced["core.results.materialize_busy_s"] == 0
    else:
        assert traced["core.results.values_busy_s"] == 0
    if name in READ_ONLY:
        assert traced["memory.mirror.resync_busy_s"] == 0
        assert traced["core.subsystem.update_ms_p50"] == 0
        assert traced["update_p50_ms"] == 0
    else:
        assert traced["memory.mirror.resync_busy_s"] > 0
    for metric in ("core.subsystem.busy_s", "core.bulk.load_s", "setup.keys_s"):
        assert traced[metric] > 0, metric


def _delayed(function, seconds):
    def slow(*args, **kwargs):
        time.sleep(seconds)
        return function(*args, **kwargs)

    return slow


#: workload -> (class, attribute, delay in seconds, traced layer metric,
#: least rise of that metric).  Tiny blocks hold 512 requests, 4 trigram
#: calls, or 4 rounds of 2 flaps; the rise asked for is half the delay.
INJECTIONS = {
    "serve-zipf": (
        ConsistentHashRouter, "shard_for_query", 2e-4,
        "serving.router.busy_s", 512 * 2e-4 / 2,
    ),
    "trigram-batch": (
        StringKeyCodec, "encode_batch", 5e-3,
        "apps.trigram.encode_busy_s", 4 * 5e-3 / 2,
    ),
    "ip-churn": (
        SliceGroup, "delete", 5e-3, "core.subsystem.update_ms_p50", 5 / 2,
    ),
}


@pytest.mark.parametrize("name", sorted(INJECTIONS))
def test_a_slower_layer_moves_its_metric_and_the_end_to_end_metric(
    name, baseline, monkeypatch
):
    owner, attribute, delay, layer_metric, rise = INJECTIONS[name]
    traced, untraced = baseline(name, True), baseline(name, False)
    original = vars(owner)[attribute]
    if isinstance(original, staticmethod):
        monkeypatch.setattr(
            owner, attribute, staticmethod(_delayed(original.__func__, delay))
        )
    else:
        monkeypatch.setattr(owner, attribute, _delayed(original, delay))
    slow_traced = tiny(name, True)
    slow = tiny(name, False)
    assert slow_traced[layer_metric] > traced[layer_metric] + rise
    assert slow["lookups_per_s"] < 0.8 * untraced["lookups_per_s"]
    if name == "ip-churn":
        assert slow_traced["update_p50_ms"] > traced["update_p50_ms"] + rise
