"""The repository benchmark: one seeded workload, untraced or traced.

    python3 perfbench/run.py --workload serve-zipf --seed 1 --seconds 30 --trace 0

Run from the repository root; the library is imported from ``src/``.
With ``--trace 0`` the last line of standard output is a JSON object
holding every end-to-end metric; with ``--trace 1`` it holds the
per-layer metrics of a traced run instead (see ``NOTES.md``).  Both
check every answer and count wrong answers, typed errors and shed
requests as failed operations.

A run goes: make the seeded inputs; build and discard a tiny instance of
the same workload (pays lazy imports and first use); reset the peak-RSS
mark; then, in each of a few segments, build the table afresh, timing
the build plus its first lookup call (``setup_s`` is the median over
segments), and run blocks of fixed work on it until the segment's share
of ``--seconds`` of measured time has passed.  A traced run alternates
untraced and traced blocks, so that the tracing overhead is measured
within the run.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import statistics
import sys
import time
from typing import Dict, List, Optional, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

from repro.telemetry.profiling import enabled_profiler  # noqa: E402
from spans import SpanLog, installed  # noqa: E402
from workloads import WORKLOADS, Block, count_wrong  # noqa: E402

#: Latency samples per percentile window; a run measures at least one.
MIN_SAMPLES = 1000
#: ``amal`` and the SearchStats counts cover this many leading blocks, a
#: fixed amount of work, so they are exact for a seed.  A run measures at
#: least this many blocks (a traced run then has traced and untraced ones).
STATS_BLOCKS = 4

OUT_DIR = os.path.join(HERE, "out")

#: name -> unit of every metric, end to end and per layer.
END_TO_END = {
    "setup_s": "s",
    "mem_mb": "MiB",
    "lookups_per_s": "lookups/s",
    "lookup_p50_ms": "ms",
    "lookup_p99_ms": "ms",
    "amal": "accesses/lookup",
}
PER_LAYER = {
    "serving.router.busy_s": "s",
    "serving.cluster.busy_s": "s",
    "serving.service.keys_per_batch": "keys/batch",
    "serving.service.wait_ms_p50": "ms",
    "serving.service.wait_ms_p99": "ms",
    "serving.executor.handoff_ms_p50": "ms",
    "core.subsystem.batch_ms_p50": "ms",
    "core.subsystem.busy_s": "s",
    "core.results.materialize_busy_s": "s",
    "core.results.values_busy_s": "s",
    "apps.trigram.encode_busy_s": "s",
    "hashing.index_busy_s": "s",
    "apps.iplookup.key_busy_s": "s",
    "update_p50_ms": "ms",
    "update_p99_ms": "ms",
    "core.subsystem.update_ms_p50": "ms",
    "core.subsystem.update_ms_p99": "ms",
    "core.subsystem.entries_per_update": "copies/update",
    "memory.mirror.resync_busy_s": "s",
    "core.bulk.load_s": "s",
    "setup.keys_s": "s",
    "core.batch.first_call_s": "s",
    "core.batch.probe_walk_keys": "count",
    "core.batch.scalar_fallbacks": "count",
    "trace.overhead": "ratio",
}


class PeakMemory:
    """Peak resident-set growth from the moment of construction.

    Writing ``5`` to ``/proc/self/clear_refs`` resets the kernel's
    high-water mark (``VmHWM``) to the current RSS, so inputs built
    earlier do not hide the peak of the set-up and the run."""

    def __init__(self) -> None:
        with open("/proc/self/clear_refs", "w") as handle:
            handle.write("5")
        self.base_kib = self._status("VmRSS")

    @staticmethod
    def _status(field: str) -> int:
        with open("/proc/self/status") as handle:
            for line in handle:
                if line.startswith(field + ":"):
                    return int(line.split()[1])
        raise RuntimeError(f"{field} missing from /proc/self/status")

    def growth_mib(self) -> float:
        return (self._status("VmHWM") - self.base_kib) / 1024.0


def pin_to_one_cpu() -> int:
    """Pin every thread of the process, and the threads it starts later,
    to one CPU (the highest-numbered one it may use), and return it.

    On serve-zipf every batch is handed from the event loop to an executor
    thread and back.  With the threads free to run on two vCPUs, each
    handoff waited for the host to wake the other vCPU: throughput fell
    by a third and swung twice as much, with the host's load rather than
    the program's work."""
    cpu = max(os.sched_getaffinity(0))
    for thread in os.listdir("/proc/self/task"):
        os.sched_setaffinity(int(thread), {cpu})
    return cpu


def percentile_ms(samples, q: float) -> float:
    samples = np.asarray(samples, dtype=np.float64)
    return float(np.percentile(samples, q)) * 1e3 if samples.size else 0.0


class Windows:
    """p99 over consecutive windows of ``MIN_SAMPLES`` samples or more (so
    a window's p99 has ten samples beyond it); the median over windows is
    reported.  Samples are folded in as blocks finish, so the run's
    memory does not grow with its throughput; the samples left over at
    the end join the last window."""

    def __init__(self) -> None:
        self._pending = np.empty(0)
        self._last = np.empty(0)
        self._closed: List[float] = []
        self.samples = 0

    def add(self, samples) -> None:
        self._pending = np.concatenate([self._pending, samples])
        self.samples += len(samples)
        while self._pending.size >= MIN_SAMPLES:
            if self._last.size:
                self._closed.append(percentile_ms(self._last, 99))
            self._last = self._pending[:MIN_SAMPLES]
            self._pending = self._pending[MIN_SAMPLES:]

    def p99_ms(self) -> float:
        last = percentile_ms(np.concatenate([self._last, self._pending]), 99)
        return statistics.median(self._closed + [last])


def measure(
    name: str, seed: int, seconds: float, trace: bool, size: str = "full"
) -> Dict[str, object]:
    """Run one workload and return its report (metrics, counts, inputs).

    The run is cut into segments.  Each builds the table afresh (timed:
    the set-up) and then runs an equal share of the measured blocks on
    it, so the builds behind ``setup_s`` are spread over the run the way
    the blocks are and see the same host.  One table exists at a time;
    ``mem_mb`` is read at the end of the first segment, so it covers one
    build plus its blocks."""
    cls = WORKLOADS[name]
    workload = cls(seed, cls.shapes[size])
    _throwaway(cls, seed)
    gc.collect()
    memory = PeakMemory()
    spans = SpanLog() if trace else None
    counts = {"attempted": 0, "failed": 0}

    def tally(attempted: int, failed: int) -> None:
        counts["attempted"] += attempted
        counts["failed"] += failed

    setups: List[Dict[str, object]] = []
    blocks: List[Block] = []
    latency = Windows()
    measured = 0.0
    segments = workload.shape.segments
    for segment in range(segments):
        # Every build starts from the same state: the previous table is
        # gone and the inputs are frozen, so that a full collection during
        # the build does not walk them.
        gc.collect()
        gc.freeze()
        state = _set_up(workload, spans, setups, tally)
        if segment == 0:
            load_factor = workload.load_factor(state)
        # The built table is long-lived state, like the inputs: freeze it
        # the way a long-running server freezes its start-up state, so
        # that a full collection does not walk it in a timed call.
        gc.collect()
        gc.freeze()
        workload.start(state, spans)
        try:
            warmup = workload.run_block(state, 0, None)
            tally(warmup.lookups + warmup.updates, warmup.failed)
            share = seconds * (segment + 1) / segments
            last = segment == segments - 1
            index = 0
            while (
                measured < share
                or (segment == 0 and index < STATS_BLOCKS)
                or (last and latency.samples < MIN_SAMPLES
                    and measured < 3 * seconds)
            ):
                # A full collection between blocks, outside the clock: the
                # blocks are short enough that no full collection starts
                # inside one, so a rare pause cannot decide a p99.
                gc.collect()
                traced = spans is not None and index % 2 == 1
                first_span = len(spans) if spans is not None else 0
                # Blocks are numbered across segments, so the request
                # stream goes on from one table to the next.
                if traced:
                    with enabled_profiler():
                        block = workload.run_block(state, len(blocks), spans)
                else:
                    block = workload.run_block(state, len(blocks), None)
                index += 1
                block.traced = traced
                block.spans = (first_span, len(spans) if spans is not None else 0)
                block.p50 = percentile_ms(block.lookup_latency, 50)
                blocks.append(block)
                measured += block.seconds
                latency.add(block.lookup_latency)
                block.lookup_latency = ()
                tally(block.lookups + block.updates, block.failed)
            if segment == 0:
                mem_mib = memory.growth_mib()
        finally:
            workload.stop(state)
            gc.unfreeze()
        del state

    if spans is None:
        metrics = end_to_end(setups, blocks, latency, mem_mib)
    else:
        metrics = per_layer(spans, setups, blocks)
    return {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "correct": counts["failed"] == 0,
        "attempted": counts["attempted"],
        "failed": counts["failed"],
        "metrics": metrics,
        "inputs": {
            "sha256": workload.digest,
            "sizes": workload.sizes,
            "load_factor": load_factor,
        },
        "blocks": len(blocks),
        "segments": segments,
        "measured_s": measured,
        "setup_runs_s": [s["setup_s"] for s in setups],
        "block_rates": _rates(blocks),
        "spans": spans,
    }


def _set_up(workload, spans: Optional[SpanLog], setups: list, tally):
    """One timed build and load plus first lookup call; returns the table.
    A traced set-up times the build's layers through class-level patches
    that last as long as the build."""
    first_span = len(spans) if spans is not None else 0
    with installed(workload.setup_patches(spans) if spans else []):
        started = time.perf_counter()
        state = workload.build()
        built = time.perf_counter()
    answers = workload.first_call(state)
    ended = time.perf_counter()
    if spans is not None:
        spans.add("core.batch.first_call", built, ended, -1)
    setups.append(
        {
            "setup_s": ended - started,
            "first_call_s": ended - built,
            "spans": (first_span, len(spans) if spans is not None else 0),
        }
    )
    tally(len(answers), count_wrong(answers, workload.first_expected()))
    return state


def _throwaway(cls, seed: int) -> None:
    """Build, query and drop a tiny instance of the same workload."""
    tiny = cls(seed, cls.shapes["tiny"])
    state = tiny.build()
    tiny.first_call(state)
    tiny.start(state, None)
    try:
        tiny.run_block(state, 0, None)
    finally:
        tiny.stop(state)


def _rates(blocks: Sequence[Block]) -> List[float]:
    return [b.lookups / b.seconds for b in blocks]


def _rate(blocks: Sequence[Block]) -> float:
    """Lookups per second over the blocks' whole measured time."""
    return sum(b.lookups for b in blocks) / sum(b.seconds for b in blocks)


def _leading_stats(blocks: Sequence[Block]) -> Dict[str, int]:
    total: Dict[str, int] = {}
    for block in blocks[:STATS_BLOCKS]:
        for key, value in block.stats.items():
            total[key] = total.get(key, 0) + value
    return total


def end_to_end(
    setups, blocks: Sequence[Block], latency: Windows, mem_mib: float
) -> Dict[str, float]:
    stats = _leading_stats(blocks)
    return {
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "mem_mb": mem_mib,
        "lookups_per_s": _rate(blocks),
        "lookup_p50_ms": statistics.fmean(b.p50 for b in blocks),
        "lookup_p99_ms": latency.p99_ms(),
        "amal": stats["accesses"] / stats["lookups"],
    }


def per_layer(spans: SpanLog, setups, blocks: Sequence[Block]) -> Dict[str, float]:
    columns = spans.columns()
    names = columns["name"]
    index = np.arange(len(names))
    traced = [b for b in blocks if b.traced]
    plain = [b for b in blocks if not b.traced]
    in_traced = np.zeros(len(names), dtype=bool)
    for block in traced:
        in_traced[block.spans[0] : block.spans[1]] = True

    def mask(*wanted: str) -> np.ndarray:
        return spans.name_mask(names, *wanted)

    def self_time(name: str, ranges) -> float:
        """Median over span ranges (blocks or builds) of the layer's self
        time within each range."""
        chosen = mask(name)
        return statistics.median(
            float(columns["self"][chosen & (index >= lo) & (index < hi)].sum())
            for lo, hi in ranges
        )

    def busy(name: str) -> float:
        return self_time(name, [b.spans for b in traced])

    def per_setup(name: str) -> float:
        return self_time(name, [s["spans"] for s in setups])

    def pooled_ms(name: str, field: str, q: float) -> float:
        return percentile_ms(columns[field][mask(name) & in_traced], q)

    # Wait of a served request: its latency minus the compute span of the
    # batch that answered it (kernel call plus materialization).
    requests = np.flatnonzero(mask("serving.request") & in_traced)
    compute = mask("serving.cluster", "core.results.materialize")
    batch_ids = columns["request"][compute]
    compute_time = np.bincount(
        np.maximum(batch_ids, 0),
        weights=columns["duration"][compute],
        minlength=int(batch_ids.max()) + 1 if batch_ids.size else 1,
    )
    answered = np.array(
        [spans.answered.get(int(r), -1) for r in requests], dtype=np.int64
    )
    known = answered >= 0
    wait = (
        columns["duration"][requests][known]
        - compute_time[answered[known]]
    )

    # One flap's delete + insert, and the copies each call touched.
    updates = np.flatnonzero(mask("core.subsystem.update") & in_traced)
    flaps = columns["parent"][updates]
    per_flap = np.bincount(flaps, weights=columns["duration"][updates])[
        np.unique(flaps)
    ] if updates.size else np.empty(0)
    copies = [spans.copies[int(u)] for u in updates]

    flap_latency = np.concatenate(
        [np.asarray(b.update_latency) for b in plain] or [np.empty(0)]
    )
    stats = _leading_stats(blocks)
    batches = sum(b.batches for b in traced)
    return {
        "serving.router.busy_s": busy("serving.router"),
        "serving.cluster.busy_s": busy("serving.cluster"),
        "serving.service.keys_per_batch": (
            sum(b.coalesced_keys for b in traced) / batches if batches else 0.0
        ),
        "serving.service.wait_ms_p50": percentile_ms(wait, 50),
        "serving.service.wait_ms_p99": percentile_ms(wait, 99),
        "serving.executor.handoff_ms_p50": pooled_ms(
            "serving.executor.handoff", "duration", 50
        ),
        "core.subsystem.batch_ms_p50": pooled_ms("core.subsystem", "self", 50),
        "core.subsystem.busy_s": busy("core.subsystem"),
        "core.results.materialize_busy_s": busy("core.results.materialize"),
        "core.results.values_busy_s": busy("core.results.values"),
        "apps.trigram.encode_busy_s": busy("apps.trigram.encode"),
        "hashing.index_busy_s": busy("hashing"),
        "apps.iplookup.key_busy_s": busy("apps.iplookup.key"),
        "update_p50_ms": percentile_ms(flap_latency, 50),
        "update_p99_ms": percentile_ms(flap_latency, 99),
        "core.subsystem.update_ms_p50": percentile_ms(per_flap, 50),
        "core.subsystem.update_ms_p99": percentile_ms(per_flap, 99),
        "core.subsystem.entries_per_update": (
            sum(copies) / len(copies) if copies else 0.0
        ),
        "memory.mirror.resync_busy_s": busy("memory.mirror.resync"),
        "core.bulk.load_s": per_setup("core.bulk.load"),
        "setup.keys_s": per_setup("setup.keys"),
        "core.batch.first_call_s": statistics.median(
            s["first_call_s"] for s in setups
        ),
        "core.batch.probe_walk_keys": stats["probe_walk_keys"],
        "core.batch.scalar_fallbacks": stats["scalar_fallbacks"],
        "trace.overhead": _rate(plain) / _rate(traced) - 1.0,
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cpu = pin_to_one_cpu()
    report = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    spans = report.pop("spans")
    units = PER_LAYER if args.trace else END_TO_END
    report["host"] = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpus": os.cpu_count(),
        "machine": platform.machine(),
        "pinned_cpu": cpu,
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{args.workload}-trace{args.trace}")
    with open(stem + ".json", "w") as handle:
        json.dump(report, handle, indent=2)
    if spans is not None:
        spans.write(stem + "-spans.npz")
    inputs = report["inputs"]
    print(
        f"{args.workload} seed={args.seed} inputs sha256={inputs['sha256']} "
        f"load_factor={inputs['load_factor']:.4f} blocks={report['blocks']} "
        f"measured_s={report['measured_s']:.2f}"
    )
    print(
        json.dumps(
            {
                "correct": report["correct"],
                "attempted": report["attempted"],
                "failed": report["failed"],
                "metrics": {
                    name: {"value": report["metrics"][name], "unit": unit}
                    for name, unit in units.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
