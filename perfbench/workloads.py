"""The benchmark's three workloads: seeded inputs, set-up, verified blocks.

Each workload makes every input from one seed before any clock starts —
tables, request streams, flap schedules and the expected answers — and
records a digest of them.  ``run.py`` then times two steps:

* ``build()`` plus ``first_call(state)`` — the set-up (build and load,
  then the first lookup call, which builds the batch engine);
* ``run_block(state, index, spans)`` — one block of fixed work; the
  answers are checked after the timed calls return.

Why these three workloads, and which layers each one exercises, is in
``NOTES.md`` next to this file.
"""

from __future__ import annotations

import asyncio
import hashlib
import time
from array import array
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.apps.iplookup.caram import build_ip_caram, lpm_search_batch
from repro.apps.iplookup.designs import IP_DESIGNS
from repro.apps.iplookup.prefix import Prefix
from repro.apps.iplookup.table_gen import SyntheticBgpConfig, generate_bgp_table
from repro.apps.iplookup.trie import BinaryTrie
from repro.apps.trigram.caram import (
    StringKeyCodec,
    build_trigram_caram,
    trigram_lookup_batch,
)
from repro.apps.trigram.designs import TRIGRAM_DESIGNS
from repro.apps.trigram.generator import (
    FULL_TRIGRAM_COUNT,
    TrigramConfig,
    generate_trigram_database,
)
from repro.core.subsystem import SliceGroup
from repro.errors import CaRamError
from repro.serving import CaramCluster, ShardedService, make_request_stream
from repro.telemetry.profiling import get_profiler
from repro.workloads.access import sample_accesses, skewed_rank_weights
from repro.workloads.keys import unique_random_keys

from spans import (
    SpanLog,
    TimedExecutor,
    TimedResults,
    hash_patches,
    installed,
    instance_patch,
    method_patch,
)

_perf = time.perf_counter

#: Answer codes besides a stored payload (payloads are >= 0).
MISS = -1
FAILED = -2


def _seed(seed: int, part: int) -> int:
    """Independent integer seed for one input part of one workload seed."""
    return seed * 64 + part


class Digest:
    """SHA-256 over a workload's generated inputs, so that an edit to an
    input generator shows as changed inputs rather than as a speed-up."""

    def __init__(self) -> None:
        self._hash = hashlib.sha256()

    def add(self, *parts) -> None:
        for part in parts:
            if isinstance(part, np.ndarray):
                part = np.ascontiguousarray(part).tobytes()
            self._hash.update(part)
            self._hash.update(b"|")

    def hexdigest(self) -> str:
        return self._hash.hexdigest()


@dataclass
class Block:
    """One block of fixed work, measured and checked."""

    seconds: float
    lookups: int
    updates: int = 0
    failed: int = 0
    lookup_latency: Sequence[float] = ()
    update_latency: Sequence[float] = ()
    stats: Dict[str, int] = field(default_factory=dict)
    #: serve-zipf: coalescer batches and keys during the block.
    batches: int = 0
    coalesced_keys: int = 0
    #: Set by the runner: whether the block was traced, its spans and its
    #: median call latency (ms).
    traced: bool = False
    spans: tuple = (0, 0)
    p50: float = 0.0


def stats_of(search_stats) -> Dict[str, int]:
    return {
        "lookups": search_stats.lookups,
        "accesses": search_stats.total_bucket_accesses,
        "probe_walk_keys": search_stats.probe_walk_keys,
        "scalar_fallbacks": search_stats.scalar_fallbacks,
    }


def stats_delta(after: Dict[str, int], before: Dict[str, int]) -> Dict[str, int]:
    return {key: after[key] - before[key] for key in after}


def count_wrong(answers: Sequence[int], expected: Sequence[int]) -> int:
    return int(np.count_nonzero(np.asarray(answers) != np.asarray(expected)))


def as_codes(values: Sequence[Optional[int]]) -> List[int]:
    """``data_values()`` output as answer codes (None -> MISS)."""
    return [MISS if value is None else value for value in values]


# ----------------------------------------------------------------------
# serve-zipf: 4-shard cluster behind the coalescing asyncio service
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ServeShape:
    shards: int = 4
    index_bits: int = 8
    slots: int = 16
    load_factor: float = 0.75
    users: int = 256
    block_requests: int = 8192
    stream_requests: int = 131_072
    #: Table builds per run, each followed by its share of the blocks.
    segments: int = 10

    def __post_init__(self) -> None:
        if self.stream_requests % self.block_requests:
            raise ValueError("the stream must hold whole blocks")

    @property
    def capacity(self) -> int:
        return self.shards * (1 << self.index_bits) * self.slots

    @property
    def records(self) -> int:
        return int(self.capacity * self.load_factor)


class ServeZipf:
    """Zipf 1.0 single-key lookups with 10% guaranteed misses, sent by a
    closed loop of asyncio users through ``ShardedService`` (default
    knobs) over a ``CaramCluster`` with the default consistent-hash
    router."""

    name = "serve-zipf"
    shapes = {"full": ServeShape(), "tiny": ServeShape(
        index_bits=4, users=16, block_requests=512, stream_requests=4096,
        segments=2,
    )}

    def __init__(self, seed: int, shape: ServeShape) -> None:
        self.shape = shape
        stored = unique_random_keys(shape.records, 32, seed=_seed(seed, 1))
        payloads = np.random.default_rng(_seed(seed, 2)).integers(
            0, 1 << 16, size=shape.records
        )
        self.stored = stored.tolist()
        self.records = list(zip(self.stored, payloads.tolist()))
        stream = make_request_stream(
            self.stored,
            dict(self.records),
            requests=shape.stream_requests,
            zipf_exponent=1.0,
            miss_fraction=0.1,
            seed=_seed(seed, 3),
            key_bits=32,
        )
        self.keys: List[int] = stream.keys
        self.expected: List[int] = stream.expected
        self.first_keys = self.keys[: shape.block_requests]
        digest = Digest()
        digest.add(stored, payloads, np.asarray(self.keys), np.asarray(self.expected))
        self.digest = digest.hexdigest()
        self.sizes = {
            "records": shape.records,
            "capacity": shape.capacity,
            "requests_per_block": shape.block_requests,
            "stream_requests": shape.stream_requests,
        }
        self._runner: Optional[asyncio.Runner] = None
        self._service: Optional[ShardedService] = None
        self._executors: Dict[bool, ThreadPoolExecutor] = {}

    # -- set-up ---------------------------------------------------------

    def build(self) -> CaramCluster:
        cluster = CaramCluster.build(
            self.shape.shards,
            index_bits=self.shape.index_bits,
            slots=self.shape.slots,
        )
        cluster.load(self.records)
        return cluster

    def first_call(self, cluster: CaramCluster) -> List[int]:
        return [
            result.data if result.hit else MISS
            for result in cluster.search_batch(self.first_keys)
        ]

    def first_expected(self) -> List[int]:
        return self.expected[: len(self.first_keys)]

    def load_factor(self, cluster: CaramCluster) -> float:
        return cluster.record_count / self.shape.capacity

    def setup_patches(self, spans: SpanLog):
        return [
            method_patch(spans, SliceGroup, "bulk_load", "core.bulk.load"),
            method_patch(spans, CaramCluster, "load", "setup.keys"),
        ]

    # -- run --------------------------------------------------------------

    def start(self, cluster: CaramCluster, spans: Optional[SpanLog]) -> None:
        """Open the event loop and the service.  A traced run swaps the
        loop's default executor between a plain pool (untraced blocks) and
        a timing pool of the same size (traced blocks); an untraced run
        leaves the loop's own executor alone."""
        self._runner = asyncio.Runner()
        self._service = ShardedService(cluster)
        self._executors = {}
        if spans is not None:
            self._executors = {
                False: ThreadPoolExecutor(thread_name_prefix="asyncio"),
                True: TimedExecutor(spans),
            }

    def stop(self, cluster: CaramCluster) -> None:
        try:
            self._runner.run(self._service.aclose())
        finally:
            self._runner.close()
            for executor in self._executors.values():
                executor.shutdown(wait=True)

    def run_patches(self, cluster: CaramCluster, spans: SpanLog):
        def timed_results(result_set, _span):
            return TimedResults(result_set, spans, tag=True)

        patches = [
            instance_patch(
                spans, cluster.router, "shard_for_query", "serving.router"
            )
        ]
        for shard in cluster.shards:
            patches.append(
                instance_patch(
                    spans, shard, "search_batch_columnar", "serving.cluster",
                    after=timed_results,
                )
            )
            patches.append(group_patch(spans, shard.group))
            patches.extend(
                hash_patches(spans, shard.group.index_generator.hash_function)
            )
        return patches

    def run_block(
        self, cluster: CaramCluster, index: int, spans: Optional[SpanLog]
    ) -> Block:
        count = self.shape.block_requests
        first = (index * count) % len(self.keys)
        keys = self.keys[first : first + count]
        expected = self.expected[first : first + count]
        patches = []
        if self._executors:
            self._runner.get_loop().set_default_executor(
                self._executors[spans is not None]
            )
        if spans is not None:
            patches = self.run_patches(cluster, spans)
        before = stats_of(cluster.total_stats())
        coalescer = self._service.stats
        batches, coalesced = coalescer.batches, coalescer.coalesced_keys
        with installed(patches):
            answers, latency, seconds = self._runner.run(
                self._block(keys, spans)
            )
        answered = np.asarray(answers) != FAILED
        return Block(
            seconds=seconds,
            lookups=count,
            failed=count_wrong(answers, expected),
            lookup_latency=np.frombuffer(latency, dtype=np.float64)[answered],
            stats=stats_delta(stats_of(cluster.total_stats()), before),
            batches=coalescer.batches - batches,
            coalesced_keys=coalescer.coalesced_keys - coalesced,
        )

    async def _block(self, keys: List[int], spans: Optional[SpanLog]):
        service = self._service
        count = len(keys)
        answers = [FAILED] * count
        latency = array("d", bytes(8 * count))
        cursor = 0

        async def user() -> None:
            nonlocal cursor
            while cursor < count:
                i = cursor
                cursor += 1
                started = _perf()
                if spans is not None:
                    request = spans.new_id()
                    span = spans.begin("serving.request", started, -1, request)
                    spans.set_context(span, request)
                try:
                    result = await service.lookup(keys[i])
                except CaRamError:
                    continue
                ended = _perf()
                latency[i] = ended - started
                answers[i] = result.data if result.hit else MISS
                if spans is not None:
                    spans.finish(span, ended)
                    spans.answered[span] = spans.result_batch.get(id(result), -1)

        started = _perf()
        await asyncio.gather(*(user() for _ in range(self.shape.users)))
        seconds = _perf() - started
        if spans is not None:
            spans.set_context()
            spans.result_batch.clear()
        return answers, latency, seconds


# ----------------------------------------------------------------------
# trigram-batch: Table 3 design A at 1/32 scale, read-only batches
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class TrigramShape:
    scale_shift: int = 5
    batch: int = 1024
    batches_per_block: int = 32
    pool_batches: int = 64
    segments: int = 4


_LETTERS = np.frombuffer(b"abcdefghijklmnopqrstuvwxyz ", dtype=np.uint8)


class _GroupWorkload:
    """Plumbing shared by the workloads that call one ``SliceGroup``."""

    #: (class, method) that builds the keys before ``bulk_load``.
    key_method: tuple

    def load_factor(self, group: SliceGroup) -> float:
        return group.load_factor

    def setup_patches(self, spans: SpanLog):
        return [
            method_patch(spans, SliceGroup, "bulk_load", "core.bulk.load"),
            method_patch(spans, *self.key_method, "setup.keys"),
        ]

    def start(self, group: SliceGroup, spans: Optional[SpanLog]) -> None:
        pass

    def stop(self, group: SliceGroup) -> None:
        group.close()


class TrigramBatch(_GroupWorkload):
    """``trigram_lookup_batch`` calls of 1,024 strings: Zipf 1.0 over the
    stored trigrams plus 10% strings that are not stored."""

    name = "trigram-batch"
    key_method = (StringKeyCodec, "encode_batch")
    shapes = {"full": TrigramShape(), "tiny": TrigramShape(
        scale_shift=11, batch=128, batches_per_block=4, pool_batches=8,
        segments=2,
    )}

    def __init__(self, seed: int, shape: TrigramShape) -> None:
        self.shape = shape
        self.design = TRIGRAM_DESIGNS["A"].scaled(shape.scale_shift)
        database = generate_trigram_database(
            TrigramConfig(
                total_entries=FULL_TRIGRAM_COUNT >> shape.scale_shift,
                seed=_seed(seed, 1),
            )
        )
        strings = list(database.strings())
        probabilities = database.probabilities.tolist()
        self.entries = list(zip(strings, probabilities))
        total = shape.batch * shape.pool_batches
        picks = sample_accesses(
            skewed_rank_weights(len(strings), 1.0, seed=_seed(seed, 2)),
            total,
            seed=_seed(seed, 3),
        )
        rng = np.random.default_rng(_seed(seed, 4))
        unseen = rng.random(total) < 0.1
        stored = set(strings)
        queries: List[bytes] = []
        expected: List[int] = []
        for position, pick in enumerate(picks.tolist()):
            if unseen[position]:
                text = _unseen_string(rng, stored)
                queries.append(text)
                expected.append(MISS)
            else:
                queries.append(strings[pick])
                expected.append(probabilities[pick])
        step = shape.batch
        self.pool = [queries[i : i + step] for i in range(0, total, step)]
        self.pool_expected = [expected[i : i + step] for i in range(0, total, step)]
        digest = Digest()
        digest.add(
            database.packed,
            database.probabilities,
            b"\n".join(queries),
            np.asarray(expected),
        )
        self.digest = digest.hexdigest()
        self.sizes = {
            "entries": len(strings),
            "capacity": self.design.capacity_records,
            "strings_per_call": shape.batch,
            "calls_per_block": shape.batches_per_block,
        }

    def build(self) -> SliceGroup:
        return build_trigram_caram(self.entries, self.design)

    def first_call(self, group: SliceGroup) -> List[int]:
        return as_codes(trigram_lookup_batch(group, self.pool[0]))

    def first_expected(self) -> List[int]:
        return self.pool_expected[0]

    def run_patches(self, group: SliceGroup, spans: SpanLog):
        return [
            method_patch(spans, StringKeyCodec, "encode_batch", "apps.trigram.encode"),
            group_patch(spans, group, after=_values_timer(spans)),
            *hash_patches(spans, group.index_generator.hash_function),
        ]

    def run_block(
        self, group: SliceGroup, index: int, spans: Optional[SpanLog]
    ) -> Block:
        shape = self.shape
        calls = shape.batches_per_block
        first = (index * calls) % len(self.pool)
        order = [(first + i) % len(self.pool) for i in range(calls)]
        latency = array("d")
        answers = []
        patches = self.run_patches(group, spans) if spans is not None else []
        before = stats_of(group.stats)
        with installed(patches):
            for call, batch in enumerate(order):
                texts = self.pool[batch]
                if spans is not None:
                    span = spans.begin(
                        "apps.trigram.lookup_batch", None, -1, spans.new_id()
                    )
                    spans.set_context(parent=span)
                started = _perf()
                values = trigram_lookup_batch(group, texts)
                ended = _perf()
                if spans is not None:
                    spans.finish(span, ended)
                    spans.set_context()
                latency.append(ended - started)
                answers.append(values)
        after = stats_of(group.stats)
        failed = sum(
            count_wrong(as_codes(values), self.pool_expected[batch])
            for values, batch in zip(answers, order)
        )
        return Block(
            seconds=sum(latency),
            lookups=calls * shape.batch,
            failed=failed,
            lookup_latency=np.frombuffer(latency, dtype=np.float64),
            stats=stats_delta(after, before),
        )


def _unseen_string(rng: np.random.Generator, stored: set) -> bytes:
    """A 13-16 character lowercase string that is not stored."""
    while True:
        length = int(rng.integers(13, 17))
        letters = _LETTERS[rng.integers(0, 26, size=length)]
        text = letters.tobytes()
        if text not in stored:
            return text


# ----------------------------------------------------------------------
# ip-churn: Table 2 design D, route flaps between LPM batches
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class IpShape:
    total_prefixes: int = 186_760
    batch: int = 4096
    flaps_per_round: int = 2
    rounds_per_block: int = 32
    pool_batches: int = 32
    flap_schedule: int = 8192
    segments: int = 3


class IpChurn(_GroupWorkload):
    """Full synthetic BGP table in design D.  Each round flaps two routes
    (withdraw, then re-announce with a new next hop) and then looks up one
    batch of 4,096 addresses, half inside stored prefixes (Zipf-skewed),
    half uniform."""

    name = "ip-churn"
    key_method = (Prefix, "to_ternary_key")
    shapes = {"full": IpShape(), "tiny": IpShape(
        total_prefixes=3000, batch=256, rounds_per_block=4, pool_batches=4,
        flap_schedule=256, segments=2,
    )}

    def __init__(self, seed: int, shape: IpShape) -> None:
        self.shape = shape
        self.design = IP_DESIGNS["D"]
        table = generate_bgp_table(
            SyntheticBgpConfig(
                total_prefixes=shape.total_prefixes, seed=_seed(seed, 1)
            )
        )
        values = table.values.tolist()
        lengths = table.lengths.tolist()
        self.prefixes = [Prefix(v, n) for v, n in zip(values, lengths)]
        self.base_hops = table.next_hops.astype(np.int64)
        self.pairs = list(zip(self.prefixes, self.base_hops.tolist()))

        total = shape.batch * shape.pool_batches
        rng = np.random.default_rng(_seed(seed, 2))
        inside = total // 2
        picks = sample_accesses(
            skewed_rank_weights(len(values), 1.0, seed=_seed(seed, 3)),
            inside,
            seed=_seed(seed, 4),
        )
        host_bits = 32 - table.lengths[picks].astype(np.int64)
        hosts = (rng.random(inside) * (2.0 ** host_bits)).astype(np.int64)
        skewed = table.values[picks].astype(np.int64) | hosts
        uniform = rng.integers(0, 1 << 32, size=total - inside, dtype=np.int64)
        addresses = np.concatenate([skewed, uniform])
        rng.shuffle(addresses)

        # The reference: a binary trie over the same table whose payload is
        # the prefix's position, so that replaying a flap only has to
        # change that position's next hop (flaps never change the prefix
        # set a lookup sees).
        trie = BinaryTrie()
        trie.insert_all((prefix, index) for index, prefix in enumerate(self.prefixes))
        owner = {}
        lpm = np.empty(total, dtype=np.int64)
        for i, address in enumerate(addresses.tolist()):
            found = owner.get(address)
            if found is None:
                data = trie.lookup(address).data
                found = owner[address] = MISS if data is None else data
            lpm[i] = found
        step = shape.batch
        self.pool = [addresses[i : i + step].tolist() for i in range(0, total, step)]
        self.pool_lpm = [lpm[i : i + step] for i in range(0, total, step)]

        flap_rng = np.random.default_rng(_seed(seed, 5))
        self.flap_prefix = flap_rng.integers(0, len(values), size=shape.flap_schedule)
        self.flap_hop = flap_rng.integers(0, 1 << 16, size=shape.flap_schedule)
        self.hops = self.base_hops.copy()
        self._flaps_done = 0

        digest = Digest()
        digest.add(
            table.values, table.lengths, table.next_hops, addresses, lpm,
            self.flap_prefix, self.flap_hop,
        )
        self.digest = digest.hexdigest()
        self.sizes = {
            "prefixes": len(values),
            "addresses_per_call": shape.batch,
            "flaps_per_round": shape.flaps_per_round,
            "rounds_per_block": shape.rounds_per_block,
        }

    def expected(self, batch: int) -> np.ndarray:
        lpm = self.pool_lpm[batch]
        return np.where(lpm >= 0, self.hops[np.maximum(lpm, 0)], MISS)

    def build(self) -> SliceGroup:
        # A fresh table holds the base next hops.  The flap schedule goes
        # on where the previous table left it, so that a run's tables do
        # not all replay its first few hundred flaps.
        self.hops = self.base_hops.copy()
        return build_ip_caram(self.pairs, self.design)

    def first_call(self, group: SliceGroup) -> List[int]:
        return as_codes(lpm_search_batch(group, self.pool[0]))

    def first_expected(self) -> np.ndarray:
        return self.expected(0)

    def run_patches(self, group: SliceGroup, spans: SpanLog):
        return [
            method_patch(spans, Prefix, "to_ternary_key", "apps.iplookup.key"),
            instance_patch(spans, group, "delete", "core.subsystem.update",
                           after=_copies_recorder(spans)),
            instance_patch(spans, group, "insert", "core.subsystem.update",
                           after=_copies_recorder(spans)),
            group_patch(spans, group, after=_values_timer(spans)),
            *hash_patches(spans, group.index_generator.hash_function),
        ]

    def run_block(
        self, group: SliceGroup, index: int, spans: Optional[SpanLog]
    ) -> Block:
        shape = self.shape
        rounds = shape.rounds_per_block
        schedule = len(self.flap_prefix)
        lookup_latency = array("d")
        update_latency = array("d")
        failed = 0
        updates = 0
        patches = self.run_patches(group, spans) if spans is not None else []
        before = stats_of(group.stats)
        with installed(patches):
            for step in range(rounds):
                batch = (index * rounds + step) % len(self.pool)
                for _ in range(shape.flaps_per_round):
                    slot = self._flaps_done % schedule
                    position = int(self.flap_prefix[slot])
                    hop = int(self.flap_hop[slot])
                    prefix = self.prefixes[position]
                    if spans is not None:
                        span = spans.begin(
                            "apps.iplookup.flap", None, -1, spans.new_id()
                        )
                        spans.set_context(parent=span)
                    started = _perf()
                    try:
                        key = prefix.to_ternary_key()
                        group.delete(key)
                        group.insert(key, hop)
                    except CaRamError:
                        failed += 1
                    ended = _perf()
                    if spans is not None:
                        spans.finish(span, ended)
                        spans.set_context()
                    update_latency.append(ended - started)
                    updates += 1
                    self.hops[position] = hop
                    self._flaps_done += 1
                addresses = self.pool[batch]
                if spans is not None:
                    span = spans.begin(
                        "apps.iplookup.lookup_batch", None, -1, spans.new_id()
                    )
                    spans.set_context(parent=span)
                started = _perf()
                values = lpm_search_batch(group, addresses)
                ended = _perf()
                if spans is not None:
                    spans.finish(span, ended)
                    spans.set_context()
                lookup_latency.append(ended - started)
                failed += count_wrong(as_codes(values), self.expected(batch))
        after = stats_of(group.stats)
        return Block(
            seconds=sum(lookup_latency) + sum(update_latency),
            lookups=rounds * shape.batch,
            updates=updates,
            failed=failed,
            lookup_latency=np.frombuffer(lookup_latency, dtype=np.float64),
            update_latency=np.frombuffer(update_latency, dtype=np.float64),
            stats=stats_delta(after, before),
        )


# ----------------------------------------------------------------------
# Shared tracing helpers
# ----------------------------------------------------------------------


RESYNC_PHASE = "mirror.incremental_decode"


def group_patch(spans: SpanLog, group: SliceGroup, after=None):
    """Time ``group.search_batch_columnar`` as the core.subsystem layer.
    The mirror re-decode it triggers (the profiler's
    ``mirror.incremental_decode`` phase) becomes a child span, so the
    layer's self time excludes it."""
    inner = group.search_batch_columnar

    def resync_aware(*args, **kwargs):
        profiler = get_profiler()
        before = profiler.seconds(RESYNC_PHASE)
        result = inner(*args, **kwargs)
        spent = profiler.seconds(RESYNC_PHASE) - before
        if spent > 0:
            now = _perf()
            spans.add("memory.mirror.resync", now - spent, now)
        return result

    return (
        group,
        "search_batch_columnar",
        spans.wrap("core.subsystem", resync_aware, after),
    )


def _values_timer(spans: SpanLog):
    def timed(result_set, _span):
        return TimedResults(result_set, spans, tag=False)

    return timed


def _copies_recorder(spans: SpanLog):
    """Keep the copies a delete/insert reports touching, per span."""

    def record(copies, span):
        spans.copies[span] = copies
        return copies

    return record


WORKLOADS = {cls.name: cls for cls in (ServeZipf, TrigramBatch, IpChurn)}
