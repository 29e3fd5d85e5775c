"""Closed- and open-loop load generation against the serving tier.

Simulates the "millions of users" traffic shape the north star asks for:
a Zipf-skewed key popularity (heavy-tailed, like real prefix/trigram
traffic — :mod:`repro.workloads.access`) with a configurable miss
fraction, driven through :class:`~repro.serving.service.ShardedService`
two ways:

* **closed loop** — ``users`` concurrent simulated users, each issuing
  its next request the moment the previous answer returns.  Throughput
  here is *sustained* throughput: the service is never idle and never
  overdriven, so requests/second measures the pipeline itself.
* **open loop** — arrivals fire on a fixed schedule at ``offered_qps``
  regardless of completions (the arrival process of a large independent
  user population).  When the offered rate exceeds capacity the pending
  queues fill and admission control sheds load; the report separates
  offered from sustained throughput and counts every shed request.

Every request is **verified**: the generator pre-computes the expected
answer for each key (the data payload for stored keys, a miss for
strangers) and counts wrong answers — the benchmark's zero-wrong gate.
Per-request latency (enqueue to answer, coalescing wait included) feeds a
:class:`~repro.telemetry.histogram.LatencyHistogram`, so reports carry
p50/p99 within the sketch's relative-error bound.  All accounting closes:
``requests == completed + shed + failed + wrong`` — nothing is dropped
without an error.  ``shed`` counts admission-control rejections
(:class:`~repro.errors.ServiceOverloadError`); ``failed`` counts every
other typed :class:`~repro.errors.CaRamError` (a shard's
:class:`~repro.errors.ShardUnavailableError` when no replica of it can
answer, a malformed key, ...) — under chaos a request may legitimately
fail, but it must fail *loudly and typed*, never silently wrong.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.errors import (
    CaRamError,
    ConfigurationError,
    ServiceOverloadError,
)
from repro.serving.service import ShardedService
from repro.telemetry.histogram import LatencyHistogram
from repro.utils.rng import make_rng
from repro.workloads.access import sample_accesses, skewed_rank_weights

__all__ = [
    "LoadReport",
    "RequestStream",
    "make_request_stream",
    "run_closed_loop",
    "run_open_loop",
]

#: Sentinel expected value for keys that must miss.
MISS = -1


@dataclass
class RequestStream:
    """A pre-sampled request sequence with per-request expected answers."""

    keys: List[int]
    expected: List[int]  # data payload, or MISS
    zipf_exponent: float
    miss_fraction: float
    seed: int

    def __len__(self) -> int:
        return len(self.keys)


def make_request_stream(
    stored: Sequence[int],
    values: Dict[int, int],
    requests: int,
    zipf_exponent: float = 1.0,
    miss_fraction: float = 0.1,
    seed: int = 0,
    key_bits: int = 32,
) -> RequestStream:
    """Zipf-skewed request stream over a stored key population.

    Args:
        stored: the loaded keys (popularity ranks are shuffled over them,
            so popularity is uncorrelated with key value — the paper's
            "skew is an artifact" convention).
        values: expected data payload per stored key.
        requests: stream length.
        zipf_exponent: skew (0 = uniform; ~1 = classic web/trace skew).
        miss_fraction: fraction of requests replaced with random
            not-stored keys (verified to miss).
    """
    if not 0 <= miss_fraction <= 1:
        raise ConfigurationError(
            f"miss_fraction must be in [0, 1]: {miss_fraction}"
        )
    weights = skewed_rank_weights(len(stored), zipf_exponent, seed=seed)
    picks = sample_accesses(weights, requests, seed=seed + 1)
    rng = make_rng(seed + 2)
    stored_set = set(stored)
    keys: List[int] = []
    expected: List[int] = []
    miss_draws = rng.random(requests)
    for i in range(requests):
        if miss_draws[i] < miss_fraction:
            key = int(rng.integers(0, 1 << key_bits))
            while key in stored_set:
                key = int(rng.integers(0, 1 << key_bits))
            keys.append(key)
            expected.append(MISS)
        else:
            key = int(stored[int(picks[i])])
            keys.append(key)
            expected.append(int(values[key]))
    return RequestStream(
        keys=keys,
        expected=expected,
        zipf_exponent=zipf_exponent,
        miss_fraction=miss_fraction,
        seed=seed,
    )


@dataclass
class LoadReport:
    """Outcome of one load-generation run (all accounting closes)."""

    mode: str
    requests: int
    completed: int
    shed: int
    failed: int
    wrong: int
    duration_s: float
    offered_qps: Optional[float]
    sustained_qps: float
    coalescing_factor: float
    batches: int
    latency: Dict[str, object] = field(default_factory=dict)

    @property
    def shed_fraction(self) -> float:
        return self.shed / self.requests if self.requests else 0.0

    @property
    def failed_fraction(self) -> float:
        return self.failed / self.requests if self.requests else 0.0

    def as_dict(self) -> Dict[str, object]:
        return {
            "mode": self.mode,
            "requests": self.requests,
            "completed": self.completed,
            "shed": self.shed,
            "shed_fraction": self.shed_fraction,
            "failed": self.failed,
            "failed_fraction": self.failed_fraction,
            "wrong": self.wrong,
            "duration_s": self.duration_s,
            "offered_qps": self.offered_qps,
            "sustained_qps": self.sustained_qps,
            "coalescing_factor": self.coalescing_factor,
            "batches": self.batches,
            "latency": self.latency,
        }


class _Accounting:
    """Shared tallies all user/request coroutines fold into."""

    __slots__ = ("completed", "shed", "failed", "wrong", "latency")

    def __init__(self, latency_error: Optional[float]) -> None:
        self.completed = 0
        self.shed = 0
        self.failed = 0
        self.wrong = 0
        self.latency = (
            LatencyHistogram(latency_error)
            if latency_error is not None
            else LatencyHistogram()
        )

    async def issue(
        self, service: ShardedService, key: int, expected: int
    ) -> None:
        started = time.perf_counter()
        try:
            result = await service.lookup(key)
        except ServiceOverloadError:
            self.shed += 1
            return
        except CaRamError:
            # Typed failure (replica set down, detected corruption, ...):
            # the request resolved loudly — count it, never drop it.
            self.failed += 1
            return
        self.latency.observe(time.perf_counter() - started)
        answer = MISS if not result.hit else result.data
        if answer != expected:
            self.wrong += 1
        else:
            self.completed += 1


def _report(
    mode: str,
    stream_len: int,
    accounting: _Accounting,
    duration: float,
    offered_qps: Optional[float],
    batches_before: int,
    keys_before: int,
    service: ShardedService,
) -> LoadReport:
    batches = service.stats.batches - batches_before
    keys = service.stats.coalesced_keys - keys_before
    return LoadReport(
        mode=mode,
        requests=stream_len,
        completed=accounting.completed,
        shed=accounting.shed,
        failed=accounting.failed,
        wrong=accounting.wrong,
        duration_s=duration,
        offered_qps=offered_qps,
        sustained_qps=(
            accounting.completed / duration if duration > 0 else 0.0
        ),
        coalescing_factor=keys / batches if batches else 0.0,
        batches=batches,
        latency=accounting.latency.as_dict(),
    )


async def run_closed_loop(
    service: ShardedService,
    stream: RequestStream,
    users: int,
    latency_error: Optional[float] = None,
) -> LoadReport:
    """``users`` concurrent users splitting the stream round-robin, each
    issuing back-to-back requests (sustained-throughput mode)."""
    if users <= 0:
        raise ConfigurationError(f"users must be positive: {users}")
    accounting = _Accounting(latency_error)

    async def user(user_id: int) -> None:
        for i in range(user_id, len(stream), users):
            await accounting.issue(
                service, stream.keys[i], stream.expected[i]
            )

    batches_before = service.stats.batches
    keys_before = service.stats.coalesced_keys
    started = time.perf_counter()
    await asyncio.gather(*(user(u) for u in range(min(users, len(stream)))))
    duration = time.perf_counter() - started
    return _report(
        "closed_loop",
        len(stream),
        accounting,
        duration,
        None,
        batches_before,
        keys_before,
        service,
    )


async def run_open_loop(
    service: ShardedService,
    stream: RequestStream,
    offered_qps: float,
    latency_error: Optional[float] = None,
) -> LoadReport:
    """Fire the stream on a fixed arrival schedule at ``offered_qps``.

    Arrivals are independent of completions — the millions-of-users
    arrival process.  Overload is expected behavior here: requests the
    admission controller sheds count as shed (they received a typed
    error), and the report's ``sustained_qps`` is what actually
    completed.
    """
    if offered_qps <= 0:
        raise ConfigurationError(
            f"offered_qps must be positive: {offered_qps}"
        )
    accounting = _Accounting(latency_error)
    inflight: List[asyncio.Task] = []
    batches_before = service.stats.batches
    keys_before = service.stats.coalesced_keys
    loop = asyncio.get_running_loop()
    started = time.perf_counter()
    start_at = loop.time()
    for i in range(len(stream)):
        due = start_at + i / offered_qps
        delay = due - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        inflight.append(
            loop.create_task(
                accounting.issue(
                    service, stream.keys[i], stream.expected[i]
                )
            )
        )
    await asyncio.gather(*inflight)
    duration = time.perf_counter() - started
    return _report(
        "open_loop",
        len(stream),
        accounting,
        duration,
        offered_qps,
        batches_before,
        keys_before,
        service,
    )
