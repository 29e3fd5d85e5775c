"""Asyncio front end: request coalescing, admission control, drain.

The fast path of this repo is a vectorized batch kernel that answers
hundreds of keys per call; live traffic arrives one key at a time.
:class:`ShardedService` closes that gap: concurrent single-key
``await service.lookup(key)`` calls are routed to their owning shard
(:class:`~repro.serving.router.ShardRouter`), queued, and **coalesced**
into batches that each shard answers through its failover loop
(:meth:`~repro.serving.cluster.CaramShard.resolve`) — scattering the
columnar results back to the waiting futures bit-identically with a
direct batch call over the same keys.

Coalescing policy (per shard, classic batch-window):

* a batch flushes when ``max_batch_size`` requests are pending
  (**flush-on-size**), or
* ``max_delay`` seconds after its oldest request arrived
  (**flush-on-deadline**) — ``max_delay=0`` degrades gracefully to
  "flush whatever is queued each time the lane frees up", which still
  coalesces under backlog.

Admission control and backpressure:

* a key or search mask the shards cannot hold is rejected with
  :class:`~repro.errors.KeyFormatError` before it is queued, so it can
  never fail the requests coalesced with it;
* each shard lane holds at most ``max_pending`` queued requests; a
  request arriving at a full lane is **shed** with a typed
  :class:`~repro.errors.ServiceOverloadError` (stable CLI exit code 12) —
  every request is either answered or fails loudly, never dropped;
* :meth:`drain` stops admission, flushes every queued request, and waits
  for the lanes to empty — graceful shutdown answers everything already
  admitted; :meth:`aclose` additionally closes every shard.

Batch execution runs on the loop's default thread-pool executor by
default (NumPy kernels release the GIL for the heavy ops), keeping the
event loop free to accept and coalesce the next window while a shard
computes; there the shard's failover policy bounds every call (deadline,
attempt timeout, retry with backoff).  With ``offload=False`` the same
loop runs inline on the event loop, with no deadlines.  Per-shard lanes
serialize their own batches, so a replica's engine is only re-entered
by a retry after its call was abandoned.
"""

from __future__ import annotations

import asyncio
import itertools
from typing import Dict, List, Optional

from repro.errors import ConfigurationError, ServiceOverloadError
from repro.core.batch import check_query
from repro.core.index import KeyInput
from repro.core.results import SearchResult
from repro.serving.cluster import CaramCluster

__all__ = ["ShardedService", "CoalescerStats"]

#: Default coalescing window (seconds) — long enough to gather a batch at
#: serving rates, short enough to stay invisible next to network RTTs.
DEFAULT_MAX_DELAY = 0.002
DEFAULT_MAX_BATCH_SIZE = 512
DEFAULT_MAX_PENDING = 8192


class CoalescerStats:
    """Live counters of the coalescing front end (one per service).

    Every admitted request ends in exactly one of ``completed``, ``shed``
    or ``failed`` (its future raised, cancellation included), so
    ``requests == completed + shed + failed`` once no lookup is in
    flight.  Requests rejected before admission (draining service, dead
    lane) are not counted.
    """

    __slots__ = (
        "requests",
        "completed",
        "shed",
        "failed",
        "batches",
        "coalesced_keys",
        "max_batch_observed",
        "max_queue_depth",
        "drains",
    )

    def __init__(self) -> None:
        self.requests = 0
        self.completed = 0
        self.shed = 0
        self.failed = 0
        self.batches = 0
        self.coalesced_keys = 0
        self.max_batch_observed = 0
        self.max_queue_depth = 0
        self.drains = 0

    @property
    def coalescing_factor(self) -> float:
        """Mean keys per flushed batch — the single number that says how
        much single-request traffic the front end turned into batch work."""
        return self.coalesced_keys / self.batches if self.batches else 0.0

    def as_dict(self) -> Dict[str, object]:
        return {
            "requests": self.requests,
            "completed": self.completed,
            "shed": self.shed,
            "failed": self.failed,
            "batches": self.batches,
            "coalesced_keys": self.coalesced_keys,
            "coalescing_factor": self.coalescing_factor,
            "max_batch_observed": self.max_batch_observed,
            "max_queue_depth": self.max_queue_depth,
            "drains": self.drains,
        }


class _Request:
    __slots__ = ("key", "mask", "future")

    def __init__(self, key, mask, future) -> None:
        self.key = key
        self.mask = mask
        self.future = future


class _Lane:
    """One shard's bounded queue + wakeup event + worker task."""

    __slots__ = (
        "shard", "key_bits", "pending", "event", "task", "busy", "oldest_at"
    )

    def __init__(self, shard) -> None:
        self.shard = shard
        self.key_bits = shard.group.config.record_format.key_bits
        self.pending: List[_Request] = []
        self.event: Optional[asyncio.Event] = None
        self.task: Optional[asyncio.Task] = None
        self.busy = False
        self.oldest_at = 0.0


class ShardedService:
    """The asyncio serving tier over a :class:`CaramCluster`.

    Args:
        cluster: the shards and router to serve.
        max_batch_size: flush a lane as soon as this many requests are
            queued (1 disables coalescing — the honest one-request-at-a-
            time baseline the serving benchmark compares against).
        max_delay: seconds a request may wait for co-batched company.
        max_pending: per-shard admission bound; beyond it requests shed.
        offload: run every replica call on the loop's default executor
            under the shards' failover deadlines (default); ``False``
            runs the failover loop inline on the event loop, without
            deadlines, attempt timeouts or backoff sleeps.

    Use as an async context manager, or call :meth:`aclose` explicitly —
    a garbage-collected service cancels its lane tasks but cannot await
    them, so explicit shutdown is the clean path.
    """

    def __init__(
        self,
        cluster: CaramCluster,
        max_batch_size: int = DEFAULT_MAX_BATCH_SIZE,
        max_delay: float = DEFAULT_MAX_DELAY,
        max_pending: int = DEFAULT_MAX_PENDING,
        offload: bool = True,
    ) -> None:
        if max_batch_size < 1:
            raise ConfigurationError(
                f"max_batch_size must be >= 1: {max_batch_size}"
            )
        if max_delay < 0:
            raise ConfigurationError(
                f"max_delay must be >= 0: {max_delay}"
            )
        if max_pending < 1:
            raise ConfigurationError(
                f"max_pending must be >= 1: {max_pending}"
            )
        self.cluster = cluster
        self.max_batch_size = max_batch_size
        self.max_delay = max_delay
        self.max_pending = max_pending
        self.offload = offload
        self.stats = CoalescerStats()
        self._lanes = [_Lane(shard) for shard in cluster.shards]
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        #: Set by a lane each time it goes idle (queue empty, no batch in
        #: flight); :meth:`drain` waits on it instead of polling.
        self._idle: Optional[asyncio.Event] = None
        self._accepting = True
        self._closed = False
        self._close_task: Optional[asyncio.Task] = None

    # ------------------------------------------------------------------
    # Request path
    # ------------------------------------------------------------------

    async def lookup(
        self, key: KeyInput, search_mask: int = 0
    ) -> SearchResult:
        """One key in, one :class:`SearchResult` out — batched under the
        hood with every other concurrent caller of the same shard.

        Raises:
            KeyFormatError: the key or mask does not fit the shards'
                key width (rejected before admission, not counted).
            ServiceOverloadError: the owning shard's queue is full, or
                the service is draining/closed.
            ShardUnavailableError: no replica of the shard answered
                within its failover policy (counted in ``stats.failed``).
        """
        if not self._accepting:
            raise ServiceOverloadError(
                "service is draining; request rejected"
            )
        shard_id = self.cluster.router.shard_for_query(key)
        lane = self._lanes[shard_id]
        check_query(key, search_mask, lane.key_bits)
        loop = self._ensure_started()
        if lane.task is not None and lane.task.done():
            raise ServiceOverloadError(
                f"shard {shard_id} lane worker is not running; "
                "request rejected",
                shard_id=shard_id,
            )
        self.stats.requests += 1
        if len(lane.pending) >= self.max_pending:
            self.stats.shed += 1
            raise ServiceOverloadError(
                f"shard {shard_id} queue full "
                f"({self.max_pending} pending); request shed",
                shard_id=shard_id,
            )
        future: asyncio.Future = loop.create_future()
        if not lane.pending:
            lane.oldest_at = loop.time()
        lane.pending.append(_Request(key, search_mask, future))
        self.stats.max_queue_depth = max(
            self.stats.max_queue_depth, len(lane.pending)
        )
        assert lane.event is not None
        lane.event.set()
        try:
            result = await future
        except BaseException:
            self.stats.failed += 1
            raise
        self.stats.completed += 1
        return result

    async def lookup_value(
        self, key: KeyInput, search_mask: int = 0
    ) -> Optional[int]:
        """Convenience: the matched record's data, or None."""
        return (await self.lookup(key, search_mask)).data

    # ------------------------------------------------------------------
    # Lane workers
    # ------------------------------------------------------------------

    def _ensure_started(self) -> asyncio.AbstractEventLoop:
        loop = asyncio.get_running_loop()
        if self._loop is None:
            self._loop = loop
            self._idle = asyncio.Event()
            for lane in self._lanes:
                lane.event = asyncio.Event()
                lane.task = loop.create_task(self._run_lane(lane))
        elif self._loop is not loop:
            raise ConfigurationError(
                "ShardedService is bound to the event loop of its first "
                "request; create one service per loop"
            )
        return loop

    async def _run_lane(self, lane: _Lane) -> None:
        loop = self._loop
        assert loop is not None and lane.event is not None
        assert self._idle is not None
        try:
            while True:
                while not lane.pending:
                    self._idle.set()
                    if self._closed:
                        return
                    lane.event.clear()
                    await lane.event.wait()
                # Coalescing window: hold the batch open until it fills
                # or its oldest request's deadline passes.  A drain
                # flushes immediately.
                while (
                    len(lane.pending) < self.max_batch_size
                    and self._accepting
                    and not self._closed
                ):
                    remaining = (
                        lane.oldest_at + self.max_delay - loop.time()
                    )
                    if remaining <= 0:
                        break
                    lane.event.clear()
                    try:
                        await asyncio.wait_for(
                            lane.event.wait(), remaining
                        )
                    except asyncio.TimeoutError:
                        break
                batch = lane.pending[: self.max_batch_size]
                del lane.pending[: len(batch)]
                # Requests still queued (or arriving mid-execute) inherit
                # the already-expired window, so a backlog flushes
                # back-to-back instead of re-arming a delay it has
                # already paid.
                lane.busy = True
                try:
                    await self._execute(lane, batch)
                finally:
                    lane.busy = False
        finally:
            # The worker is leaving (close, cancellation, or a bug that
            # escaped _execute): whatever is still queued must resolve to
            # a typed error, never hang on a future nobody will answer.
            self._fail_pending(
                lane,
                ServiceOverloadError(
                    f"shard {lane.shard.shard_id} lane worker exited "
                    "with requests queued",
                    shard_id=lane.shard.shard_id,
                ),
            )
            self._idle.set()

    def _fail_pending(self, lane: _Lane, error: Exception) -> None:
        pending, lane.pending = lane.pending, []
        for request in pending:
            if not request.future.done():
                request.future.set_exception(error)

    async def _execute(self, lane: _Lane, batch: List[_Request]) -> None:
        """Resolve one flushed batch through the lane shard's failover
        loop.

        Requests sharing a search mask resolve in one columnar call; the
        (rare) mixed-mask batch splits by mask, preserving order within
        each sub-batch, so results stay identical to per-key calls.
        """
        self.stats.batches += 1
        self.stats.coalesced_keys += len(batch)
        self.stats.max_batch_observed = max(
            self.stats.max_batch_observed, len(batch)
        )
        loop = self._loop if self.offload else None
        for mask, group in itertools.groupby(batch, key=lambda r: r.mask):
            requests = list(group)
            keys = [request.key for request in requests]
            try:
                results = await lane.shard.resolve(keys, mask, loop)
            except Exception as error:  # noqa: BLE001 - fan the failure out
                for request in requests:
                    if not request.future.done():
                        request.future.set_exception(error)
                continue
            for request, result in zip(requests, results):
                if not request.future.done():
                    request.future.set_result(result)

    # ------------------------------------------------------------------
    # Shutdown
    # ------------------------------------------------------------------

    async def drain(self) -> None:
        """Stop admission, flush and answer everything already queued.

        After a drain the service rejects new requests (every
        :meth:`lookup` raises :class:`ServiceOverloadError`); the shards
        themselves stay open until :meth:`aclose`.
        """
        self._accepting = False
        self.stats.drains += 1
        for lane in self._lanes:
            if lane.event is not None:
                lane.event.set()
        while any(lane.pending or lane.busy for lane in self._lanes):
            self._idle.clear()
            await self._idle.wait()

    async def aclose(self) -> None:
        """Drain, stop the lane workers, and close every shard.

        Idempotent and safe to call concurrently — every caller (and
        every concurrent call racing the first) awaits the same close
        task, the teardown body runs exactly once, and any request still
        in flight resolves to its answer or a typed
        :class:`ServiceOverloadError`; nothing hangs.
        """
        if self._closed and self._close_task is None:
            return
        if self._close_task is None:
            loop = asyncio.get_running_loop()
            self._close_task = loop.create_task(self._aclose_once())
        await asyncio.shield(self._close_task)

    async def _aclose_once(self) -> None:
        await self.drain()
        self._closed = True
        for lane in self._lanes:
            if lane.event is not None:
                lane.event.set()
        for lane in self._lanes:
            if lane.task is not None:
                task = lane.task
                lane.task = None
                try:
                    await task
                except asyncio.CancelledError:
                    # A lane killed from outside still closes cleanly;
                    # cancellation of the close itself propagates.
                    if not task.cancelled():
                        raise
            # Belt and braces: a lane whose worker never started (the
            # service saw no traffic) can still hold nothing, but a
            # worker that died early leaves its queue to the cleanup in
            # _run_lane; anything remaining here fails typed.
            self._fail_pending(
                lane,
                ServiceOverloadError(
                    "service closed; request rejected",
                    shard_id=lane.shard.shard_id,
                ),
            )
        self.cluster.close()

    async def __aenter__(self) -> "ShardedService":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.aclose()

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------

    def register_telemetry(
        self, registry, prefix: str = "serving"
    ) -> None:
        """Mount the cluster (shards + rollup aggregate) and the
        coalescer counters under ``{prefix}.*``."""
        self.cluster.register_telemetry(registry, prefix=prefix)
        registry.register_provider(
            f"{prefix}.coalescer", self.stats.as_dict
        )
