"""Shard assembly: N logical shards of R replicas behind one router.

:class:`CaramShard` is one logical shard: R bit-identical replicas
(:class:`~repro.serving.replication.Replica`, R=1 by default), each
holding its own :class:`~repro.core.subsystem.SliceGroup` — its own
arrays, batch engine and telemetry, like an independent CA-RAM chip in a
multi-bank deployment.  The shard owns the circuit breaker over its
replicas and the failover loop every lookup runs through, at every R.
:class:`CaramCluster` composes the shards with a
:class:`~repro.serving.router.ShardRouter` and provides:

* **loading** — records partition by :meth:`ShardRouter.shards_for_stored`
  (an LPM prefix spanning several ranges is duplicated into each) and
  bulk-load into every replica of each shard through the vectorized
  pipeline, so the replicas are bit-identical by construction;
* a **direct synchronous batch path** (:meth:`search_batch`,
  :meth:`lookup`) — scatter by router, the failover loop inline per
  shard, gather back into request order.  This is simultaneously the
  serving tier's correctness reference (the async coalescer must be
  bit-identical to it) and the cluster half of the load generator's
  baseline;
* **chaos and membership** — per-replica fault injection
  (:meth:`inject_chaos`), health verdicts folded into the breaker
  (:meth:`apply_health_report`), breaker trace events
  (:meth:`set_tracer`), and a membership snapshot;
* **telemetry** — every replica mounts under
  ``{prefix}.shard{s}.replica{r}.*`` and the cluster aggregate mounts
  under ``{prefix}.cluster.*``, computed by the components' own merges
  (:meth:`total_stats`, summed occupancy, :meth:`BulkTotals.merged
  <repro.core.bulk.BulkTotals.merged>`) so counters sum exactly,
  latency sketches merge bucket-exactly, and derived ratios (AMAL, hit
  rate, spill rate) come from the merged counts — the existing
  ``repro telemetry serve``/``health`` CLI reads the whole cluster off
  these mounts;
* **lifecycle** — :meth:`close` drops every replica's batch engine; the
  cluster is a context manager.
"""

from __future__ import annotations

import asyncio
import time
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.errors import (
    CaRamError,
    ConfigurationError,
    KeyFormatError,
    ServiceOverloadError,
    ShardUnavailableError,
)
from repro.core.bucket import SlotPriority
from repro.core.bulk import BulkTotals
from repro.core.config import Arrangement, SliceConfig
from repro.core.index import KeyInput
from repro.core.record import RecordFormat
from repro.core.results import SearchResult
from repro.core.stats import SearchStats
from repro.core.subsystem import SliceGroup
from repro.hashing.bit_select import BitSelectHash
from repro.serving.replication import (
    ACTIVE,
    CORRUPT,
    CRASH,
    EVICTED,
    MAX_ATTEMPTS,
    PROBATION,
    PROBE_INTERVAL,
    READMIT_AFTER,
    ChaosSpec,
    FailoverPolicy,
    FailoverStats,
    Replica,
    ShardChaos,
    backoff_delay,
)
from repro.serving.router import ConsistentHashRouter, ShardRouter
from repro.utils.rng import make_rng

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.results import BatchResultSet
    from repro.telemetry.health import HealthReport
    from repro.telemetry.metrics import MetricsRegistry
    from repro.telemetry.trace import Tracer

__all__ = ["CaramShard", "CaramCluster"]

#: Errors that belong to the request, not to the replica that raised
#: them: the failover loop re-raises them at once, without a retry and
#: without a mark against the replica.
_CALLER_ERRORS = (KeyFormatError, ServiceOverloadError)


class CaramShard:
    """One logical shard: R replicas, a circuit breaker, a failover loop.

    Reads go round-robin over the live replicas.  Consecutive
    failures **evict** a replica, evicted replicas re-enter on
    **probation** after a cooldown, probation replicas serve trickle
    probes and are **re-admitted** after enough successes (one probation
    failure re-evicts).  Health verdicts from
    :mod:`repro.telemetry.health` feed the same breaker via
    :meth:`apply_health_report`.  The breaker and the loop run at R=1
    too: a failing call is retried, then raised as
    :class:`~repro.errors.ShardUnavailableError`.
    """

    def __init__(
        self,
        shard_id: int,
        groups: Sequence[SliceGroup],
        policy: Optional[FailoverPolicy] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if not groups:
            raise ConfigurationError("a shard needs at least one replica")
        self.shard_id = shard_id
        self.policy = policy if policy is not None else FailoverPolicy()
        self.clock = clock
        self.tracer: Optional["Tracer"] = None
        self.failover = FailoverStats()
        self.replicas = [
            Replica(self, replica_id, group)
            for replica_id, group in enumerate(groups)
        ]
        self._rr = 0
        self._picks = 0
        self._rng = make_rng(self.policy.seed * 1_000_003 + shard_id)

    @property
    def group(self) -> SliceGroup:
        """The primary (replica 0) database group."""
        return self.replicas[0].group

    @property
    def stats(self) -> SearchStats:
        """Search stats summed over every replica (exact merge)."""
        total = SearchStats()
        for replica in self.replicas:
            total.merge(replica.group.stats)
        return total

    def search_batch_columnar(
        self,
        keys: Sequence[KeyInput],
        search_mask: int = 0,
        replica: Optional[Replica] = None,
    ) -> "BatchResultSet":
        """One replica's vectorized lookup — the primary's unless
        ``replica`` names another.  No failover: the loop picks the
        replica and reaches this seam through :meth:`Replica.call`."""
        if replica is None:
            replica = self.replicas[0]
        return replica.group.search_batch_columnar(keys, search_mask)

    def bulk_load(self, records: Sequence[Tuple[KeyInput, int]]) -> int:
        """Load the same records into every replica (bit-identical
        copies); returns one replica's stored copies."""
        stored = [replica.group.bulk_load(records) for replica in self.replicas]
        return stored[0]

    def close(self) -> None:
        """Drop every replica's batch engine."""
        for replica in self.replicas:
            replica.group.close()

    def membership(self) -> Dict[str, object]:
        return {
            "shard_id": self.shard_id,
            "replicas": {
                f"replica{r.replica_id}": r.counters()
                for r in self.replicas
            },
            "failover": self.failover.as_dict(),
        }

    # ------------------------------------------------------------------
    # Circuit breaker
    # ------------------------------------------------------------------

    def _emit(self, kind: str, **payload) -> None:
        if self.tracer is not None:
            self.tracer.emit(kind, shard_id=self.shard_id, **payload)

    def _evict(self, replica: Replica, reason: str) -> None:
        replica.state = EVICTED
        replica.evicted_at = self.clock()
        replica.consecutive_failures = 0
        replica.probation_successes = 0
        replica.evictions += 1
        self.failover.evictions += 1
        self._emit(
            "replica.evicted",
            replica_id=replica.replica_id,
            reason=reason,
        )

    def _promote_cooled(self) -> None:
        now = self.clock()
        for replica in self.replicas:
            if (
                replica.state == EVICTED
                and now - replica.evicted_at >= self.policy.probation_after
            ):
                replica.state = PROBATION
                replica.probation_successes = 0
                self.failover.probations += 1
                self._emit(
                    "replica.probation", replica_id=replica.replica_id
                )

    def pick(self, exclude: Sequence[Replica] = ()) -> Optional[Replica]:
        """Choose a replica for the next call, or None if none remain.

        Active replicas take reads round-robin; probation replicas get
        every :data:`PROBE_INTERVAL`-th pick (so they can earn
        re-admission) and the whole pool when no active replica remains.

        ``exclude`` holds the replicas this request already consumed —
        retries prefer an untried replica.  When every live replica has
        been tried, the pick falls back to an idle one anyway: a second
        attempt on a replica that merely timed out beats declaring the
        shard exhausted while members are still serving.
        """
        self._promote_cooled()
        self._picks += 1
        active = [
            r
            for r in self.replicas
            if r.state == ACTIVE and r not in exclude
        ]
        probation = [
            r
            for r in self.replicas
            if r.state == PROBATION and r not in exclude
        ]
        pool = active
        if probation and (
            not active or self._picks % PROBE_INTERVAL == 0
        ):
            pool = probation
        if not pool:
            idle = [r for r in self.replicas if not r.inflight]
            pool = [r for r in idle if r.state == ACTIVE] or [
                r for r in idle if r.state == PROBATION
            ]
        if not pool:
            return None
        self._rr = (self._rr + 1) % len(self.replicas)
        return pool[self._rr % len(pool)]

    def record_success(self, replica: Replica) -> None:
        replica.successes += 1
        replica.consecutive_failures = 0
        if replica.state == PROBATION:
            replica.probation_successes += 1
            if replica.probation_successes >= READMIT_AFTER:
                replica.state = ACTIVE
                replica.readmissions += 1
                self.failover.readmissions += 1
                self._emit(
                    "replica.readmitted",
                    replica_id=replica.replica_id,
                )

    def record_failure(self, replica: Replica, kind: str) -> None:
        if kind == "timeout":
            replica.timeouts += 1
            self.failover.timeouts += 1
        else:
            replica.errors += 1
        replica.consecutive_failures += 1
        if replica.state == PROBATION:
            self._evict(replica, f"probation-{kind}")
        elif (
            replica.state == ACTIVE
            and replica.consecutive_failures >= self.policy.evict_after
        ):
            self._evict(replica, kind)

    def apply_health_report(
        self, replica_id: int, report: "HealthReport"
    ) -> None:
        """Fold a health-monitor verdict into membership: CRITICAL
        evicts the replica, WARN is counted (visible in telemetry) but
        does not change membership on its own."""
        from repro.telemetry.health import CRITICAL, OK

        replica = self.replicas[replica_id]
        level = report.level
        if level == OK:
            return
        replica.health_warnings += 1
        if level == CRITICAL and replica.state != EVICTED:
            self._evict(replica, "health-critical")

    # ------------------------------------------------------------------
    # Failover loop
    # ------------------------------------------------------------------

    def call(
        self, keys: Sequence[KeyInput], search_mask: int = 0
    ) -> List[SearchResult]:
        """:meth:`resolve` inline, in the caller's thread: the coroutine
        never suspends without an event loop, so one ``send`` runs it to
        completion."""
        coroutine = self.resolve(keys, search_mask)
        try:
            coroutine.send(None)
        except StopIteration as finished:
            return finished.value
        coroutine.close()  # pragma: no cover - defensive
        raise RuntimeError("the inline failover loop suspended")

    async def resolve(
        self,
        keys: Sequence[KeyInput],
        search_mask: int = 0,
        loop: Optional[asyncio.AbstractEventLoop] = None,
    ) -> List[SearchResult]:
        """Answer one sub-batch: pick a replica, call it, fail over.

        With ``loop``, every replica call runs on that loop's default
        executor under the policy's deadline and attempt timeout, and a
        retry first sleeps its jittered backoff.  Without it the calls
        run back to back in the caller's thread, with none of those.

        A replica still running an abandoned call gets no new work (see
        :meth:`_pick_idle`), so a hung replica holds at most one
        executor thread.

        Raises:
            ShardUnavailableError: no replica answered within the
                policy; the last replica error, if any, is its cause.
            KeyFormatError / ServiceOverloadError: a replica rejected
                the request itself — raised at once, never retried.
        """
        deadline_at = None
        if loop is not None and self.policy.deadline is not None:
            deadline_at = loop.time() + self.policy.deadline
        tried: List[Replica] = []
        last_error: Optional[CaRamError] = None
        timed_out = False
        for attempt in range(MAX_ATTEMPTS):
            if attempt:
                self.failover.retries += 1
                self._emit(
                    "replica.retry", attempt=attempt, keys=len(keys)
                )
                if loop is not None:
                    delay = backoff_delay(attempt, self._rng)
                    if deadline_at is not None:
                        delay = min(
                            delay, max(0.0, deadline_at - loop.time())
                        )
                    if delay > 0:
                        await asyncio.sleep(delay)
            replica = self._pick_idle(tried, offloaded=loop is not None)
            if replica is None:
                break  # nothing left to pick from
            try:
                return await self._attempt(
                    replica, keys, search_mask, deadline_at, loop
                )
            except asyncio.TimeoutError:
                timed_out = True
                last_error = None
                if deadline_at is not None and loop.time() >= deadline_at:
                    break  # total budget gone; retrying cannot help
            except _CALLER_ERRORS:
                raise
            except CaRamError as error:
                last_error = error
        self.failover.exhausted += 1
        if timed_out:
            reason = "timed out"
        elif last_error is not None:
            reason = "all failed"
        else:
            reason = "no replica available"
        raise ShardUnavailableError(
            f"shard {self.shard_id}: no replica answered within policy "
            f"({len(tried)} tried, {reason})",
            shard_id=self.shard_id,
            attempts=len(tried),
        ) from last_error

    def _pick_idle(
        self, tried: List[Replica], offloaded: bool
    ) -> Optional[Replica]:
        """Pick the next replica for this sub-batch, adding it to
        ``tried``.

        Offloaded, a replica whose abandoned call is still running
        (``inflight``) gets no new work: a pick that lands on it records
        a timeout against it and moves on to the next replica.  Inline
        calls are never abandoned, so there a busy replica is only busy
        with another caller's call, and the new call queues behind it.
        """
        while True:
            replica = self.pick(exclude=tried)
            if replica is None:
                return None
            tried.append(replica)
            if not (offloaded and replica.inflight):
                return replica
            self.record_failure(replica, "timeout")

    async def _attempt(
        self,
        replica: Replica,
        keys: Sequence[KeyInput],
        mask: int,
        deadline_at: Optional[float],
        loop: Optional[asyncio.AbstractEventLoop],
    ) -> List[SearchResult]:
        """One call to ``replica``, folded into its breaker state.

        Without ``loop`` the call runs in the caller's thread.  With it,
        the call runs on the loop's default executor and its future is
        awaited directly, under one timer set for the earlier of
        ``deadline_at`` and the attempt timeout.  The timer cancels the
        future: the executor thread may keep running (a hang cannot be
        preempted), but its result is dropped, the replica is charged
        one timeout, and ``asyncio.TimeoutError`` is raised.  A call
        whose cutoff has already passed is charged the same way and
        never submitted.  A cancellation from outside propagates and
        charges nothing.
        """
        timer = None
        expired = False
        try:
            if loop is None:
                results = replica.call(keys, mask)
            else:
                cutoff = deadline_at
                if self.policy.attempt_timeout is not None:
                    attempt_cutoff = loop.time() + self.policy.attempt_timeout
                    if cutoff is None or attempt_cutoff < cutoff:
                        cutoff = attempt_cutoff
                if cutoff is not None and cutoff <= loop.time():
                    self.record_failure(replica, "timeout")
                    raise asyncio.TimeoutError
                future = loop.run_in_executor(None, replica.call, keys, mask)
                if cutoff is not None:

                    def expire() -> None:
                        nonlocal expired
                        expired = future.cancel()

                    timer = loop.call_at(cutoff, expire)
                results = await future
        except asyncio.CancelledError:
            if not expired:
                raise
            self.record_failure(replica, "timeout")
            raise asyncio.TimeoutError from None
        except _CALLER_ERRORS:
            raise
        except CaRamError:
            self.record_failure(replica, "error")
            raise
        finally:
            if timer is not None:
                timer.cancel()
        self.record_success(replica)
        return results


class CaramCluster:
    """N shards of R replicas + a router = one logical database.

    Build shards yourself and pass them in, or use :meth:`build` for a
    uniform lookup-table cluster shaped like the telemetry workload's
    slice (32-bit keys, 16-bit data).
    """

    def __init__(
        self, shards: Sequence[CaramShard], router: ShardRouter
    ) -> None:
        if not shards:
            raise ConfigurationError("a cluster needs at least one shard")
        if router.shard_count != len(shards):
            raise ConfigurationError(
                f"router partitions {router.shard_count} ways but the "
                f"cluster has {len(shards)} shards"
            )
        self.shards = list(shards)
        self.router = router

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    #: Geometry shared with :mod:`repro.telemetry.workload`.
    KEY_BITS = 32
    DATA_BITS = 16
    HASH_LSB = 12

    @classmethod
    def build(
        cls,
        shard_count: int,
        index_bits: int = 8,
        slots: int = 16,
        router: Optional[ShardRouter] = None,
        slot_priority: Optional[SlotPriority] = None,
        key_bits: Optional[int] = None,
        data_bits: Optional[int] = None,
        ternary: bool = False,
        replication: int = 1,
        policy: Optional[FailoverPolicy] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> "CaramCluster":
        """A uniform cluster of single-slice lookup-table shards.

        Args:
            shard_count: number of logical shards.
            index_bits: per-shard slice index bits (rows = ``2**b``).
            slots: record slots per bucket.
            router: placement policy (default: consistent hashing).
            key_bits / data_bits / ternary / slot_priority: record-format
                and :data:`~repro.core.bucket.SlotPriority` overrides.
            replication: replicas per shard.  Every replica of shard *s*
                has the same geometry and hash, and (after
                :meth:`load`) the same records in the same slots —
                bit-identical by construction, which is what makes
                failover answer-preserving.
            policy: the failover policy of every shard.
            clock: the breaker clock (injectable for tests).
        """
        if replication < 1:
            raise ConfigurationError(
                f"replication must be >= 1: {replication}"
            )
        key_bits = cls.KEY_BITS if key_bits is None else key_bits
        data_bits = cls.DATA_BITS if data_bits is None else data_bits
        if router is None:
            router = ConsistentHashRouter(shard_count)
        record_format = RecordFormat(
            key_bits=key_bits, data_bits=data_bits, ternary=ternary
        )
        aux_bits = 8
        config = SliceConfig(
            index_bits=index_bits,
            row_bits=aux_bits + slots * record_format.slot_bits,
            record_format=record_format,
            aux_bits=aux_bits,
        )
        hash_lsb = min(cls.HASH_LSB, key_bits - index_bits)

        def replica() -> SliceGroup:
            return SliceGroup(
                config=config,
                slice_count=1,
                arrangement=Arrangement.VERTICAL,
                hash_function=BitSelectHash(
                    key_bits,
                    tuple(range(hash_lsb, hash_lsb + index_bits)),
                ),
                slot_priority=slot_priority,
            )

        shards = [
            CaramShard(
                shard_id,
                [replica() for _ in range(replication)],
                policy=policy,
                clock=clock,
            )
            for shard_id in range(shard_count)
        ]
        return cls(shards, router)

    # ------------------------------------------------------------------
    # Loading
    # ------------------------------------------------------------------

    def load(self, records: Iterable[Tuple[KeyInput, int]]) -> int:
        """Partition and bulk-load a record set; returns stored copies
        (one replica's worth — every replica holds the same set).

        Each record lands on every shard the router names for it (one for
        point keys; every covered range for an LPM prefix), preserving the
        incoming order within each shard so priority-sorted loads (LPM's
        longest-first) keep their ordering guarantees.
        """
        per_shard: List[List[Tuple[KeyInput, int]]] = [
            [] for _ in self.shards
        ]
        for key, data in records:
            for shard_id in self.router.shards_for_stored(key):
                per_shard[shard_id].append((key, data))
        return sum(
            shard.bulk_load(pairs)
            for shard, pairs in zip(self.shards, per_shard)
            if pairs
        )

    @property
    def record_count(self) -> int:
        return sum(shard.group.record_count for shard in self.shards)

    # ------------------------------------------------------------------
    # Direct (synchronous) lookup — the serving tier's reference path
    # ------------------------------------------------------------------

    def search(self, key: KeyInput, search_mask: int = 0) -> SearchResult:
        """One key through its owning shard's inline failover loop."""
        shard = self.shards[self.router.shard_for_query(key)]
        return shard.call([key], search_mask)[0]

    def lookup(self, key: KeyInput, search_mask: int = 0) -> Optional[int]:
        return self.search(key, search_mask).data

    def search_batch(
        self, keys: Sequence[KeyInput], search_mask: int = 0
    ) -> List[SearchResult]:
        """Batch lookup: scatter by router, each shard's failover loop
        inline, gather back into request order.

        The coalescing front end must return exactly these results for
        the same keys — the bit-identity contract the property tests pin.
        """
        out: List[Optional[SearchResult]] = [None] * len(keys)
        for shard, positions in zip(
            self.shards, self.router.partition_queries(keys)
        ):
            if not len(positions):
                continue
            shard_keys = [keys[int(i)] for i in positions]
            results = shard.call(shard_keys, search_mask)
            for position, result in zip(positions.tolist(), results):
                out[position] = result
        return out  # type: ignore[return-value]

    def total_stats(self) -> SearchStats:
        """Sum of every replica's search stats (exact counter merge)."""
        total = SearchStats()
        for shard in self.shards:
            total.merge(shard.stats)
        return total

    # ------------------------------------------------------------------
    # Chaos and membership
    # ------------------------------------------------------------------

    def replica(self, shard_id: int, replica_id: int) -> Replica:
        return self.shards[shard_id].replicas[replica_id]

    def inject_chaos(
        self, shard_id: int, replica_id: int, spec: ChaosSpec
    ) -> None:
        """Attach a fault schedule to one replica.

        ``corrupt`` mode enables the reliability layer (ECC + quarantine
        + victim store) on the replica's group with a seeded
        ``FaultInjector`` at the spec's flip rate — corruption chaos
        exercises the whole detect-or-correct stack rather than
        bypassing it; the other modes attach a :class:`ShardChaos`.
        """
        replica = self.replica(shard_id, replica_id)
        if spec.mode == CORRUPT:
            from repro.reliability.faults import FaultConfig

            replica.group.enable_reliability(
                faults=FaultConfig(
                    seed=spec.seed, bit_flip_rate=spec.bit_flip_rate
                )
            )
            return
        replica.chaos = ShardChaos(spec)

    def kill_replica(self, shard_id: int, replica_id: int) -> None:
        """Crash one replica immediately (every future call raises)."""
        self.inject_chaos(shard_id, replica_id, ChaosSpec(mode=CRASH))

    def clear_chaos(self, shard_id: int, replica_id: int) -> None:
        self.replica(shard_id, replica_id).chaos = None

    def apply_health_report(
        self, shard_id: int, replica_id: int, report: "HealthReport"
    ) -> None:
        self.shards[shard_id].apply_health_report(replica_id, report)

    def set_tracer(self, tracer: Optional["Tracer"]) -> None:
        for shard in self.shards:
            shard.tracer = tracer

    def membership(self) -> Dict[str, object]:
        return {
            f"shard{shard.shard_id}": shard.membership()
            for shard in self.shards
        }

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------

    def enable_latency_tracking(
        self, relative_error: Optional[float] = None
    ) -> None:
        for shard in self.shards:
            for replica in shard.replicas:
                replica.group.enable_latency_tracking(relative_error)

    def register_telemetry(
        self, registry: "MetricsRegistry", prefix: str = "serving"
    ) -> None:
        """Mount every replica plus the cluster aggregate.

        Replica *r* of shard *s* mounts its full group telemetry under
        ``{prefix}.shard{s}.replica{r}.*``; the cluster-wide view mounts
        under ``{prefix}.cluster.search`` / ``.occupancy`` / ``.bulk``,
        computed at snapshot time by the components' own merges
        (:meth:`total_stats`, summed occupancy, ``BulkTotals.merged``), in
        fixed shard and replica order, so health rules and dashboards can
        address the whole cluster as one database.  Activity (search
        stats, physical row fetches) adds over every replica; stored state
        (record and capacity counts, the bulk plan) is counted once per
        shard, from its primary.  Breaker state and failover counters
        mount at ``{prefix}.replica.membership``, the layout at
        ``{prefix}.cluster.topology``.
        """
        for shard in self.shards:
            for replica in shard.replicas:
                replica.group.register_telemetry(
                    registry,
                    prefix=(
                        f"{prefix}.shard{shard.shard_id}"
                        f".replica{replica.replica_id}"
                    ),
                )

        def occupancy() -> Dict[str, object]:
            primaries = [shard.group for shard in self.shards]
            records = sum(group.record_count for group in primaries)
            capacity = sum(group.capacity_records for group in primaries)
            return {
                "record_count": records,
                "capacity_records": capacity,
                "load_factor": records / capacity if capacity else 0.0,
                "physical_row_fetches": sum(
                    replica.group.physical_row_fetches
                    for shard in self.shards
                    for replica in shard.replicas
                ),
            }

        def bulk() -> Dict[str, object]:
            plans = [
                shard.group.last_bulk_plan
                for shard in self.shards
                if shard.group.last_bulk_plan is not None
            ]
            return BulkTotals.merged(plans).as_dict() if plans else {}

        registry.register_provider(
            f"{prefix}.cluster.search", lambda: self.total_stats().as_dict()
        )
        registry.register_provider(f"{prefix}.cluster.occupancy", occupancy)
        registry.register_provider(f"{prefix}.cluster.bulk", bulk)
        registry.register_provider(
            f"{prefix}.replica.membership", self.membership
        )
        registry.register_provider(
            f"{prefix}.cluster.topology",
            lambda: {
                "shard_count": len(self.shards),
                "replication": len(self.shards[0].replicas),
                "router": type(self.router).__name__,
            },
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Close every shard (every replica's batch engine)."""
        for shard in self.shards:
            shard.close()

    def __enter__(self) -> "CaramCluster":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __len__(self) -> int:
        return len(self.shards)
