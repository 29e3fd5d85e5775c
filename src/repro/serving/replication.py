"""Replicated shards, failover, and chaos: the fault-tolerant tier.

The serving tier before this module treats every shard as immortal — one
crashed or hung shard stalls its lane forever.  Here each logical shard
becomes a **replica set** of R bit-identical copies (same deterministic
build, same records, same router ring), and the request path becomes a
failover loop:

* :class:`ReplicatedCluster` — builds R :class:`~repro.serving.cluster.
  CaramCluster`-shaped copies and transposes them into one
  :class:`ReplicaSet` per logical shard, preserving the cluster surface
  (``router`` / ``shards`` / ``load`` / ``search_batch`` /
  ``total_stats`` / ``register_telemetry`` / ``close``) so the coalescing
  front end and the load generator run unchanged on top.
* :class:`ShardChaos` — a deterministic, seedable per-replica fault
  layer: **crash** (every call raises), **hang** (calls sleep a
  configured latency), **error** (calls raise transiently at a
  configured rate), each active over a call-index window so schedules
  replay exactly.  The **corrupt** mode routes through the reliability
  layer's :class:`~repro.reliability.faults.FaultInjector` instead, so
  ECC correction, quarantine, and the victim store all still fire under
  replica-level chaos.
* :class:`ReplicaSet` — read balancing (round-robin or least-inflight)
  plus a circuit breaker: consecutive failures **evict** a replica,
  evicted replicas re-enter on **probation** after a cooldown, probation
  replicas serve trickle probes and are **re-admitted** after enough
  successes (one probation failure re-evicts).  Health verdicts from
  :mod:`repro.telemetry.health` feed the same loop via
  :meth:`ReplicaSet.apply_health_report`.
* :class:`FaultTolerantService` — a :class:`~repro.serving.service.
  ShardedService` whose resolve step adds per-lookup deadlines
  (``asyncio.wait_for`` semantics over executor calls), retry with
  jittered exponential backoff onto a *different* replica, and optional
  hedged second reads for tail latency.  When the whole set is down the
  caller gets a typed :class:`~repro.errors.ShardUnavailableError`
  (stable exit code 13) — admitted requests always resolve, never hang.

Everything here is deterministic where determinism is possible: replica
builds are bit-identical, chaos schedules key off call indices, backoff
jitter draws from a seeded generator, and the breaker clock is
injectable for tests.
"""

from __future__ import annotations

import asyncio
import threading
import time
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.errors import (
    CaRamError,
    ConfigurationError,
    ReliabilityError,
    ServiceOverloadError,
    ShardUnavailableError,
)
from repro.core.index import KeyInput
from repro.core.results import SearchResult
from repro.core.stats import SearchStats
from repro.serving.cluster import CaramCluster, CaramShard, ShardSpec
from repro.serving.router import ConsistentHashRouter, ShardRouter
from repro.serving.service import ShardedService
from repro.utils.rng import make_rng

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.telemetry.health import HealthReport
    from repro.telemetry.metrics import MetricsRegistry
    from repro.telemetry.trace import Tracer

__all__ = [
    "CRASH",
    "HANG",
    "ERROR",
    "CORRUPT",
    "ACTIVE",
    "EVICTED",
    "PROBATION",
    "ChaosSpec",
    "ShardChaos",
    "FailoverPolicy",
    "Replica",
    "ReplicaSet",
    "ReplicatedCluster",
    "FaultTolerantService",
]

# Chaos modes.
CRASH, HANG, ERROR, CORRUPT = "crash", "hang", "error", "corrupt"
_CHAOS_MODES = (CRASH, HANG, ERROR, CORRUPT)

# Circuit-breaker membership states.
ACTIVE, EVICTED, PROBATION = "active", "evicted", "probation"


# ----------------------------------------------------------------------
# Chaos layer
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ChaosSpec:
    """One replica's deterministic fault schedule.

    The schedule keys off the replica's **call index** (0-based count of
    batch calls it has served), so a given spec against a given request
    stream replays exactly.

    Args:
        mode: ``crash`` | ``hang`` | ``error`` | ``corrupt``.
        at_call: first call index at which the fault is active.
        duration_calls: how many calls the fault stays active
            (``None`` = permanent, the default — a crashed process does
            not come back on its own).
        hang_seconds: per-call latency injected in ``hang`` mode.
        error_rate: per-call probability of raising in ``error`` mode
            (drawn from a generator seeded with ``seed``).
        bit_flip_rate: per-bit-read flip probability in ``corrupt`` mode
            (wired through the reliability layer's ``FaultInjector``).
        seed: seeds the error-rate draws / the corrupt-mode injector.
    """

    mode: str
    at_call: int = 0
    duration_calls: Optional[int] = None
    hang_seconds: float = 0.05
    error_rate: float = 1.0
    bit_flip_rate: float = 1e-4
    seed: int = 0

    def __post_init__(self) -> None:
        if self.mode not in _CHAOS_MODES:
            raise ConfigurationError(
                f"unknown chaos mode {self.mode!r}; "
                f"expected one of {_CHAOS_MODES}"
            )
        if self.at_call < 0:
            raise ConfigurationError(
                f"at_call must be >= 0: {self.at_call}"
            )
        if self.duration_calls is not None and self.duration_calls < 1:
            raise ConfigurationError(
                f"duration_calls must be >= 1 or None: "
                f"{self.duration_calls}"
            )
        if self.hang_seconds < 0:
            raise ConfigurationError(
                f"hang_seconds must be >= 0: {self.hang_seconds}"
            )
        if not 0 <= self.error_rate <= 1:
            raise ConfigurationError(
                f"error_rate must be in [0, 1]: {self.error_rate}"
            )


class ShardChaos:
    """Executes a :class:`ChaosSpec` in a replica's call path.

    ``corrupt`` mode is *not* handled here — it is wired through
    ``enable_reliability`` at injection time (see
    :meth:`ReplicatedCluster.inject_chaos`) so the full ECC/quarantine
    machinery runs; this class covers the process-level modes.
    """

    __slots__ = ("spec", "calls", "injected", "_rng")

    def __init__(self, spec: ChaosSpec) -> None:
        self.spec = spec
        self.calls = 0
        self.injected = 0
        self._rng = make_rng(spec.seed)

    def _active(self, index: int) -> bool:
        spec = self.spec
        if index < spec.at_call:
            return False
        if spec.duration_calls is None:
            return True
        return index < spec.at_call + spec.duration_calls

    def before_call(self, replica: "Replica") -> None:
        """Runs at the top of every replica batch call (under the
        replica's lock, in the executor thread for the async path)."""
        index = self.calls
        self.calls += 1
        if not self._active(index):
            return
        spec = self.spec
        if spec.mode == CRASH:
            self.injected += 1
            raise ShardUnavailableError(
                f"replica {replica.replica_id} of shard "
                f"{replica.shard_id} crashed (chaos)",
                shard_id=replica.shard_id,
            )
        if spec.mode == HANG:
            self.injected += 1
            time.sleep(spec.hang_seconds)
            return
        if spec.mode == ERROR:
            if spec.error_rate >= 1.0 or (
                float(self._rng.random()) < spec.error_rate
            ):
                self.injected += 1
                raise ReliabilityError(
                    f"replica {replica.replica_id} of shard "
                    f"{replica.shard_id} raised (chaos, transient)"
                )


# ----------------------------------------------------------------------
# Failover policy + replica bookkeeping
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class FailoverPolicy:
    """Knobs of the fault-tolerant request path and circuit breaker.

    Args:
        deadline: total per-sub-batch budget in seconds (``None`` = no
            deadline).  When it expires the requests fail typed.
        attempt_timeout: per-replica-call budget in seconds; a call that
            outlives it is abandoned (its thread may still run) and the
            loop fails over to another replica.  ``None`` = only the
            overall deadline bounds a call — set this when hangs are in
            the threat model, otherwise one hung replica can eat the
            whole deadline.
        max_attempts: primary replica attempts per sub-batch (hedges do
            not count).
        backoff_base / backoff_multiplier / backoff_cap: jittered
            exponential backoff between attempts, in seconds.
        jitter: +/- fraction applied to each backoff delay (0.5 = the
            delay varies uniformly within +/-50%), drawn from a seeded
            generator for reproducibility.
        hedge_delay: if a call has not answered after this many seconds,
            fire the same sub-batch at a second replica and take the
            first success (``None`` disables hedging).
        evict_after: consecutive failures that evict a replica.
        probation_after: seconds an evicted replica waits before
            re-entering on probation.
        readmit_after: probation successes required for re-admission
            (one probation failure re-evicts immediately).
        probe_interval: while healthy replicas exist, every Nth pick is
            routed to a probation replica so it can earn re-admission.
        balancer: ``round-robin`` or ``least-inflight``.
        seed: seeds the backoff jitter stream.
    """

    deadline: Optional[float] = 0.25
    attempt_timeout: Optional[float] = None
    max_attempts: int = 3
    backoff_base: float = 0.001
    backoff_multiplier: float = 2.0
    backoff_cap: float = 0.05
    jitter: float = 0.5
    hedge_delay: Optional[float] = None
    evict_after: int = 3
    probation_after: float = 0.25
    readmit_after: int = 2
    probe_interval: int = 8
    balancer: str = "round-robin"
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("deadline", "attempt_timeout", "hedge_delay"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise ConfigurationError(
                    f"{name} must be positive or None: {value}"
                )
        if self.max_attempts < 1:
            raise ConfigurationError(
                f"max_attempts must be >= 1: {self.max_attempts}"
            )
        if self.backoff_base < 0 or self.backoff_cap < 0:
            raise ConfigurationError("backoff must be >= 0")
        if self.backoff_multiplier < 1:
            raise ConfigurationError(
                f"backoff_multiplier must be >= 1: "
                f"{self.backoff_multiplier}"
            )
        if not 0 <= self.jitter < 1:
            raise ConfigurationError(
                f"jitter must be in [0, 1): {self.jitter}"
            )
        if self.evict_after < 1 or self.readmit_after < 1:
            raise ConfigurationError(
                "evict_after and readmit_after must be >= 1"
            )
        if self.probation_after < 0:
            raise ConfigurationError(
                f"probation_after must be >= 0: {self.probation_after}"
            )
        if self.probe_interval < 1:
            raise ConfigurationError(
                f"probe_interval must be >= 1: {self.probe_interval}"
            )
        if self.balancer not in ("round-robin", "least-inflight"):
            raise ConfigurationError(
                f"balancer must be round-robin or least-inflight: "
                f"{self.balancer!r}"
            )

    def backoff_delay(self, attempt: int, rng) -> float:
        """Jittered exponential delay before retry ``attempt`` (>= 1)."""
        delay = min(
            self.backoff_cap,
            self.backoff_base * self.backoff_multiplier ** (attempt - 1),
        )
        if self.jitter and delay > 0:
            delay *= 1.0 + self.jitter * float(rng.uniform(-1.0, 1.0))
        return delay


class Replica:
    """One physical copy of a logical shard, plus its breaker state."""

    __slots__ = (
        "shard_id",
        "replica_id",
        "shard",
        "chaos",
        "state",
        "inflight",
        "calls",
        "successes",
        "errors",
        "timeouts",
        "consecutive_failures",
        "probation_successes",
        "evicted_at",
        "evictions",
        "readmissions",
        "health_warnings",
        "_lock",
    )

    def __init__(
        self, shard_id: int, replica_id: int, shard: CaramShard
    ) -> None:
        self.shard_id = shard_id
        self.replica_id = replica_id
        self.shard = shard
        self.chaos: Optional[ShardChaos] = None
        self.state = ACTIVE
        self.inflight = 0
        self.calls = 0
        self.successes = 0
        self.errors = 0
        self.timeouts = 0
        self.consecutive_failures = 0
        self.probation_successes = 0
        self.evicted_at = 0.0
        self.evictions = 0
        self.readmissions = 0
        self.health_warnings = 0
        # Serializes batch calls into this replica's engine: a retry or
        # hedge must never re-enter a slice whose abandoned call is
        # still running in another executor thread.
        self._lock = threading.Lock()

    def call(
        self, keys: Sequence[KeyInput], mask: int = 0
    ) -> List[SearchResult]:
        """One materialized batch lookup against this replica.

        ``inflight`` is bumped *before* the lock so callers queued
        behind a slow/hung replica count toward its load — exactly the
        signal the least-inflight balancer needs to route around it.
        """
        self.inflight += 1
        try:
            with self._lock:
                self.calls += 1
                if self.chaos is not None:
                    self.chaos.before_call(self)
                return self.shard.search_batch_columnar(
                    keys, mask
                ).results()
        finally:
            self.inflight -= 1

    def counters(self) -> Dict[str, object]:
        return {
            "state": self.state,
            "inflight": self.inflight,
            "calls": self.calls,
            "successes": self.successes,
            "errors": self.errors,
            "timeouts": self.timeouts,
            "consecutive_failures": self.consecutive_failures,
            "evictions": self.evictions,
            "readmissions": self.readmissions,
            "health_warnings": self.health_warnings,
        }


class ReplicaSetStats:
    """Failover counters of one replica set."""

    __slots__ = (
        "retries",
        "timeouts",
        "hedges",
        "hedge_wins",
        "evictions",
        "probations",
        "readmissions",
        "exhausted",
    )

    def __init__(self) -> None:
        self.retries = 0
        self.timeouts = 0
        self.hedges = 0
        self.hedge_wins = 0
        self.evictions = 0
        self.probations = 0
        self.readmissions = 0
        self.exhausted = 0

    def as_dict(self) -> Dict[str, int]:
        return {name: getattr(self, name) for name in self.__slots__}


class ReplicaSet:
    """R replicas of one logical shard: balancing + circuit breaker.

    Duck-compatible with :class:`~repro.serving.cluster.CaramShard`
    where the serving tier needs it (``shard_id``, ``stats``,
    ``search_batch_columnar``, ``bulk_load``, ``close``), so both the
    plain coalescing service and the direct reference path run on top —
    the synchronous path simply fails over without deadlines.
    """

    def __init__(
        self,
        shard_id: int,
        replicas: Sequence[Replica],
        policy: Optional[FailoverPolicy] = None,
        clock: Callable[[], float] = time.monotonic,
        tracer: Optional["Tracer"] = None,
    ) -> None:
        if not replicas:
            raise ConfigurationError(
                "a replica set needs at least one replica"
            )
        self.shard_id = shard_id
        self.replicas = list(replicas)
        self.policy = policy if policy is not None else FailoverPolicy()
        self.clock = clock
        self.tracer = tracer
        self.stats = ReplicaSetStats()
        self._rr = 0
        self._picks = 0
        self._rng = make_rng(self.policy.seed * 1_000_003 + shard_id)

    # -- membership ----------------------------------------------------

    def _emit(self, kind: str, **payload) -> None:
        if self.tracer is not None:
            self.tracer.emit(kind, shard_id=self.shard_id, **payload)

    def _evict(self, replica: Replica, reason: str) -> None:
        replica.state = EVICTED
        replica.evicted_at = self.clock()
        replica.consecutive_failures = 0
        replica.probation_successes = 0
        replica.evictions += 1
        self.stats.evictions += 1
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
                self.stats.probations += 1
                self._emit(
                    "replica.probation", replica_id=replica.replica_id
                )

    def pick(
        self, exclude: Sequence[Replica] = (), retry_tried: bool = True
    ) -> Optional[Replica]:
        """Choose a replica for the next call, or None if none remain.

        Active replicas are balanced per policy; probation replicas get
        every ``probe_interval``-th pick (so they can earn re-admission)
        and the whole pool when no active replica remains.

        ``exclude`` holds the replicas this request already consumed —
        retries prefer an untried replica.  When every live replica has
        been tried and ``retry_tried`` is set, the pick falls back to
        them anyway: a second attempt on a replica that merely timed out
        beats declaring the set exhausted while members are still
        serving.  Hedges pass ``retry_tried=False`` — hedging the call
        already in flight is pure waste.
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
            not active or self._picks % self.policy.probe_interval == 0
        ):
            pool = probation
        if not pool:
            pool = active
        if not pool and retry_tried:
            pool = [r for r in self.replicas if r.state == ACTIVE]
            if not pool:
                pool = [
                    r for r in self.replicas if r.state == PROBATION
                ]
        if not pool:
            return None
        if self.policy.balancer == "least-inflight":
            return min(pool, key=lambda r: (r.inflight, r.replica_id))
        self._rr = (self._rr + 1) % len(self.replicas)
        return pool[self._rr % len(pool)]

    def record_success(self, replica: Replica) -> None:
        replica.successes += 1
        replica.consecutive_failures = 0
        if replica.state == PROBATION:
            replica.probation_successes += 1
            if replica.probation_successes >= self.policy.readmit_after:
                replica.state = ACTIVE
                replica.readmissions += 1
                self.stats.readmissions += 1
                self._emit(
                    "replica.readmitted",
                    replica_id=replica.replica_id,
                )

    def record_failure(self, replica: Replica, kind: str) -> None:
        if kind == "timeout":
            replica.timeouts += 1
            self.stats.timeouts += 1
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

    # -- CaramShard-compatible surface ---------------------------------

    @property
    def stats_merged(self) -> SearchStats:
        total = SearchStats()
        for replica in self.replicas:
            total.merge(replica.shard.stats)
        return total

    def search_batch_columnar(
        self, keys: Sequence[KeyInput], search_mask: int = 0
    ):
        """Synchronous failover lookup (the reference path; no
        deadlines — hangs are an async-path concern).

        Returns an object with ``.results()`` like the shard path does.
        """
        return _MaterializedResults(self.call(keys, search_mask))

    def call(
        self, keys: Sequence[KeyInput], search_mask: int = 0
    ) -> List[SearchResult]:
        tried: List[Replica] = []
        last_error: Optional[CaRamError] = None
        for _ in range(
            max(self.policy.max_attempts, len(self.replicas))
        ):
            replica = self.pick(exclude=tried)
            if replica is None:
                break
            if tried:
                self.stats.retries += 1
            tried.append(replica)
            try:
                results = replica.call(keys, search_mask)
            except ServiceOverloadError:
                raise
            except CaRamError as error:
                self.record_failure(replica, "error")
                last_error = error
                continue
            self.record_success(replica)
            return results
        self.stats.exhausted += 1
        raise ShardUnavailableError(
            f"shard {self.shard_id}: no replica answered "
            f"({len(tried)} tried)",
            shard_id=self.shard_id,
            attempts=len(tried),
        ) from last_error

    def bulk_load(self, records) -> int:
        """Load the same records into every replica (bit-identical
        copies); returns logical (per-replica) stored copies."""
        counts = [replica.shard.bulk_load(records) for replica in self.replicas]
        if len(set(counts)) > 1:  # pragma: no cover - defensive
            raise ReliabilityError(
                f"shard {self.shard_id}: replicas diverged at load time "
                f"({counts})"
            )
        return counts[0]

    def close(self) -> None:
        for replica in self.replicas:
            replica.shard.close()

    def membership(self) -> Dict[str, object]:
        return {
            "shard_id": self.shard_id,
            "replicas": {
                f"replica{r.replica_id}": r.counters()
                for r in self.replicas
            },
            "failover": self.stats.as_dict(),
        }


class _NoReplicaAvailable(Exception):
    """Internal: a pick found the whole set evicted/exhausted.

    Distinct from a chaos-injected :class:`ShardUnavailableError`
    bubbling out of one replica's call — that one is a *replica*
    failure the retry loop must fail over from, not a verdict on the
    set."""


class _MaterializedResults:
    """Adapter: a pre-materialized result list behind ``.results()``."""

    __slots__ = ("_results",)

    def __init__(self, results: List[SearchResult]) -> None:
        self._results = results

    def results(self) -> List[SearchResult]:
        return self._results


# ----------------------------------------------------------------------
# Replicated cluster
# ----------------------------------------------------------------------


class ReplicatedCluster:
    """R bit-identical replicas of every shard behind one router.

    Exposes the :class:`~repro.serving.cluster.CaramCluster` surface the
    serving tier consumes (``router``, ``shards`` — here the replica
    sets — ``load``, ``search_batch``, ``total_stats``,
    ``register_telemetry``, ``close``), so the coalescer, load
    generator, and telemetry CLI all run unchanged over a replicated
    deployment.
    """

    def __init__(
        self,
        replica_sets: Sequence[ReplicaSet],
        router: ShardRouter,
    ) -> None:
        if not replica_sets:
            raise ConfigurationError(
                "a replicated cluster needs at least one shard"
            )
        if router.shard_count != len(replica_sets):
            raise ConfigurationError(
                f"router partitions {router.shard_count} ways but the "
                f"cluster has {len(replica_sets)} replica sets"
            )
        self.replica_sets = list(replica_sets)
        self.router = router

    #: The serving tier addresses logical shards; replica sets are the
    #: logical shards of a replicated cluster.
    @property
    def shards(self) -> List[ReplicaSet]:
        return self.replica_sets

    @property
    def replication_factor(self) -> int:
        return len(self.replica_sets[0].replicas)

    @classmethod
    def build(
        cls,
        shard_count: int,
        replication: int = 2,
        policy: Optional[FailoverPolicy] = None,
        clock: Callable[[], float] = time.monotonic,
        index_bits: int = 8,
        slots: int = 16,
        specs: Optional[Sequence[ShardSpec]] = None,
        router: Optional[ShardRouter] = None,
        slot_priority: Optional[Callable] = None,
        key_bits: Optional[int] = None,
        data_bits: Optional[int] = None,
        ternary: bool = False,
    ) -> "ReplicatedCluster":
        """Build ``replication`` deterministic copies of the uniform
        cluster and transpose them into per-shard replica sets.

        The copies reuse :meth:`CaramCluster.build` verbatim, so every
        replica of shard *s* has the same geometry, hash, engine spec,
        and (after :meth:`load`) the same records in the same slots —
        bit-identical by construction, which is what makes failover
        answer-preserving.
        """
        if replication < 1:
            raise ConfigurationError(
                f"replication must be >= 1: {replication}"
            )
        if router is None:
            router = ConsistentHashRouter(shard_count)
        copies = [
            CaramCluster.build(
                shard_count,
                index_bits=index_bits,
                slots=slots,
                specs=specs,
                router=router,
                slot_priority=slot_priority,
                key_bits=key_bits,
                data_bits=data_bits,
                ternary=ternary,
            )
            for _ in range(replication)
        ]
        sets = []
        for shard_id in range(shard_count):
            replicas = [
                Replica(shard_id, r, copies[r].shards[shard_id])
                for r in range(replication)
            ]
            sets.append(
                ReplicaSet(shard_id, replicas, policy=policy, clock=clock)
            )
        return cls(sets, router)

    # -- loading -------------------------------------------------------

    def load(self, records) -> int:
        """Partition once, load every replica of each shard with the
        same per-shard record list; returns logical stored copies (one
        replica's worth — every replica holds the same set)."""
        per_shard: List[List[Tuple[KeyInput, int]]] = [
            [] for _ in self.replica_sets
        ]
        for key, data in records:
            for shard_id in self.router.shards_for_stored(key):
                per_shard[shard_id].append((key, data))
        return sum(
            replica_set.bulk_load(pairs)
            for replica_set, pairs in zip(self.replica_sets, per_shard)
            if pairs
        )

    @property
    def record_count(self) -> int:
        return sum(
            rset.replicas[0].shard.group.record_count
            for rset in self.replica_sets
        )

    # -- direct (synchronous) lookup -----------------------------------

    def search(
        self, key: KeyInput, search_mask: int = 0
    ) -> SearchResult:
        shard_id = self.router.shard_for_query(key)
        return self.replica_sets[shard_id].call([key], search_mask)[0]

    def lookup(
        self, key: KeyInput, search_mask: int = 0
    ) -> Optional[int]:
        return self.search(key, search_mask).data

    def search_batch(
        self, keys: Sequence[KeyInput], search_mask: int = 0
    ) -> List[SearchResult]:
        """Scatter by router, per-set failover lookup, gather in order."""
        out: List[Optional[SearchResult]] = [None] * len(keys)
        for replica_set, positions in zip(
            self.replica_sets, self.router.partition_queries(keys)
        ):
            if not len(positions):
                continue
            shard_keys = [keys[int(i)] for i in positions]
            results = replica_set.call(shard_keys, search_mask)
            for position, result in zip(positions.tolist(), results):
                out[position] = result
        return out  # type: ignore[return-value]

    def total_stats(self) -> SearchStats:
        total = SearchStats()
        for replica_set in self.replica_sets:
            total.merge(replica_set.stats_merged)
        return total

    # -- chaos injection -----------------------------------------------

    def replica(self, shard_id: int, replica_id: int) -> Replica:
        return self.replica_sets[shard_id].replicas[replica_id]

    def inject_chaos(
        self, shard_id: int, replica_id: int, spec: ChaosSpec
    ) -> None:
        """Attach a fault schedule to one replica.

        ``corrupt`` mode enables the reliability layer (ECC + quarantine
        + victim store) on the replica's group with a seeded
        ``FaultInjector`` at the spec's flip rate — corruption chaos
        exercises the whole PR-4 detect-or-correct stack rather than
        bypassing it; the other modes attach a :class:`ShardChaos`.
        """
        replica = self.replica(shard_id, replica_id)
        if spec.mode == CORRUPT:
            from repro.reliability.faults import FaultConfig

            replica.shard.group.enable_reliability(
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

    # -- health-driven membership --------------------------------------

    def apply_health_report(
        self, shard_id: int, replica_id: int, report: "HealthReport"
    ) -> None:
        self.replica_sets[shard_id].apply_health_report(
            replica_id, report
        )

    def set_tracer(self, tracer: Optional["Tracer"]) -> None:
        for replica_set in self.replica_sets:
            replica_set.tracer = tracer

    def membership(self) -> Dict[str, object]:
        return {
            f"shard{rset.shard_id}": rset.membership()
            for rset in self.replica_sets
        }

    # -- telemetry -----------------------------------------------------

    def enable_latency_tracking(
        self, relative_error: Optional[float] = None
    ) -> None:
        for rset in self.replica_sets:
            for replica in rset.replicas:
                replica.shard.group.enable_latency_tracking(
                    relative_error
                )

    def register_telemetry(
        self, registry: "MetricsRegistry", prefix: str = "serving"
    ) -> None:
        """Per-replica mounts at ``{prefix}.shard{s}.replica{r}.*``, the
        cluster-wide search rollup at ``{prefix}.cluster.search`` (exact
        merge across every replica), membership/failover counters at
        ``{prefix}.replica.membership``, and topology metadata."""
        from repro.telemetry.rollup import merge_blocks

        replicas = [
            replica
            for rset in self.replica_sets
            for replica in rset.replicas
        ]
        for replica in replicas:
            replica.shard.group.register_telemetry(
                registry,
                prefix=(
                    f"{prefix}.shard{replica.shard_id}"
                    f".replica{replica.replica_id}"
                ),
            )
        registry.register_provider(
            f"{prefix}.cluster.search",
            lambda: merge_blocks(
                [r.shard.stats.as_dict() for r in replicas]
            ),
        )
        registry.register_provider(
            f"{prefix}.replica.membership", self.membership
        )
        registry.register_provider(
            f"{prefix}.cluster.topology",
            lambda: {
                "shard_count": len(self.replica_sets),
                "replication": self.replication_factor,
                "router": type(self.router).__name__,
                "balancer": self.replica_sets[0].policy.balancer,
            },
        )

    # -- lifecycle -----------------------------------------------------

    def close(self) -> None:
        for replica_set in self.replica_sets:
            replica_set.close()

    def __enter__(self) -> "ReplicatedCluster":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __len__(self) -> int:
        return len(self.replica_sets)


# ----------------------------------------------------------------------
# Fault-tolerant service
# ----------------------------------------------------------------------


class FaultTolerantService(ShardedService):
    """The coalescing front end with failover in its resolve step.

    Inherits admission control, coalescing windows, drain, and the
    idempotent close from :class:`ShardedService`; overrides the
    per-sub-batch resolve with the policy loop: deadline, per-attempt
    timeout, retry-with-backoff onto an untried replica, optional
    hedging, and a typed :class:`ShardUnavailableError` when the set is
    exhausted.

    Batch calls always run on the executor here regardless of
    ``offload`` — a deadline can only preempt a call the event loop is
    not itself executing (a hung in-line call would block the loop and
    the timer with it).
    """

    def __init__(self, cluster: ReplicatedCluster, **kwargs) -> None:
        if not isinstance(cluster, ReplicatedCluster):
            raise ConfigurationError(
                "FaultTolerantService requires a ReplicatedCluster; "
                "use ShardedService for unreplicated deployments"
            )
        super().__init__(cluster, **kwargs)

    async def _resolve(
        self, lane, keys: List[KeyInput], mask: int
    ) -> List[SearchResult]:
        rset: ReplicaSet = lane.shard
        policy = rset.policy
        loop = self._loop
        deadline_at = (
            None
            if policy.deadline is None
            else loop.time() + policy.deadline
        )
        tried: List[Replica] = []
        last_error: Optional[CaRamError] = None
        timed_out = False
        for attempt in range(policy.max_attempts):
            if attempt:
                rset.stats.retries += 1
                rset._emit(
                    "replica.retry", attempt=attempt, keys=len(keys)
                )
                delay = policy.backoff_delay(attempt, rset._rng)
                if deadline_at is not None:
                    delay = min(
                        delay, max(0.0, deadline_at - loop.time())
                    )
                if delay > 0:
                    await asyncio.sleep(delay)
            try:
                return await self._attempt(
                    rset, keys, mask, tried, deadline_at
                )
            except asyncio.TimeoutError:
                timed_out = True
                last_error = None
                if (
                    deadline_at is not None
                    and loop.time() >= deadline_at
                ):
                    break  # total budget gone; retrying cannot help
            except _NoReplicaAvailable:
                break  # nothing left to pick from
            except CaRamError as error:
                last_error = error
        rset.stats.exhausted += 1
        detail = "deadline exceeded" if timed_out else "all failed"
        raise ShardUnavailableError(
            f"shard {rset.shard_id}: no replica answered within policy "
            f"({len(tried)} tried, {detail})",
            shard_id=rset.shard_id,
            attempts=len(tried),
        ) from last_error

    async def _attempt(
        self,
        rset: ReplicaSet,
        keys: List[KeyInput],
        mask: int,
        tried: List[Replica],
        deadline_at: Optional[float],
    ) -> List[SearchResult]:
        """One primary call, optionally hedged; first success wins.

        Records per-replica success/failure internally and appends every
        replica it consumed to ``tried`` so the outer retry loop never
        re-picks a replica that already failed this sub-batch.
        """
        loop = self._loop
        policy = rset.policy
        primary = rset.pick(exclude=tried)
        if primary is None:
            raise _NoReplicaAvailable
        tried.append(primary)
        attempt_deadline = (
            None
            if policy.attempt_timeout is None
            else loop.time() + policy.attempt_timeout
        )
        calls: Dict[asyncio.Future, Replica] = {
            self._spawn(primary, keys, mask): primary
        }
        hedge_armed = policy.hedge_delay is not None
        last_error: Optional[CaRamError] = None
        while calls:
            remaining = None
            for cutoff in (deadline_at, attempt_deadline):
                if cutoff is None:
                    continue
                budget = cutoff - loop.time()
                if budget <= 0:
                    self._abandon(rset, calls, timed_out=True)
                    raise asyncio.TimeoutError
                remaining = (
                    budget if remaining is None else min(remaining, budget)
                )
            wait_timeout = remaining
            if hedge_armed:
                wait_timeout = (
                    policy.hedge_delay
                    if remaining is None
                    else min(policy.hedge_delay, remaining)
                )
            done, _ = await asyncio.wait(
                set(calls),
                timeout=wait_timeout,
                return_when=asyncio.FIRST_COMPLETED,
            )
            if not done:
                if hedge_armed:
                    hedge_armed = False
                    hedge = rset.pick(exclude=tried, retry_tried=False)
                    if hedge is not None:
                        tried.append(hedge)
                        rset.stats.hedges += 1
                        rset._emit(
                            "replica.hedge",
                            replica_id=hedge.replica_id,
                            keys=len(keys),
                        )
                        calls[self._spawn(hedge, keys, mask)] = hedge
                continue
            for future in done:
                replica = calls.pop(future)
                try:
                    results = future.result()
                except ServiceOverloadError:
                    self._abandon(rset, calls, timed_out=False)
                    raise
                except CaRamError as error:
                    rset.record_failure(replica, "error")
                    last_error = error
                    continue
                rset.record_success(replica)
                if replica is not primary:
                    rset.stats.hedge_wins += 1
                    rset._emit(
                        "replica.hedge_won",
                        replica_id=replica.replica_id,
                    )
                self._abandon(rset, calls, timed_out=False)
                return results
        if last_error is not None:
            raise last_error
        raise asyncio.TimeoutError  # pragma: no cover - defensive

    def _spawn(
        self, replica: Replica, keys: List[KeyInput], mask: int
    ) -> asyncio.Future:
        def run() -> List[SearchResult]:
            return replica.call(keys, mask)

        return self._loop.run_in_executor(None, run)

    def _abandon(
        self,
        rset: ReplicaSet,
        calls: Dict[asyncio.Future, Replica],
        timed_out: bool,
    ) -> None:
        """Walk away from still-inflight calls.

        The executor threads may keep running (a hang cannot be
        preempted), but their results are dropped: cancelling the
        asyncio wrapper makes a late set_result/exception a no-op, so
        nothing leaks and nothing warns.
        """
        for future, replica in calls.items():
            if timed_out:
                rset.record_failure(replica, "timeout")
            future.cancel()
        calls.clear()
