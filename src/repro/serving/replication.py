"""Replicas, chaos, and the failover policy of a serving shard.

Every logical shard of a :class:`~repro.serving.cluster.CaramCluster`
holds R bit-identical replicas (R=1 by default) behind one circuit
breaker and one failover loop (both on
:class:`~repro.serving.cluster.CaramShard`).  This module holds the parts
that loop is made of:

* :class:`Replica` — one physical copy: its own ``SliceGroup``, the
  breaker state the loop reads and writes (ACTIVE / EVICTED /
  PROBATION, failure streaks, counters), and the lock that keeps a retry
  from re-entering an engine an abandoned call still runs in.
* :class:`FailoverPolicy` — the five settable values: deadline,
  per-attempt timeout, the breaker's eviction streak and cooldown, and
  the jitter seed.  The retry budget (:data:`MAX_ATTEMPTS`), the
  jittered exponential backoff (:func:`backoff_delay`), the re-admission
  count (:data:`READMIT_AFTER`) and the probe interval
  (:data:`PROBE_INTERVAL`) are constants.
* :class:`ShardChaos` — a deterministic, seedable per-replica fault
  layer: **crash** (every call raises), **hang** (calls sleep a
  configured latency), **error** (calls raise transiently at a
  configured rate), each active over a call-index window so schedules
  replay exactly.  The **corrupt** mode routes through the reliability
  layer's :class:`~repro.reliability.faults.FaultInjector` instead, so
  ECC correction, quarantine, and the victim store all still fire under
  replica-level chaos.

Everything here is deterministic where determinism is possible: chaos
schedules key off call indices, backoff jitter draws from a seeded
generator, and the breaker clock is injectable for tests.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

from repro.errors import (
    ConfigurationError,
    ReliabilityError,
    ShardUnavailableError,
)
from repro.core.index import KeyInput
from repro.core.results import SearchResult
from repro.utils.rng import make_rng

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.subsystem import SliceGroup
    from repro.serving.cluster import CaramShard

__all__ = [
    "CRASH",
    "HANG",
    "ERROR",
    "CORRUPT",
    "ACTIVE",
    "EVICTED",
    "PROBATION",
    "MAX_ATTEMPTS",
    "READMIT_AFTER",
    "PROBE_INTERVAL",
    "ChaosSpec",
    "ShardChaos",
    "FailoverPolicy",
    "FailoverStats",
    "Replica",
    "backoff_delay",
]

# Chaos modes.
CRASH, HANG, ERROR, CORRUPT = "crash", "hang", "error", "corrupt"
_CHAOS_MODES = (CRASH, HANG, ERROR, CORRUPT)

# Circuit-breaker membership states.
ACTIVE, EVICTED, PROBATION = "active", "evicted", "probation"

#: Replica attempts per sub-batch.
MAX_ATTEMPTS = 3
#: Backoff before retry ``a`` is ``BACKOFF_BASE * 2**(a - 1)`` seconds,
#: capped at ``BACKOFF_CAP`` and varied uniformly within
#: ``+/-BACKOFF_JITTER`` of itself.
BACKOFF_BASE, BACKOFF_CAP, BACKOFF_JITTER = 0.001, 0.05, 0.5
#: Probation successes that re-admit a replica (one probation failure
#: re-evicts it).
READMIT_AFTER = 2
#: While active replicas exist, every Nth pick goes to a probation
#: replica so it can earn re-admission.
PROBE_INTERVAL = 8


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
    :meth:`~repro.serving.cluster.CaramCluster.inject_chaos`) so the full
    ECC/quarantine machinery runs; this class covers the process-level
    modes.
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
    """The failover loop's time bounds and breaker thresholds.

    Deadlines, attempt timeouts and backoff sleeps apply to executor
    calls only (``ShardedService(offload=True)``, the default); the
    inline loop (``offload=False`` and the cluster's synchronous
    ``search_batch``) retries back to back with none of them.  The
    retry budget, backoff, re-admission count and probe interval are
    module constants (:data:`MAX_ATTEMPTS`, :func:`backoff_delay`,
    :data:`READMIT_AFTER`, :data:`PROBE_INTERVAL`).

    Args:
        deadline: total per-sub-batch budget in seconds (``None`` = no
            deadline).  When it expires the requests fail typed.
        attempt_timeout: per-replica-call budget in seconds; a call that
            outlives it is abandoned (its thread may still run) and the
            loop fails over to another replica.  ``None`` = only the
            overall deadline bounds a call — set this when hangs are in
            the threat model, otherwise one hung replica can eat the
            whole deadline.
        evict_after: consecutive failures that evict a replica.
        probation_after: seconds an evicted replica waits before
            re-entering on probation.
        seed: seeds the backoff jitter stream.
    """

    deadline: Optional[float] = 0.25
    attempt_timeout: Optional[float] = None
    evict_after: int = 3
    probation_after: float = 0.25
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("deadline", "attempt_timeout"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise ConfigurationError(
                    f"{name} must be positive or None: {value}"
                )
        if self.evict_after < 1:
            raise ConfigurationError(
                f"evict_after must be >= 1: {self.evict_after}"
            )
        if self.probation_after < 0:
            raise ConfigurationError(
                f"probation_after must be >= 0: {self.probation_after}"
            )


def backoff_delay(attempt: int, rng) -> float:
    """Jittered exponential delay before retry ``attempt`` (>= 1)."""
    delay = min(BACKOFF_CAP, BACKOFF_BASE * 2 ** (attempt - 1))
    return delay * (1.0 + BACKOFF_JITTER * float(rng.uniform(-1.0, 1.0)))


class FailoverStats:
    """Failover counters of one logical shard."""

    __slots__ = (
        "retries",
        "timeouts",
        "evictions",
        "probations",
        "readmissions",
        "exhausted",
    )

    def __init__(self) -> None:
        for name in self.__slots__:
            setattr(self, name, 0)

    def as_dict(self) -> Dict[str, int]:
        return {name: getattr(self, name) for name in self.__slots__}


class Replica:
    """One physical copy of a logical shard, plus its breaker state."""

    __slots__ = (
        "shard",
        "replica_id",
        "group",
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
        "_inflight_lock",
    )

    def __init__(
        self,
        shard: "CaramShard",
        replica_id: int,
        group: "SliceGroup",
    ) -> None:
        self.shard = shard
        self.replica_id = replica_id
        self.group = group
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
        # Serializes batch calls into this replica's engine: a retry
        # must never re-enter a slice whose abandoned call is still
        # running in another executor thread.
        self._lock = threading.Lock()
        # ``inflight`` changes in executor threads and decides whether
        # the failover loop may call this replica: no lost update.
        self._inflight_lock = threading.Lock()

    @property
    def shard_id(self) -> int:
        return self.shard.shard_id

    def call(
        self, keys: Sequence[KeyInput], mask: int = 0
    ) -> List[SearchResult]:
        """One materialized batch lookup against this replica, through
        its shard's :meth:`~repro.serving.cluster.CaramShard.
        search_batch_columnar`.

        ``inflight`` is bumped *before* the lock so callers queued
        behind a slow/hung replica count toward its load — the signal
        the failover loop reads to leave a replica alone while an
        abandoned call still runs in it.
        """
        with self._inflight_lock:
            self.inflight += 1
        try:
            with self._lock:
                self.calls += 1
                if self.chaos is not None:
                    self.chaos.before_call(self)
                return self.shard.search_batch_columnar(
                    keys, mask, self
                ).results()
        finally:
            with self._inflight_lock:
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
