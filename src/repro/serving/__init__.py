"""The serving tier: CA-RAM as a sharded, coalescing async service.

One stack serves every deployment; replication is a parameter of it.
Layers (each its own module, composable separately):

* :mod:`repro.serving.router` — keyspace partitioning (consistent-hash
  for point keys, prefix-range for LPM).
* :mod:`repro.serving.replication` — the parts of a shard's failover:
  :class:`Replica` (one physical ``SliceGroup`` copy plus its
  circuit-breaker state), :class:`FailoverPolicy`, and deterministic
  per-replica chaos (:class:`ChaosSpec`).
* :mod:`repro.serving.cluster` — :class:`CaramCluster`: N logical
  shards of R bit-identical replicas (``build(..., replication=R)``,
  R=1 by default) behind one router.  Each :class:`CaramShard` owns its
  breaker and the failover loop every lookup runs through; the cluster
  adds loading, the direct synchronous batch reference path, chaos
  injection, membership, cluster-aggregate telemetry, lifecycle.
* :mod:`repro.serving.service` — :class:`ShardedService`, the asyncio
  front end: request coalescing into columnar batches, admission control
  (:class:`~repro.errors.KeyFormatError` for keys the shards cannot hold,
  :class:`~repro.errors.ServiceOverloadError` load shedding), graceful
  drain.  Every flushed sub-batch goes through its shard's failover
  loop: with ``offload=True`` (default) each replica call runs on the
  loop's executor under the policy's deadline, attempt timeout and
  retry with backoff, and a shard that cannot answer fails typed
  with :class:`~repro.errors.ShardUnavailableError`; with
  ``offload=False`` the loop runs inline, with no deadlines.
* :mod:`repro.serving.loadgen` — closed/open-loop load generation with
  Zipf-skewed traffic and per-request answer verification.
"""

from repro.serving.cluster import CaramCluster, CaramShard
from repro.serving.loadgen import (
    LoadReport,
    RequestStream,
    make_request_stream,
    run_closed_loop,
    run_open_loop,
)
from repro.serving.router import (
    ConsistentHashRouter,
    PrefixRangeRouter,
    ShardRouter,
)
from repro.serving.replication import (
    ChaosSpec,
    FailoverPolicy,
    Replica,
    ShardChaos,
)
from repro.serving.service import CoalescerStats, ShardedService

__all__ = [
    "CaramCluster",
    "CaramShard",
    "ShardRouter",
    "ConsistentHashRouter",
    "PrefixRangeRouter",
    "ShardedService",
    "CoalescerStats",
    "LoadReport",
    "RequestStream",
    "make_request_stream",
    "run_closed_loop",
    "run_open_loop",
    "ChaosSpec",
    "ShardChaos",
    "FailoverPolicy",
    "Replica",
]
