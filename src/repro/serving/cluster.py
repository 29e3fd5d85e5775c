"""Shard assembly: N ``CARAMSubsystem`` shards behind one router.

:class:`CaramShard` wraps one :class:`~repro.core.subsystem.CARAMSubsystem`
holding one database group — a full subsystem per shard, so each shard can
carry its own overflow store, ports, engine spec, and telemetry, exactly
like an independent CA-RAM chip in a multi-bank deployment.
:class:`CaramCluster` composes the shards with a
:class:`~repro.serving.router.ShardRouter` and provides:

* **loading** — records partition by :meth:`ShardRouter.shards_for_stored`
  (an LPM prefix spanning several ranges is duplicated into each) and
  bulk-load per shard through the vectorized pipeline;
* a **direct synchronous batch path** (:meth:`search_batch`,
  :meth:`lookup`) — scatter by router, per-shard columnar lookup, gather
  back into request order.  This is simultaneously the serving tier's
  correctness reference (the async coalescer must be bit-identical to it)
  and the cluster half of the load generator's baseline;
* **telemetry** — every shard mounts under ``{prefix}.shard{i}.*`` and the
  cluster aggregate mounts under ``{prefix}.cluster.*``, computed through
  :func:`repro.telemetry.rollup.merge_blocks` so counters sum exactly,
  latency sketches merge bucket-exactly, and derived ratios (AMAL, hit
  rate, spill rate) are recomputed from the merged bases — the existing
  ``repro telemetry serve``/``health`` CLI reads the whole cluster off
  these mounts;
* **lifecycle** — :meth:`close` tears down every shard's batch engine
  (worker pools, shared memory); the cluster is a context manager.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Callable,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.errors import ConfigurationError
from repro.core.config import Arrangement, SliceConfig
from repro.core.index import KeyInput
from repro.core.record import RecordFormat
from repro.core.results import SearchResult
from repro.core.stats import SearchStats
from repro.core.subsystem import CARAMSubsystem, SliceGroup
from repro.hashing.bit_select import BitSelectHash
from repro.serving.router import ConsistentHashRouter, ShardRouter

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.results import BatchResultSet
    from repro.telemetry.metrics import MetricsRegistry

__all__ = ["ShardSpec", "CaramShard", "CaramCluster", "DEFAULT_GROUP"]

#: Group name every shard's subsystem registers its database under.
DEFAULT_GROUP = "db"


@dataclass(frozen=True)
class ShardSpec:
    """Per-shard engine/telemetry configuration.

    One spec can configure the whole cluster, or a per-shard list can mix
    configurations (e.g. a bitplane hot shard next to word-mirror ones).
    """

    engine: str = "word"
    batch_chunk_size: Optional[int] = None
    account_reads: bool = False
    track_latency: bool = False
    latency_error: Optional[float] = None


class CaramShard:
    """One serving shard: a subsystem, its database group, its config."""

    def __init__(
        self,
        shard_id: int,
        subsystem: CARAMSubsystem,
        group_name: str = DEFAULT_GROUP,
    ) -> None:
        self.shard_id = shard_id
        self.subsystem = subsystem
        self.group_name = group_name

    @property
    def group(self) -> SliceGroup:
        return self.subsystem.group(self.group_name)

    @property
    def stats(self) -> SearchStats:
        return self.group.stats

    def search_batch_columnar(
        self, keys: Sequence[KeyInput], search_mask: int = 0
    ) -> "BatchResultSet":
        """This shard's vectorized lookup (overflow store included)."""
        return self.subsystem.search_batch_columnar(
            self.group_name, keys, search_mask
        )

    def search(self, key: KeyInput, search_mask: int = 0) -> SearchResult:
        return self.subsystem.search(self.group_name, key, search_mask)

    def bulk_load(self, records) -> int:
        return self.subsystem.bulk_load(self.group_name, records)

    def close(self) -> None:
        """Tear down this shard's batch engines (pools, shared memory)."""
        self.subsystem.close()


class CaramCluster:
    """N shards + a router = one logical database.

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
        specs: Optional[Sequence[ShardSpec]] = None,
        router: Optional[ShardRouter] = None,
        slot_priority: Optional[Callable] = None,
        key_bits: Optional[int] = None,
        data_bits: Optional[int] = None,
        ternary: bool = False,
    ) -> "CaramCluster":
        """A uniform cluster of single-slice lookup-table shards.

        Args:
            shard_count: number of shards.
            index_bits: per-shard slice index bits (rows = ``2**b``).
            slots: record slots per bucket.
            specs: one :class:`ShardSpec` per shard (or None for
                defaults); a single spec list entry shorter than
                ``shard_count`` is cycled.
            router: placement policy (default: consistent hashing).
            key_bits / data_bits / ternary / slot_priority: record-format
                overrides for non-default workloads (e.g. LPM shards).
        """
        key_bits = cls.KEY_BITS if key_bits is None else key_bits
        data_bits = cls.DATA_BITS if data_bits is None else data_bits
        if router is None:
            router = ConsistentHashRouter(shard_count)
        if specs is None:
            specs = [ShardSpec()]
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
        shards: List[CaramShard] = []
        for shard_id in range(shard_count):
            spec = specs[shard_id % len(specs)]
            group = SliceGroup(
                config=config,
                slice_count=1,
                arrangement=Arrangement.VERTICAL,
                hash_function=BitSelectHash(
                    key_bits,
                    tuple(range(hash_lsb, hash_lsb + index_bits)),
                ),
                slot_priority=slot_priority,
                name=DEFAULT_GROUP,
                account_reads=spec.account_reads,
                batch_chunk_size=spec.batch_chunk_size,
                engine=spec.engine,
            )
            if spec.track_latency:
                group.enable_latency_tracking(spec.latency_error)
            subsystem = CARAMSubsystem()
            subsystem.add_group(group)
            shards.append(CaramShard(shard_id, subsystem))
        return cls(shards, router)

    # ------------------------------------------------------------------
    # Loading
    # ------------------------------------------------------------------

    def load(self, records: Iterable[Tuple[KeyInput, int]]) -> int:
        """Partition and bulk-load a record set; returns stored copies.

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
        """Scalar lookup routed to the owning shard."""
        return self.shards[self.router.shard_for_query(key)].search(
            key, search_mask
        )

    def lookup(self, key: KeyInput, search_mask: int = 0) -> Optional[int]:
        return self.search(key, search_mask).data

    def search_batch(
        self, keys: Sequence[KeyInput], search_mask: int = 0
    ) -> List[SearchResult]:
        """Batch lookup: scatter by router, per-shard columnar lookup,
        gather back into request order.

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
            results = shard.search_batch_columnar(
                shard_keys, search_mask
            ).results()
            for position, result in zip(positions.tolist(), results):
                out[position] = result
        return out  # type: ignore[return-value]

    def total_stats(self) -> SearchStats:
        """Sum of every shard's search stats (exact counter merge)."""
        total = SearchStats()
        for shard in self.shards:
            total.merge(shard.stats)
        return total

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------

    def enable_latency_tracking(
        self, relative_error: Optional[float] = None
    ) -> None:
        for shard in self.shards:
            shard.group.enable_latency_tracking(relative_error)

    def register_telemetry(
        self, registry: "MetricsRegistry", prefix: str = "serving"
    ) -> None:
        """Mount every shard plus the rollup aggregate.

        Shard ``i`` mounts its full group telemetry under
        ``{prefix}.shard{i}.*``; the cluster-wide view mounts under
        ``{prefix}.cluster.search`` / ``.occupancy`` / ``.bulk``, merged
        at snapshot time with the rollup leaf rules (exact counter sums,
        sketch merges, recomputed ratios) so health rules and dashboards
        can address the whole cluster as one database.
        """
        from repro.telemetry.rollup import merge_blocks

        for shard in self.shards:
            shard.group.register_telemetry(
                registry, prefix=f"{prefix}.shard{shard.shard_id}"
            )

        def _merged(block_of) -> Callable[[], dict]:
            def provider() -> dict:
                return merge_blocks(
                    [block_of(shard) for shard in self.shards]
                )

            return provider

        registry.register_provider(
            f"{prefix}.cluster.search",
            _merged(lambda shard: shard.stats.as_dict()),
        )
        registry.register_provider(
            f"{prefix}.cluster.occupancy",
            _merged(
                lambda shard: {
                    "record_count": shard.group.record_count,
                    "capacity_records": shard.group.capacity_records,
                    "load_factor": shard.group.load_factor,
                    "physical_row_fetches": (
                        shard.group.physical_row_fetches
                    ),
                }
            ),
        )
        registry.register_provider(
            f"{prefix}.cluster.bulk",
            _merged(
                lambda shard: (
                    shard.group.last_bulk_plan.as_dict()
                    if shard.group.last_bulk_plan is not None
                    else {}
                )
            ),
        )
        registry.register_provider(
            f"{prefix}.cluster.topology",
            lambda: {
                "shard_count": len(self.shards),
                "router": type(self.router).__name__,
            },
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Close every shard (batch engines, pools, shared memory)."""
        for shard in self.shards:
            shard.close()

    def __enter__(self) -> "CaramCluster":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __len__(self) -> int:
        return len(self.shards)
