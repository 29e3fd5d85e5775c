"""Bucket-store reliability policy: quarantine, victims, retries.

The :class:`ReliabilityManager` sits between a
:class:`~repro.core.subsystem.SliceGroup` (a
:class:`~repro.core.slice.CARAMSlice` is a group of one) and its guarded
memory arrays, and implements graceful degradation on top of the guard's
detect-or-correct primitive:

* **retry-on-detect** — a lookup that trips a
  :class:`~repro.errors.CorruptionError` quarantines the failing bucket and
  retries; the caller sees a correct answer or a *surfaced* error, never a
  silently wrong one;
* **restore = write-back** — a detected bucket gets each row's last-good
  value back bit for bit (the decoded mirror's, else the ECC-corrected);
* **quarantine = row sparing** — the failing physical row is replaced by a
  pristine spare (its hard faults retire with it) and rewritten as an empty
  bucket that **keeps its reach field**, so extended searches to records
  spilled *past* it still terminate correctly.  The bucket's former records
  are decoded from the same last-good rows and moved to a
  bounded **victim store**, which the group searches in parallel with
  every lookup through the same overlay as its overflow area (Section
  4.3) — a victim hit costs no extra AMAL access;
* **scrubbing** — a background pass that rewrites correctable rows before
  errors accumulate, quarantines rows whose correctable-error count
  exceeds the quarantine threshold, and applies the write-read-back test that
  flushes out dead rows pure batch workloads would never touch;
* **fault fan-out for batch lookups** — the mirror answers batches from
  its last ECC-verified decode, so per-access soft errors are injected
  into the *physical* rows (and caught at the next verified re-decode)
  rather than silently corrupting in-flight results.

Accounting note: a victim hit is recorded as a CA-RAM miss in
``SearchStats`` (the main array genuinely missed) plus one
``victim_hits`` counter tick — identically on the scalar and batch paths,
so differential parity tests keep passing under quarantine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Set

import numpy as np

from repro.memory.mirror import records_from_words
from repro.errors import (
    ConfigurationError,
    CorruptionError,
    ReliabilityError,
)
from repro.reliability.ecc import (
    ECC_CLEAN,
    ECC_CORRECTED,
    ECC_DETECTED,
    check_row,
    encode_row,
)
from repro.reliability.faults import FaultConfig, FaultInjector
from repro.reliability.guard import RowGuard

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.record import Record
    from repro.core.subsystem import SliceGroup


#: Correctable errors one row may accumulate (with its repair not
#: holding) before scrub spares it.
QUARANTINE_THRESHOLD = 3

#: In-place restores (rewrite from the last-good decode) a bucket may
#: consume before a detected corruption escalates straight to quarantine.
#: Transient multi-bit errors are healed by a rewrite; only buckets that
#: keep failing, or fail the post-restore read-back, are spared.
RESTORE_ATTEMPTS = 8


@dataclass(frozen=True)
class ReliabilityPolicy:
    """Knobs of the graceful-degradation layer.

    Attributes:
        ecc: protect rows with SECDED checkwords (off = chaos mode: faults
            are injected but nothing detects them).
        victim_capacity: record capacity of the victim store.
        max_retries: lookup retries after detected corruption before the
            error is surfaced.

    The rest is fixed: corrected rows are written back on read, scrub
    runs only when :meth:`ReliabilityManager.scrub` is called, and the
    quarantine threshold and restore budget are :data:`QUARANTINE_THRESHOLD`
    and :data:`RESTORE_ATTEMPTS`.
    """

    ecc: bool = True
    victim_capacity: int = 256
    max_retries: int = 4

    def __post_init__(self) -> None:
        if self.victim_capacity < 0:
            raise ConfigurationError(
                f"victim_capacity must be non-negative: "
                f"{self.victim_capacity}"
            )
        if self.max_retries < 0:
            raise ConfigurationError(
                f"max_retries must be non-negative: {self.max_retries}"
            )


class ReliabilityManager:
    """Reliability orchestration for one slice group (or lone slice).

    Reads the group's arrays, layout and
    :class:`~repro.core.config.BucketGeometry`, and rewrites buckets
    through the group's one bucket writer.
    """

    def __init__(
        self,
        group: "SliceGroup",
        policy: ReliabilityPolicy,
        faults: Optional[FaultConfig],
    ) -> None:
        self.group = group
        self.policy = policy
        self.fault_config = faults
        self.injectors: List[Optional[FaultInjector]] = []
        self.guards: List[RowGuard] = []
        for index, array in enumerate(group._arrays):
            injector = None
            if faults is not None and faults.any_faults:
                injector = FaultInjector(
                    faults, array.rows, array.row_bits, salt=index
                )
            self.injectors.append(injector)
            guard = RowGuard(
                array, array_index=index, injector=injector, ecc=policy.ecc
            )
            guard.search_stats = group.stats
            self.guards.append(guard)
        self.victims: List["Record"] = []
        self.quarantined_buckets: Set[int] = set()
        self.unrecoverable_rows = 0
        #: In-place restores consumed per bucket since it last scrubbed
        #: clean (the quarantine-escalation input).
        self.restore_counts: Dict[int, int] = {}
        self.restores = 0

    def detach(self) -> None:
        """Remove the guards (the arrays return to unprotected reads)."""
        for array in self.group._arrays:
            array.guard = None

    # ------------------------------------------------------------------
    # Quarantine (row sparing + victim remap)
    # ------------------------------------------------------------------

    def _harvest_bucket(self, bucket: int) -> List[int]:
        """A failing bucket's last-good row values, in ``rows_of`` order.

        A row's value is the decoded mirror's when its decode is current:
        the row was not written since the last sync, or the decode
        re-encodes to the checkword of the row's last write (a fault marks
        a row dirty without changing what it should hold, so the mirror
        keeps its last-good copy).  Any other row is recovered through its
        ECC check; a row that fails even that is **counted data loss** and
        raises :class:`~repro.errors.CorruptionError` — a restore never
        silently reverts a write the mirror has not seen.
        """
        group = self.group
        row_bits = group._layout.row_bits
        mirror = group._mirror
        values: List[int] = []
        for array_index, row in group.geometry.rows_of(bucket):
            checkword = self.guards[array_index].checkwords[row]
            if mirror is not None:
                value = mirror.row_value(array_index, row)
                if not mirror.row_dirty(array_index, row) or (
                    checkword == encode_row(value, row_bits)
                ):
                    values.append(value)
                    continue
            status, corrected, _ = check_row(
                group._arrays[array_index]._data[row], checkword, row_bits
            )
            if status not in (ECC_CLEAN, ECC_CORRECTED):
                self.unrecoverable_rows += 1
                raise CorruptionError(
                    f"row {row} (array {array_index}) is uncorrectable and "
                    f"has no current decode to restore from",
                    array_index=array_index,
                    row=row,
                )
            values.append(corrected)
        return values

    def quarantine_bucket(self, bucket: int) -> int:
        """Spare a bucket: move its records to the victim store, rewrite
        it empty (reach preserved), retire its hard faults.

        Returns the number of records remapped.
        """
        group = self.group
        reach, valid, *words = group._bucket_words(self._harvest_bucket(bucket))
        key_bits = group._matcher.key_bits
        records = records_from_words(*(w[valid] for w in words), key_bits)
        if len(self.victims) + len(records) > self.policy.victim_capacity:
            raise ReliabilityError(
                f"victim store full: {len(self.victims)} + {len(records)} "
                f"records exceed capacity {self.policy.victim_capacity}"
            )
        rows = group.geometry.rows_of(bucket)
        for array_index, row in rows:
            self.guards[array_index].quarantine(row)
        # Rewrite the spared bucket: no records, but the reach field is
        # kept — records previously spilled *from* this home must remain
        # reachable by extended searches.
        empty = [group._layout.write_aux(0, reach)] + [0] * (len(rows) - 1)
        group._write_bucket(bucket, empty)
        self.victims.extend(records)
        self.quarantined_buckets.add(bucket)
        group._record_count -= len(records)
        # Reflect the spared bucket in the mirror immediately, so a repeat
        # failure before the next sync cannot double-harvest the records.
        if group._mirror is not None:
            group._mirror.clear_bucket(bucket, reach)
        group.stats.record_quarantine(len(records))
        return len(records)

    def restore_bucket(self, bucket: int) -> bool:
        """Write a bucket's last-good row values back, unchanged.

        A transient multi-bit error is healed without sacrificing the row,
        and the bucket (a spared one too) comes back bit-identical to its
        last-good image, holes included.  Every row is then read back; one
        that *still* fails (a dead row) is a hard fault and the restore
        reports failure — the caller quarantines.
        """
        self.group._write_bucket(bucket, self._harvest_bucket(bucket))
        self.restores += 1
        for array_index, row in self.group.geometry.rows_of(bucket):
            if self.guards[array_index].scrub_row(row) == ECC_DETECTED:
                return False
        return True

    def handle_corruption(self, error: CorruptionError) -> None:
        """Repair the bucket a detected corruption points at.

        Restore-first: the bucket is rewritten from its last-good decode
        and kept in service.  Quarantine (row sparing + victim remap) is
        the escalation for buckets that fail the post-restore read-back
        or keep re-detecting past the policy's restore budget.
        """
        if error.row is None:
            raise error
        bucket = self.group.geometry.bucket_of(
            error.array_index or 0, error.row
        )
        attempts = self.restore_counts.get(bucket, 0)
        if attempts >= RESTORE_ATTEMPTS:
            self.quarantine_bucket(bucket)
            return
        self.restore_counts[bucket] = attempts + 1
        if not self.restore_bucket(bucket):
            self.quarantine_bucket(bucket)

    # ------------------------------------------------------------------
    # Guarded lookup paths
    # ------------------------------------------------------------------

    def guarded_search(self, key, search_mask: int, search_fn):
        """Run one scalar lookup with retry-on-detect."""
        retries = 0
        while True:
            try:
                result = search_fn(key, search_mask)
                break
            except CorruptionError as exc:
                self.handle_corruption(exc)
                retries += 1
                self.group.stats.record_lookup_retry()
                if retries > self.policy.max_retries:
                    raise ReliabilityError(
                        f"lookup retry budget ({self.policy.max_retries}) "
                        f"exhausted"
                    ) from exc
        return result

    def guarded_sync(self, mirror) -> int:
        """Sync the mirror, repairing the bucket of any row whose decode
        detects an uncorrectable error (the mirror readers' retry loop)."""
        geometry = self.group.geometry
        budget = geometry.rows * geometry.slices + self.policy.max_retries + 1
        for _ in range(budget):
            try:
                return mirror.sync()
            except CorruptionError as exc:
                self.handle_corruption(exc)
        raise ReliabilityError(
            f"mirror decode failed to converge within {budget} repairs"
        )

    # ------------------------------------------------------------------
    # Victim store (searched by the group's Section 4.3 overlay)
    # ------------------------------------------------------------------

    def best_victim(self, value: int, mask: int) -> Optional["Record"]:
        """The victim matching ``value`` under don't-care ``mask``: the
        first one, or the highest-priority one with a slot priority."""
        matcher = self.group._matcher
        matches = [
            record
            for record in self.victims
            if matcher.match_slot(True, record, value, mask)
        ]
        if len(matches) > 1 and self.group._slot_priority is not None:
            return matches[int(np.argmax(self.group._priorities(matches)))]
        return matches[0] if matches else None

    # ------------------------------------------------------------------
    # Batch-access fault fan-out
    # ------------------------------------------------------------------

    def on_batch_access(self, buckets) -> None:
        """Inject per-access soft errors for a batch of mirror-served
        bucket fetches.

        The batch itself is answered from the mirror's last verified
        decode; the sampled flips land in the physical rows and are
        corrected (or quarantined) at the next verified re-decode.
        """
        ids = np.asarray(buckets, dtype=np.int64)
        if self.fault_config is None or not self.fault_config.bit_flip_rate:
            return
        for array_index, (injector, rows) in enumerate(
            zip(self.injectors, self.group.geometry.rows_by_slice(ids))
        ):
            if injector is None or not rows.size:
                continue
            counts = injector.flip_counts_for_reads(int(rows.size))
            guard = self.guards[array_index]
            for position in np.flatnonzero(counts).tolist():
                guard.inject_access_fault(
                    int(rows[position]),
                    injector.flip_mask(int(counts[position])),
                )

    # ------------------------------------------------------------------
    # Scrubbing
    # ------------------------------------------------------------------

    def scrub(self) -> Dict[str, int]:
        """One background pass over every row of every array.

        Correctable rows are rewritten in place; rows that fail the check
        outright (or exceed the correctable-error quarantine threshold,
        or fail the write-read-back dead-row test) are quarantined.
        Never raises on corruption — scrub *is* the repair path; a bucket
        it cannot recover is left in place, counted in
        ``unrecoverable_rows``, for lookups to surface.
        """
        corrected = 0
        quarantined = 0
        geometry = self.group.geometry
        for array_index, guard in enumerate(self.guards):
            guard.stats.scrub_passes += 1
            for row in range(geometry.rows):
                status = guard.scrub_row(row)
                if status == ECC_CORRECTED:
                    corrected += 1
                # Write-read-back discrimination: scrub's repair heals a
                # transient error for good, while a stuck cell reasserts
                # itself through the rewrite.  Only rows whose repair did
                # NOT hold count toward the quarantine threshold; rows
                # that fail the check outright are quarantined at once.
                persistent = (
                    status == ECC_CORRECTED
                    and guard.recheck(row) != ECC_CLEAN
                )
                if status not in (ECC_CLEAN, ECC_CORRECTED) or (
                    persistent
                    and guard.corrected_counts.get(row, 0)
                    > QUARANTINE_THRESHOLD
                ):
                    if status not in (ECC_CLEAN, ECC_CORRECTED):
                        self.group.stats.record_corruption_detected()
                    try:
                        self.quarantine_bucket(
                            geometry.bucket_of(array_index, row)
                        )
                    except CorruptionError:
                        continue  # data loss, counted in unrecoverable_rows
                    quarantined += 1
                else:
                    # A held repair certifies the row healthy again: its
                    # bucket earns a fresh restore budget and its
                    # correctable-error count restarts.
                    self.restore_counts.pop(
                        geometry.bucket_of(array_index, row), None
                    )
                    if not persistent:
                        guard.corrected_counts.pop(row, None)
        return {"corrected": corrected, "quarantined": quarantined}

    # ------------------------------------------------------------------
    # Maintenance / telemetry
    # ------------------------------------------------------------------

    def reset(self) -> None:
        """Drop degradation state (victims, quarantine bookkeeping) after
        the group cleared its database.  Guards stay installed."""
        self.victims = []
        self.quarantined_buckets.clear()
        self.restore_counts.clear()

    def as_dict(self) -> Dict[str, object]:
        """Structured export (the telemetry provider contract)."""
        guard_totals: Dict[str, int] = {}
        for guard in self.guards:
            for key, value in guard.stats.as_dict().items():
                guard_totals[key] = guard_totals.get(key, 0) + value
        injector_totals: Dict[str, int] = {}
        for injector in self.injectors:
            if injector is None:
                continue
            for key, value in injector.stats.as_dict().items():
                injector_totals[key] = injector_totals.get(key, 0) + value
        return {
            "ecc": self.policy.ecc,
            "victim_records": len(self.victims),
            "victim_capacity": self.policy.victim_capacity,
            "quarantined_buckets": len(self.quarantined_buckets),
            "unrecoverable_rows": self.unrecoverable_rows,
            "restores": self.restores,
            **{f"guard_{k}": v for k, v in guard_totals.items()},
            **{f"fault_{k}": v for k, v in injector_totals.items()},
        }


__all__ = [
    "ReliabilityManager",
    "ReliabilityPolicy",
    "QUARANTINE_THRESHOLD",
    "RESTORE_ATTEMPTS",
]
