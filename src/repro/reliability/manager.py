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
* **quarantine = row sparing** — the failing physical row is replaced by a
  pristine spare (its hard faults retire with it) and rewritten as an empty
  bucket that **keeps its reach field**, so extended searches to records
  spilled *past* it still terminate correctly.  The bucket's former records
  are recovered from the decoded mirror's last-good copy and moved to a
  bounded **victim store**, searched in parallel with every lookup exactly
  like the paper's overflow TCAM (Section 4.3) — a victim hit costs no
  extra AMAL access;
* **scrubbing** — a background pass that rewrites correctable rows before
  errors accumulate, quarantines rows whose correctable-error count
  exceeds the policy threshold, and applies the write-read-back test that
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
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

import numpy as np

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
)
from repro.reliability.faults import FaultConfig, FaultInjector
from repro.reliability.guard import RowGuard

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.bucket import BucketLayout
    from repro.core.match import MatchProcessor
    from repro.core.record import Record
    from repro.memory.array import MemoryArray
    from repro.memory.mirror import DecodedMirror


@dataclass(frozen=True)
class ReliabilityPolicy:
    """Knobs of the graceful-degradation layer.

    Attributes:
        ecc: protect rows with SECDED checkwords (off = chaos mode: faults
            are injected but nothing detects them).
        correct_writeback: repair corrected rows in place on read.
        quarantine_threshold: correctable errors one row may accumulate
            before scrub spares it.
        scrub_interval: row accesses between automatic scrub passes
            (0 = scrub only when :meth:`ReliabilityManager.scrub` is
            called).
        victim_capacity: record capacity of the victim store.
        max_retries: lookup retries after detected corruption before the
            error is surfaced.
        restore_attempts: in-place restores (rewrite from the last-good
            decode) a bucket may consume before a detected corruption
            escalates straight to quarantine.  Transient multi-bit
            errors are healed by a rewrite; only buckets that keep
            failing — or fail the post-restore read-back — are spared.
            0 restores the quarantine-on-first-detect behavior.
    """

    ecc: bool = True
    correct_writeback: bool = True
    quarantine_threshold: int = 3
    scrub_interval: int = 0
    victim_capacity: int = 256
    max_retries: int = 4
    restore_attempts: int = 8

    def __post_init__(self) -> None:
        if self.quarantine_threshold < 1:
            raise ConfigurationError(
                f"quarantine_threshold must be >= 1: "
                f"{self.quarantine_threshold}"
            )
        if self.scrub_interval < 0 or self.victim_capacity < 0:
            raise ConfigurationError(
                "scrub_interval and victim_capacity must be non-negative"
            )
        if self.max_retries < 0:
            raise ConfigurationError(
                f"max_retries must be non-negative: {self.max_retries}"
            )
        if self.restore_attempts < 0:
            raise ConfigurationError(
                f"restore_attempts must be non-negative: "
                f"{self.restore_attempts}"
            )


class ReliabilityManager:
    """Reliability orchestration for one slice group (or lone slice).

    Built through :meth:`for_group`; the logic is parameterized only by
    the bucket <-> (array, row) mapping.
    """

    def __init__(
        self,
        owner,
        arrays: Sequence["MemoryArray"],
        layout: "BucketLayout",
        matcher: "MatchProcessor",
        slot_priority: Optional[Callable[["Record"], float]],
        policy: ReliabilityPolicy,
        faults: Optional[FaultConfig],
        horizontal: bool,
    ) -> None:
        self.owner = owner
        self.policy = policy
        self.fault_config = faults
        self._arrays = list(arrays)
        self._layout = layout
        self._matcher = matcher
        self._slot_priority = slot_priority
        self._horizontal = horizontal
        self._rows = self._arrays[0].rows
        self._total_rows = self._rows * len(self._arrays)
        self.injectors: List[Optional[FaultInjector]] = []
        self.guards: List[RowGuard] = []
        for index, array in enumerate(self._arrays):
            injector = None
            if faults is not None and faults.any_faults:
                injector = FaultInjector(
                    faults, array.rows, array.row_bits, salt=index
                )
            self.injectors.append(injector)
            guard = RowGuard(
                array,
                array_index=index,
                injector=injector,
                ecc=policy.ecc,
                correct_writeback=policy.correct_writeback,
            )
            guard.search_stats = owner.stats
            self.guards.append(guard)
        self.victims: List["Record"] = []
        self.quarantined_buckets: Set[int] = set()
        self.unrecoverable_rows = 0
        #: In-place restores consumed per bucket since it last scrubbed
        #: clean (the quarantine-escalation input).
        self.restore_counts: Dict[int, int] = {}
        self.restores = 0
        self._since_scrub = 0

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def for_group(
        cls,
        group,
        policy: ReliabilityPolicy,
        faults: Optional[FaultConfig] = None,
    ) -> "ReliabilityManager":
        from repro.core.config import Arrangement

        return cls(
            owner=group,
            arrays=group._arrays,
            layout=group._layout,
            matcher=group._matcher,
            slot_priority=group._slot_priority,
            policy=policy,
            faults=faults,
            horizontal=group._arrangement is Arrangement.HORIZONTAL,
        )

    def detach(self) -> None:
        """Remove the guards (the arrays return to unprotected reads)."""
        for array in self._arrays:
            array.guard = None

    # ------------------------------------------------------------------
    # Bucket <-> physical mapping
    # ------------------------------------------------------------------

    def bucket_of(self, array_index: int, row: int) -> int:
        """Logical bucket containing one physical row."""
        if self._horizontal:
            return row
        return array_index * self._rows + row

    def rows_of(self, bucket: int) -> List[Tuple[int, int]]:
        """Physical ``(array_index, row)`` pairs composing one bucket."""
        if self._horizontal:
            return [(i, bucket) for i in range(len(self._arrays))]
        return [(bucket // self._rows, bucket % self._rows)]

    # ------------------------------------------------------------------
    # Quarantine (row sparing + victim remap)
    # ------------------------------------------------------------------

    def _harvest_bucket(self, bucket: int) -> Tuple[List["Record"], int]:
        """Recover a failing bucket's records and reach.

        The decoded mirror holds the last ECC-verified copy of every row
        (fault persistence marks rows dirty *without* overwriting the
        mirror's decode), so it is the recovery source of truth.  Without a
        mirror, each constituent row is recovered through the ECC check
        directly; a row that fails even that is **counted data loss** —
        detected and reported, never silent.
        """
        mirror: Optional["DecodedMirror"] = getattr(self.owner, "_mirror", None)
        if mirror is not None:
            valid = mirror.valid[bucket]
            records = [
                mirror.records[bucket, slot]
                for slot in np.flatnonzero(valid).tolist()
            ]
            return records, int(mirror.reach[bucket])
        records = []
        reach = 0
        for i, (array_index, row) in enumerate(self.rows_of(bucket)):
            guard = self.guards[array_index]
            value = self._arrays[array_index]._data[row]
            status, corrected, _ = check_row(
                value, guard.checkwords[row], self._arrays[array_index].row_bits
            )
            if status not in (ECC_CLEAN, ECC_CORRECTED):
                self.unrecoverable_rows += 1
                continue
            if i == 0:
                reach = self._layout.read_aux(corrected)
            for slot_valid, record in self._layout.read_all(corrected):
                if slot_valid:
                    records.append(record)
        return records, reach

    def quarantine_bucket(self, bucket: int) -> int:
        """Spare a bucket: move its records to the victim store, rewrite
        it empty (reach preserved), retire its hard faults.

        Returns the number of records remapped.
        """
        records, reach = self._harvest_bucket(bucket)
        if len(self.victims) + len(records) > self.policy.victim_capacity:
            raise ReliabilityError(
                f"victim store full: {len(self.victims)} + {len(records)} "
                f"records exceed capacity {self.policy.victim_capacity}"
            )
        for array_index, row in self.rows_of(bucket):
            self.guards[array_index].quarantine(row)
        # Rewrite the spared bucket: no records, but the reach field is
        # kept — records previously spilled *from* this home must remain
        # reachable by extended searches.
        for i, (array_index, row) in enumerate(self.rows_of(bucket)):
            self._arrays[array_index].write_row(
                row, self._layout.pack([], reach if i == 0 else 0)
            )
        self.victims.extend(records)
        self.quarantined_buckets.add(bucket)
        self.owner._record_count -= len(records)
        # Reflect the spared bucket in the mirror immediately, so a repeat
        # failure before the next sync cannot double-harvest the records.
        mirror: Optional["DecodedMirror"] = getattr(self.owner, "_mirror", None)
        if mirror is not None:
            mirror.valid[bucket, :] = False
            mirror.records[bucket, :] = None
            mirror.key_words[bucket, :, :] = 0
            mirror.mask_words[bucket, :, :] = 0
            if mirror.data_words.size:
                mirror.data_words[bucket, :, :] = 0
            mirror.reach[bucket] = reach
            # In-place mutation: stamp the change so cached columnar
            # result sets see a new version.
            mirror.version += 1
        self.owner.stats.record_quarantine(len(records))
        return len(records)

    def restore_bucket(self, bucket: int) -> bool:
        """Rewrite a bucket in place from its last-good decode.

        Transient multi-bit errors persist in the cells but not in the
        mirror's retained decode (or the per-row ECC recovery), so a
        rewrite heals them without sacrificing the row.  After the
        rewrite every constituent row is read back; a row that *still*
        fails (a dead row's overlay reappears immediately) is a hard
        fault and the restore reports failure — the caller quarantines.
        """
        records, reach = self._harvest_bucket(bucket)
        if bucket in self.quarantined_buckets:
            # A spared bucket's content lives in the victim store; the
            # rows themselves are kept empty.
            records = []
        per_row = self._layout.slots_per_bucket
        for i, (array_index, row) in enumerate(self.rows_of(bucket)):
            chunk = records[i * per_row : (i + 1) * per_row]
            self._arrays[array_index].write_row(
                row, self._layout.pack(chunk, reach if i == 0 else 0)
            )
        self.restores += 1
        for array_index, row in self.rows_of(bucket):
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
        array_index = error.array_index or 0
        bucket = self.bucket_of(array_index, error.row)
        attempts = self.restore_counts.get(bucket, 0)
        if attempts >= self.policy.restore_attempts:
            self.quarantine_bucket(bucket)
            return
        self.restore_counts[bucket] = attempts + 1
        if not self.restore_bucket(bucket):
            self.quarantine_bucket(bucket)

    # ------------------------------------------------------------------
    # Guarded lookup paths
    # ------------------------------------------------------------------

    def guarded_search(self, key, search_mask: int, search_fn):
        """Run one scalar lookup with retry-on-detect + victim overlay."""
        self._tick(1)
        retries = 0
        while True:
            try:
                result = search_fn(key, search_mask)
                break
            except CorruptionError as exc:
                self.handle_corruption(exc)
                retries += 1
                self.owner.stats.record_lookup_retry()
                if retries > self.policy.max_retries:
                    raise ReliabilityError(
                        f"lookup retry budget ({self.policy.max_retries}) "
                        f"exhausted"
                    ) from exc
        return self.overlay_result(result, key, search_mask)

    def synced_mirror(self, provider):
        """Sync the mirror, quarantining any row whose decode detects an
        uncorrectable error (the batch-path retry loop)."""
        budget = self._total_rows + self.policy.max_retries + 1
        for _ in range(budget):
            try:
                return provider()
            except CorruptionError as exc:
                self.handle_corruption(exc)
        raise ReliabilityError(
            f"mirror decode failed to converge within {budget} repairs"
        )

    # ------------------------------------------------------------------
    # Victim overlay (the parallel overflow search of Section 4.3)
    # ------------------------------------------------------------------

    def _best_victim(self, value: int, mask: int):
        best = None
        best_priority = None
        for record in self.victims:
            if not self._matcher.match_slot(True, record, value, mask):
                continue
            if self._slot_priority is None:
                return record
            priority = self._slot_priority(record)
            if best_priority is None or priority > best_priority:
                best, best_priority = record, priority
        return best

    def overlay_result(self, result, key, search_mask: int):
        """Merge the victim store into one lookup result.

        The victim store is probed in parallel with the home bucket, so a
        victim hit costs no extra AMAL access.  With a slot-priority
        function (LPM), the higher-priority record wins; otherwise a main
        hit stands.
        """
        if not self.victims:
            return result
        from repro.core.key import TernaryKey
        from repro.core.results import SearchResult

        if isinstance(key, TernaryKey):
            value = key.value
            mask = search_mask | key.mask
        else:
            value = int(key)
            mask = search_mask
        victim = self._best_victim(value, mask)
        if victim is None:
            return result
        if result.hit:
            if self._slot_priority is None:
                return result
            if self._slot_priority(result.record) >= self._slot_priority(victim):
                return result
        self.owner.stats.record_victim_hit()
        return SearchResult(
            hit=True,
            record=victim,
            row=None,
            slot=None,
            bucket_accesses=result.bucket_accesses,
            multiple_matches=result.multiple_matches,
        )

    def overlay_results(self, results: List, keys: Sequence, search_mask: int):
        """Batch counterpart of :meth:`overlay_result` (in place)."""
        if not self.victims:
            return results
        for i, result in enumerate(results):
            results[i] = self.overlay_result(result, keys[i], search_mask)
        return results

    def overlay_result_set(self, result_set, keys: Sequence, search_mask: int):
        """Columnar counterpart of :meth:`overlay_results`.

        With an empty victim store — the common case — the result set
        passes through untouched (no per-key work at all).  Otherwise each
        key's materialized result is merged against the victim store and,
        where the victim wins, written back as a per-key override; the
        ``faults`` column counts the overlaid keys.
        """
        if not self.victims:
            return result_set
        for i in range(len(result_set)):
            original = result_set.result_at(i)
            merged = self.overlay_result(original, keys[i], search_mask)
            if merged is not original:
                result_set.set_override(i, merged)
                result_set.faults[i] += 1
        return result_set

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
        self._tick(int(ids.size))
        if self.fault_config is None or not self.fault_config.bit_flip_rate:
            return
        for array_index, injector in enumerate(self.injectors):
            if injector is None:
                continue
            if self._horizontal:
                rows = ids
            else:
                rows = ids[ids // self._rows == array_index] % self._rows
            if not rows.size:
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

    def _tick(self, accesses: int) -> None:
        interval = self.policy.scrub_interval
        if not interval:
            return
        self._since_scrub += accesses
        if self._since_scrub >= interval:
            self._since_scrub = 0
            self.scrub()

    def scrub(self) -> Dict[str, int]:
        """One background pass over every row of every array.

        Correctable rows are rewritten in place; rows that fail the check
        outright (or exceed the correctable-error quarantine threshold,
        or fail the write-read-back dead-row test) are quarantined.
        Never raises on corruption — scrub *is* the repair path.
        """
        corrected = 0
        quarantined = 0
        threshold = self.policy.quarantine_threshold
        for array_index, guard in enumerate(self.guards):
            guard.stats.scrub_passes += 1
            for row in range(self._rows):
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
                    and guard.corrected_counts.get(row, 0) > threshold
                ):
                    if status not in (ECC_CLEAN, ECC_CORRECTED):
                        self.owner.stats.record_corruption_detected()
                    self.quarantine_bucket(self.bucket_of(array_index, row))
                    quarantined += 1
                else:
                    # A held repair certifies the row healthy again: its
                    # bucket earns a fresh restore budget and its
                    # correctable-error count restarts.
                    self.restore_counts.pop(
                        self.bucket_of(array_index, row), None
                    )
                    if not persistent:
                        guard.corrected_counts.pop(row, None)
        return {"corrected": corrected, "quarantined": quarantined}

    # ------------------------------------------------------------------
    # Maintenance / telemetry
    # ------------------------------------------------------------------

    def reset(self) -> None:
        """Drop degradation state (victims, quarantine bookkeeping) after
        the owner cleared its database.  Guards stay installed."""
        self.victims = []
        self.quarantined_buckets.clear()
        self.restore_counts.clear()
        self._since_scrub = 0

    def drain_victims(self) -> List["Record"]:
        """Hand back (and clear) the victim store — rebuild's re-insert
        source, so quarantined records flow back into the main arrays."""
        drained = self.victims
        self.victims = []
        return drained

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


__all__ = ["ReliabilityManager", "ReliabilityPolicy"]
