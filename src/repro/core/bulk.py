"""Vectorized bulk-build pipeline behind ``SliceGroup.bulk_load`` (which a
``CARAMSlice``, a one-array group, inherits).

Sequential construction replays the hardware insert path once per record:
hash, walk the probe sequence, unpack and repack a whole big-int row.  For
the paper-scale databases (Tables 2–3: 186,760 prefixes, 5.39M trigrams)
that is the dominant cost of every behavioral experiment.  This module
computes the *same final state* in four vectorized stages:

1. **hash** every key at once (`IndexGenerator.indices_batch`), expanding
   ternary keys whose don't-care bits touch hash positions into their
   duplicated home set (Section 4.1) in stored order;
2. **place** the whole copy stream with the FCFS linear-probing spill model
   (:func:`~repro.hashing.analysis.simulate_linear_probing`), which is
   property-tested record-for-record against sequential insertion;
3. **assign slots** per bucket by one stable lexsort — arrival order, or
   descending slot priority with arrival tiebreak, which is exactly the
   final content of the scalar sorted-insert splice;
4. **encode** each array's row image with the layout's vectorized codec
   (:meth:`~repro.core.bucket.BucketLayout.encode_rows`, the inverse of the
   mirror's re-decode) and emit the decoded mirror matrices, plus the
   build's ``Record`` s as the first entries of the mirror's Record memo.

The resulting memory image, reach fields, record counts, and
``SearchStats`` are bit-identical to the sequential insert loop — the
equivalence the property tests in ``tests/core/test_bulk_load.py`` pin
down.  The pipeline only supports linear probing (the paper's policy, and
the one the spill model simulates); callers fall back to sequential
insertion for other policies.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    List,
    Optional,
    Tuple,
)

import numpy as np

from repro.errors import CapacityError
from repro.core.bucket import BucketLayout, SlotPriority
from repro.core.config import BucketGeometry
from repro.core.index import IndexGenerator
from repro.core.record import KeyLike, Record, RecordFormat
from repro.hashing.analysis import simulate_linear_probing
from repro.memory.mirror import keys_to_words
from repro.telemetry.profiling import profile

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.telemetry.trace import Tracer


@dataclass(frozen=True)
class BulkTotals:
    """Planner totals of one build: all a group keeps of its plan."""

    record_count: int
    copy_count: int
    #: Copies displaced off their home bucket by the FCFS spill model.
    spilled_copies: int
    #: Largest probe-sequence displacement any copy needed.
    max_displacement: int
    max_reach: int

    @property
    def spill_rate(self) -> float:
        """Fraction of stored copies that landed off their home bucket."""
        copies = self.copy_count
        return self.spilled_copies / copies if copies else 0.0

    def as_dict(self) -> Dict[str, object]:
        """Planner totals as a telemetry provider payload."""
        return {**asdict(self), "spill_rate": self.spill_rate}


@dataclass
class BulkPlan:
    """Complete placement of a record set, before any row is written.

    ``copy_*`` arrays have one entry per *stored copy* (ternary keys with
    don't-care bits over hash positions store several copies); ``records``
    and the word matrices are per input record.
    """

    records: List[Record]
    key_words: np.ndarray                 # (n_records, W) uint64
    mask_words: Optional[np.ndarray]      # (n_records, W) or None (binary)
    data_words: np.ndarray                # (n_records, Wd) uint64
    copy_record: np.ndarray               # (copies,) record index per copy
    copy_bucket: np.ndarray               # (copies,) final bucket per copy
    copy_slot: np.ndarray                 # (copies,) slot within the bucket
    reach: np.ndarray                     # (bucket_count,) aux-field image
    totals: BulkTotals


@dataclass
class BulkImage:
    """A planned build rendered into physical rows + decoded mirror state."""

    plan: BulkPlan
    array_rows: List[List[int]]           # full row image per slice array
    mirror_valid: np.ndarray              # (buckets, slots) bool
    mirror_key_words: np.ndarray          # (buckets, slots, W) uint64
    mirror_mask_words: np.ndarray         # (buckets, slots, W) uint64
    mirror_reach: np.ndarray              # (buckets,) int64
    mirror_data_words: np.ndarray         # (buckets, slots, Wd) uint64
    mirror_records: np.ndarray            # (buckets, slots) object


def plan_bulk_build(
    pairs: Iterable[Tuple[KeyLike, int]],
    record_format: RecordFormat,
    index_generator: IndexGenerator,
    bucket_count: int,
    slots_per_bucket: int,
    reach_limit: int,
    slot_priority: Optional[SlotPriority] = None,
    tracer: Optional["Tracer"] = None,
) -> BulkPlan:
    """Resolve the final placement of a record set without writing rows.

    Raises :class:`~repro.errors.CapacityError` before any mutation when a
    copy would need a displacement beyond ``reach_limit`` — the condition
    under which sequential insertion would have failed mid-build.  With a
    ``tracer``, one ``bulk_plan`` event carrying the placement totals is
    emitted once the plan resolves.
    """
    records: List[Record] = []
    values: List[int] = []
    masks: Optional[List[int]] = [] if record_format.ternary else None
    data: List[int] = []
    for key, datum in pairs:
        record = Record.make(key, datum, record_format)
        records.append(record)
        values.append(record.key.value)
        data.append(record.data)
        if masks is not None:
            masks.append(record.key.mask)
    n = len(records)

    key_words = keys_to_words(values, record_format.key_bits)
    mask_words = (
        keys_to_words(masks, record_format.key_bits)
        if masks is not None
        else None
    )
    data_words = (
        keys_to_words(data, record_format.data_bits)
        if record_format.data_bits
        else np.zeros((n, 0), dtype=np.uint64)
    )
    homes, needs_multi = index_generator.indices_batch(
        key_words, mask_words, values
    )

    if masks is not None and bool(needs_multi.any()):
        # Ternary keys masked over hash positions duplicate into every
        # matching bucket; the copy stream keeps (record order, sorted-home
        # order), matching the sequential duplication loop.
        copy_record_list: List[int] = []
        copy_home_list: List[int] = []
        homes_list = homes.tolist()
        for i, flagged in enumerate(needs_multi.tolist()):
            if flagged:
                for home in index_generator.indices_for_stored(records[i].key):
                    copy_record_list.append(i)
                    copy_home_list.append(home)
            else:
                copy_record_list.append(i)
                copy_home_list.append(homes_list[i])
        copy_record = np.asarray(copy_record_list, dtype=np.int64)
        copy_home = np.asarray(copy_home_list, dtype=np.int64)
    else:
        copy_record = np.arange(n, dtype=np.int64)
        copy_home = homes

    sim = simulate_linear_probing(copy_home, bucket_count, slots_per_bucket)
    if sim.displacements.size and int(sim.displacements.max()) > reach_limit:
        first_over = int(np.argmax(sim.displacements > reach_limit))
        raise CapacityError(
            f"no free slot within reach {reach_limit} of bucket "
            f"{int(copy_home[first_over])} (bulk load of {n} records, "
            f"load factor "
            f"{sim.record_count / (bucket_count * slots_per_bucket):.2f})"
        )

    copies = int(copy_record.size)
    arrival = np.arange(copies, dtype=np.int64)
    if slot_priority is None:
        # FCFS bucket content: copies appear in arrival order.
        order = np.lexsort((arrival, sim.placed_bucket))
    else:
        # Sorted buckets: the scalar insert splices each arrival before the
        # first strictly-lower-priority occupant, so the final content is
        # the stable sort of arrival-ordered occupants by descending
        # priority — exactly this lexsort.
        zeros = np.zeros_like(key_words)  # binary keys: no stored masks
        stored = (key_words, zeros if mask_words is None else mask_words)
        columns = [c[copy_record] for c in (*stored, data_words)]
        priority = np.asarray(slot_priority(*columns), dtype=np.float64)
        order = np.lexsort((arrival, -priority, sim.placed_bucket))
    sorted_bucket = sim.placed_bucket[order]
    # In a sorted array, searchsorted-left of each element is the first
    # index of its run — position minus that is the slot within the bucket.
    first_of_run = np.searchsorted(sorted_bucket, sorted_bucket, side="left")
    copy_slot = np.empty(copies, dtype=np.int64)
    copy_slot[order] = arrival - first_of_run

    spilled = int((sim.displacements > 0).sum())
    max_displacement = (
        int(sim.displacements.max()) if sim.displacements.size else 0
    )
    plan = BulkPlan(
        records=records,
        key_words=key_words,
        mask_words=mask_words,
        data_words=data_words,
        copy_record=copy_record,
        copy_bucket=sim.placed_bucket,
        copy_slot=copy_slot,
        reach=sim.reach,
        totals=BulkTotals(
            record_count=n,
            copy_count=copies,
            spilled_copies=spilled,
            max_displacement=max_displacement,
            max_reach=int(sim.reach.max()) if sim.reach.size else 0,
        ),
    )
    if tracer is not None:
        tracer.emit(
            "bulk_plan",
            records=n,
            copies=copies,
            spilled=spilled,
            max_displacement=max_displacement,
        )
    return plan


def build_bulk_image(
    pairs: Iterable[Tuple[KeyLike, int]],
    *,
    layout: BucketLayout,
    geometry: BucketGeometry,
    index_generator: IndexGenerator,
    reach_limit: int,
    slot_priority: Optional[SlotPriority] = None,
    tracer: Optional["Tracer"] = None,
) -> BulkImage:
    """Plan and encode a whole database build in one vectorized pass.

    Args:
        layout: one slice row's bit layout (and the record format).
        geometry: where each logical bucket lives; only rows that
            :meth:`~repro.core.config.BucketGeometry.holds_reach` get the
            reach field, as in the group's bucket writes.
        tracer: optional structured-event tracer (the ``bulk_plan`` event).
    """
    record_format = layout.record_format
    bucket_count = geometry.bucket_count
    slots_per_bucket = geometry.slots_per_bucket
    with profile("bulk.plan"):
        plan = plan_bulk_build(
            pairs,
            record_format,
            index_generator,
            bucket_count,
            slots_per_bucket,
            reach_limit,
            slot_priority,
            tracer,
        )
    with profile("bulk.encode"):
        copy_keys = plan.key_words[plan.copy_record]
        copy_masks = (
            None if plan.mask_words is None
            else plan.mask_words[plan.copy_record]
        )
        copy_data = plan.data_words[plan.copy_record]
        array_id, phys_row, phys_slot = geometry.place(
            plan.copy_bucket, plan.copy_slot
        )
        all_rows = np.arange(geometry.rows)
        array_rows: List[List[int]] = []
        for slice_id in range(geometry.slices):
            selected = array_id == slice_id
            array_rows.append(
                layout.encode_rows(
                    geometry.rows,
                    plan.reach[geometry.bucket_of(slice_id, all_rows)]
                    if geometry.holds_reach(slice_id)
                    else None,
                    phys_row[selected],
                    phys_slot[selected],
                    copy_keys[selected],
                    None if copy_masks is None else copy_masks[selected],
                    copy_data[selected],
                )
            )

        shape = (bucket_count, slots_per_bucket)
        b, s = plan.copy_bucket, plan.copy_slot
        valid = np.zeros(shape, dtype=bool)
        valid[b, s] = True
        key_words = np.zeros(shape + copy_keys.shape[1:], dtype=np.uint64)
        key_words[b, s] = copy_keys
        mask_words = np.zeros_like(key_words)
        if copy_masks is not None:
            mask_words[b, s] = copy_masks
        data_grid = np.zeros(shape + copy_data.shape[1:], dtype=np.uint64)
        data_grid[b, s] = copy_data
        record_column = np.empty(len(plan.records), dtype=object)
        record_column[:] = plan.records
        records_grid = np.empty(shape, dtype=object)
        records_grid[b, s] = record_column[plan.copy_record]

    return BulkImage(
        plan=plan,
        array_rows=array_rows,
        mirror_valid=valid,
        mirror_key_words=key_words,
        mirror_mask_words=mask_words,
        mirror_reach=plan.reach.astype(np.int64, copy=True),
        mirror_data_words=data_grid,
        mirror_records=records_grid,
    )


__all__ = [
    "BulkTotals",
    "BulkPlan",
    "BulkImage",
    "plan_bulk_build",
    "build_bulk_image",
]
