"""Vectorized bulk-build pipeline behind ``SliceGroup.bulk_load`` (which a
``CARAMSlice``, a one-array group, inherits).

Sequential construction replays the hardware insert path once per record:
hash, walk the probe sequence, unpack and repack a whole big-int row.  For
the paper-scale databases (Tables 2–3: 186,760 prefixes, 5.39M trigrams)
that is the dominant cost of every behavioral experiment.  This module
parses the input once into ``(keys, masks, data)`` uint64 word columns
(:func:`bulk_columns`, through the batch lookups' key parser), the one
key form of every later stage, and computes the *same final state* in
four vectorized stages:

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
   mirror's re-decode).  The planned copies' coordinates and words are
   what the decoded mirror installs
   (:meth:`~repro.memory.mirror.DecodedMirror.install`); no stage builds a
   ``Record``.

The resulting memory image, reach fields, record counts, and
``SearchStats`` are bit-identical to the sequential insert loop — the
equivalence the property tests in ``tests/core/test_bulk_load.py`` pin
down.  The pipeline only supports linear probing (the paper's policy, and
the one the spill model simulates); callers fall back to sequential
insertion for other policies.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import CapacityError, KeyFormatError
from repro.core.batch import query_words
from repro.core.bucket import BucketLayout, SlotPriority
from repro.core.config import BucketGeometry
from repro.core.index import IndexGenerator
from repro.core.key import TernaryKey
from repro.core.record import RecordFormat
from repro.hashing.analysis import simulate_linear_probing
from repro.memory.mirror import keys_to_words, words_to_ints
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

    @classmethod
    def merged(cls, plans: Sequence["BulkTotals"]) -> "BulkTotals":
        """Several builds read as one database: counts add and ``max_*``
        take the max, so :attr:`spill_rate` comes from the summed counts."""
        return cls(
            record_count=sum(plan.record_count for plan in plans),
            copy_count=sum(plan.copy_count for plan in plans),
            spilled_copies=sum(plan.spilled_copies for plan in plans),
            max_displacement=max(
                (plan.max_displacement for plan in plans), default=0
            ),
            max_reach=max((plan.max_reach for plan in plans), default=0),
        )


@dataclass
class BulkPlan:
    """Complete placement of a record set, before any row is written.

    Every array has one entry per *stored copy* (ternary keys with
    don't-care bits over hash positions store several copies, in record
    order and sorted-home order).
    """

    copy_keys: np.ndarray                 # (copies, W) uint64
    copy_masks: Optional[np.ndarray]      # (copies, W) or None (binary)
    copy_data: np.ndarray                 # (copies, Wd) uint64
    copy_bucket: np.ndarray               # (copies,) final bucket per copy
    copy_slot: np.ndarray                 # (copies,) slot within the bucket
    reach: np.ndarray                     # (bucket_count,) aux-field image
    totals: BulkTotals


def bulk_columns(
    keys, data, record_format: RecordFormat
) -> Tuple[np.ndarray, Optional[np.ndarray], np.ndarray]:
    """A build's input as ``(keys, masks, data)`` uint64 word columns:
    ``keys`` in any form the batch parser
    (:func:`~repro.core.batch.query_words`) takes, one ``data`` payload
    per key.  ``masks`` is None for a binary format.

    Raises:
        KeyFormatError: on what ``Record.make`` rejects (a negative or
            too-wide key, a ``TernaryKey`` of another width, don't-care
            bits in a binary format, negative or too-wide data, nonzero
            data without a data field), or a data count other than the
            key count.
    """
    key_bits, data_bits = record_format.key_bits, record_format.data_bits
    key_words, mask_words = query_words(keys, 0, key_bits)
    count = key_words.shape[0]
    if mask_words is not None and not record_format.ternary:
        raise KeyFormatError("don't-care bits require a ternary record format")
    if mask_words is None and record_format.ternary:
        mask_words = np.zeros_like(key_words)
    column = np.asarray(data)
    if column.shape != (count,):
        raise KeyFormatError(f"data of shape {column.shape} for {count} keys")
    # NumPy wraps negative ints silently on the uint64 conversion.
    if count and column.dtype.kind in "iO" and column.min() < 0:
        raise KeyFormatError(f"data {column.min()} is negative")
    if not data_bits:
        if np.count_nonzero(column):
            raise KeyFormatError(
                "data must be 0 in a format without a data field"
            )
        return key_words, mask_words, np.zeros((count, 0), dtype=np.uint64)
    try:
        data_words = keys_to_words(column, data_bits)
    except KeyFormatError as exc:
        raise KeyFormatError(f"data does not fit in {data_bits} bits") from exc
    return key_words, mask_words, data_words


def plan_bulk_build(
    key_words: np.ndarray,
    mask_words: Optional[np.ndarray],
    data_words: np.ndarray,
    key_bits: int,
    index_generator: IndexGenerator,
    bucket_count: int,
    slots_per_bucket: int,
    reach_limit: int,
    slot_priority: Optional[SlotPriority] = None,
    tracer: Optional["Tracer"] = None,
) -> BulkPlan:
    """Resolve the final placement of a record set without writing rows.

    Takes the build's word columns as :func:`bulk_columns` returns them.
    Only a key flagged for Section 4.1 multi-home duplication becomes a
    ``TernaryKey`` here, to enumerate its homes.  Raises
    :class:`~repro.errors.CapacityError` before any mutation when a
    copy would need a displacement beyond ``reach_limit`` — the condition
    under which sequential insertion would have failed mid-build.  With a
    ``tracer``, one ``bulk_plan`` event carrying the placement totals is
    emitted once the plan resolves.
    """
    n = key_words.shape[0]
    homes, needs_multi = index_generator.indices_batch(key_words, mask_words)

    keys, masks, data = key_words, mask_words, data_words
    copy_home = homes
    if masks is not None and bool(needs_multi.any()):
        # Ternary keys masked over hash positions duplicate into every
        # matching bucket; the copy stream keeps (record order, sorted-home
        # order), matching the sequential duplication loop.
        flagged = np.flatnonzero(needs_multi)
        stored = zip(
            words_to_ints(keys[flagged]), words_to_ints(masks[flagged])
        )
        expanded = [
            index_generator.indices_for_stored(TernaryKey(v, m, key_bits))
            for v, m in stored
        ]
        counts = np.ones(n, dtype=np.int64)
        counts[flagged] = [len(rows) for rows in expanded]
        copy_record = np.repeat(np.arange(n, dtype=np.int64), counts)
        copy_home = homes[copy_record]
        copy_home[needs_multi[copy_record]] = np.concatenate(expanded)
        keys, masks, data = (c[copy_record] for c in (keys, masks, data))

    sim = simulate_linear_probing(copy_home, bucket_count, slots_per_bucket)
    if sim.displacements.size and int(sim.displacements.max()) > reach_limit:
        first_over = int(np.argmax(sim.displacements > reach_limit))
        raise CapacityError(
            f"no free slot within reach {reach_limit} of bucket "
            f"{int(copy_home[first_over])} (bulk load of {n} records, "
            f"load factor "
            f"{sim.record_count / (bucket_count * slots_per_bucket):.2f})"
        )

    copies = int(copy_home.size)
    arrival = np.arange(copies, dtype=np.int64)
    if slot_priority is None:
        # FCFS bucket content: copies appear in arrival order.
        order = np.lexsort((arrival, sim.placed_bucket))
    else:
        # Sorted buckets: the scalar insert splices each arrival before the
        # first strictly-lower-priority occupant, so the final content is
        # the stable sort of arrival-ordered occupants by descending
        # priority — exactly this lexsort.
        stored = np.zeros_like(keys) if masks is None else masks
        priority = np.asarray(
            slot_priority(keys, stored, data), dtype=np.float64
        )
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
        copy_keys=keys,
        copy_masks=masks,
        copy_data=data,
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
    key_words: np.ndarray,
    mask_words: Optional[np.ndarray],
    data_words: np.ndarray,
    *,
    layout: BucketLayout,
    geometry: BucketGeometry,
    index_generator: IndexGenerator,
    reach_limit: int,
    slot_priority: Optional[SlotPriority] = None,
    tracer: Optional["Tracer"] = None,
) -> Tuple[BulkPlan, List[List[int]]]:
    """Plan and encode a whole database build in one vectorized pass:
    the plan, and the full row image of each slice array.

    Args:
        key_words / mask_words / data_words: the build's word columns
            (:func:`bulk_columns`).
        layout: one slice row's bit layout (and the record format).
        geometry: where each logical bucket lives; only rows that
            :meth:`~repro.core.config.BucketGeometry.holds_reach` get the
            reach field, as in the group's bucket writes.
        tracer: optional structured-event tracer (the ``bulk_plan`` event).
    """
    with profile("bulk.plan"):
        plan = plan_bulk_build(
            key_words,
            mask_words,
            data_words,
            layout.record_format.key_bits,
            index_generator,
            geometry.bucket_count,
            geometry.slots_per_bucket,
            reach_limit,
            slot_priority,
            tracer,
        )
    with profile("bulk.encode"):
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
                    plan.copy_keys[selected],
                    None
                    if plan.copy_masks is None
                    else plan.copy_masks[selected],
                    plan.copy_data[selected],
                )
            )
    return plan, array_rows


__all__ = [
    "BulkTotals",
    "BulkPlan",
    "bulk_columns",
    "plan_bulk_build",
    "build_bulk_image",
]
