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
4. **encode** all rows in one word-packing pass (the encode-direction
   codecs of :mod:`repro.memory.mirror`) and emit per-array row images plus
   the ready-made decoded mirror matrices.

The resulting memory image, reach fields, record counts, and
``SearchStats`` are bit-identical to the sequential insert loop — the
equivalence the property tests in ``tests/core/test_bulk_load.py`` pin
down.  The pipeline only supports linear probing (the paper's policy, and
the one the spill model simulates); callers fall back to sequential
insertion for other policies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Tuple,
)

import numpy as np

from repro.errors import CapacityError
from repro.core.bucket import BucketLayout
from repro.core.config import BucketGeometry
from repro.core.index import IndexGenerator
from repro.core.record import KeyLike, Record, RecordFormat
from repro.hashing.analysis import simulate_linear_probing
from repro.memory.mirror import (
    keys_to_words,
    rows_from_bits,
    words_for_bits,
    words_to_bits,
)
from repro.telemetry.profiling import profile

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.telemetry.trace import Tracer

#: Rows encoded per chunk of the word-packing pass — bounds the peak
#: ``(chunk, row_bits)`` bit matrix to a few MB even for the trigram
#: study's 13,928-bit rows.
ENCODE_CHUNK_ROWS = 1024


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
    copy_record: np.ndarray               # (copies,) record index per copy
    copy_bucket: np.ndarray               # (copies,) final bucket per copy
    copy_slot: np.ndarray                 # (copies,) slot within the bucket
    reach: np.ndarray                     # (bucket_count,) aux-field image
    #: Copies displaced off their home bucket by the FCFS spill model.
    spilled_copies: int = 0
    #: Largest probe-sequence displacement any copy needed.
    max_displacement: int = 0

    @property
    def record_count(self) -> int:
        return len(self.records)

    @property
    def copy_count(self) -> int:
        return int(self.copy_bucket.size)

    @property
    def spill_rate(self) -> float:
        """Fraction of stored copies that landed off their home bucket."""
        copies = self.copy_count
        return self.spilled_copies / copies if copies else 0.0

    def as_dict(self) -> Dict[str, object]:
        """Planner totals as a telemetry provider payload."""
        return {
            "record_count": self.record_count,
            "copy_count": self.copy_count,
            "spilled_copies": self.spilled_copies,
            "spill_rate": self.spill_rate,
            "max_displacement": self.max_displacement,
            "max_reach": int(self.reach.max()) if self.reach.size else 0,
        }


@dataclass
class BulkImage:
    """A planned build rendered into physical rows + decoded mirror state."""

    plan: BulkPlan
    array_rows: List[List[int]]           # full row image per slice array
    mirror_valid: np.ndarray              # (buckets, slots) bool
    mirror_key_words: np.ndarray          # (buckets, slots, W) uint64
    mirror_mask_words: np.ndarray         # (buckets, slots, W) uint64
    mirror_reach: np.ndarray              # (buckets,) int64
    mirror_records: np.ndarray            # (buckets, slots) object
    mirror_data_words: Optional[np.ndarray] = None  # (buckets, slots, Wd)


def plan_bulk_build(
    pairs: Iterable[Tuple[KeyLike, int]],
    record_format: RecordFormat,
    index_generator: IndexGenerator,
    bucket_count: int,
    slots_per_bucket: int,
    reach_limit: int,
    slot_priority: Optional[Callable[[Record], float]] = None,
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
    for key, data in pairs:
        record = Record.make(key, data, record_format)
        records.append(record)
        values.append(record.key.value)
        if masks is not None:
            masks.append(record.key.mask)
    n = len(records)

    key_words = keys_to_words(values, record_format.key_bits)
    mask_words = (
        keys_to_words(masks, record_format.key_bits)
        if masks is not None
        else None
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
        priority = np.fromiter(
            (slot_priority(records[r]) for r in copy_record.tolist()),
            dtype=np.float64,
            count=copies,
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
        records=records,
        key_words=key_words,
        mask_words=mask_words,
        copy_record=copy_record,
        copy_bucket=sim.placed_bucket,
        copy_slot=copy_slot,
        reach=sim.reach,
        spilled_copies=spilled,
        max_displacement=max_displacement,
    )
    if tracer is not None:
        tracer.emit(
            "bulk_plan",
            records=plan.record_count,
            copies=plan.copy_count,
            spilled=spilled,
            max_displacement=max_displacement,
        )
    return plan


def encode_slot_bits(plan: BulkPlan, record_format: RecordFormat) -> np.ndarray:
    """Serialize every stored copy into its slot bit pattern, vectorized.

    Returns a ``(copies, slot_bits)`` bool matrix in the MSB-first slot
    layout of :func:`~repro.core.record.encode_record`:
    ``valid | key value | [key mask] | data``.
    """
    copies = plan.copy_count
    columns = [np.ones((copies, 1), dtype=bool)]  # valid bit
    key_bits = record_format.key_bits
    columns.append(words_to_bits(plan.key_words[plan.copy_record], key_bits))
    if record_format.ternary:
        columns.append(
            words_to_bits(plan.mask_words[plan.copy_record], key_bits)
        )
    if record_format.data_bits:
        data = [plan.records[r].data for r in plan.copy_record.tolist()]
        data_words = keys_to_words(data, record_format.data_bits)
        columns.append(words_to_bits(data_words, record_format.data_bits))
    return np.concatenate(columns, axis=1)


def _encode_array_rows(
    row_count: int,
    layout: BucketLayout,
    aux_values: Optional[np.ndarray],
    rows: np.ndarray,
    slots: np.ndarray,
    slot_bits_matrix: np.ndarray,
) -> List[int]:
    """Render one array's full row image from its copies' bit patterns."""
    row_bits = layout.row_bits
    aux_bits = layout.aux_bits
    slot_width = layout.record_format.slot_bits
    order = np.argsort(rows, kind="stable")
    rows_sorted = rows[order]
    slots_sorted = slots[order]
    bits_sorted = slot_bits_matrix[order]
    bit_cols = np.arange(slot_width, dtype=np.int64)
    out: List[int] = []
    for start in range(0, row_count, ENCODE_CHUNK_ROWS):
        stop = min(start + ENCODE_CHUNK_ROWS, row_count)
        chunk = np.zeros((stop - start, row_bits), dtype=bool)
        if aux_bits and aux_values is not None:
            aux_words = np.asarray(
                aux_values[start:stop], dtype=np.uint64
            ).reshape(-1, 1)
            chunk[:, :aux_bits] = words_to_bits(aux_words, aux_bits)
        lo = int(np.searchsorted(rows_sorted, start, side="left"))
        hi = int(np.searchsorted(rows_sorted, stop, side="left"))
        if hi > lo:
            local_row = rows_sorted[lo:hi] - start
            col0 = aux_bits + slots_sorted[lo:hi] * slot_width
            flat = (
                local_row[:, None] * row_bits
                + col0[:, None]
                + bit_cols[None, :]
            ).ravel()
            chunk.reshape(-1)[flat] = bits_sorted[lo:hi].ravel()
        out.extend(rows_from_bits(chunk, row_bits))
    return out


def build_bulk_image(
    pairs: Iterable[Tuple[KeyLike, int]],
    *,
    layout: BucketLayout,
    geometry: BucketGeometry,
    index_generator: IndexGenerator,
    reach_limit: int,
    slot_priority: Optional[Callable[[Record], float]] = None,
    tracer: Optional["Tracer"] = None,
) -> BulkImage:
    """Plan and encode a whole database build in one vectorized pass.

    Args:
        layout: one slice row's bit layout (and the record format).
        geometry: where each logical bucket lives; only rows that
            :meth:`~repro.core.config.BucketGeometry.holds_reach` get the
            reach field, as in the scalar ``_write_occupants``.
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
        slot_bits = encode_slot_bits(plan, record_format)

        array_id, phys_row, phys_slot = geometry.place(
            plan.copy_bucket, plan.copy_slot
        )
        all_rows = np.arange(geometry.rows)
        array_rows: List[List[int]] = []
        for s in range(geometry.slices):
            aux_values = (
                plan.reach[geometry.bucket_of(s, all_rows)]
                if geometry.holds_reach(s)
                else None
            )
            selected = array_id == s
            array_rows.append(
                _encode_array_rows(
                    geometry.rows,
                    layout,
                    aux_values,
                    phys_row[selected],
                    phys_slot[selected],
                    slot_bits[selected],
                )
            )

        word_count = words_for_bits(record_format.key_bits)
        valid = np.zeros((bucket_count, slots_per_bucket), dtype=bool)
        key_words = np.zeros(
            (bucket_count, slots_per_bucket, word_count), dtype=np.uint64
        )
        mask_words = np.zeros_like(key_words)
        records_grid = np.empty((bucket_count, slots_per_bucket), dtype=object)
        b, s = plan.copy_bucket, plan.copy_slot
        valid[b, s] = True
        key_words[b, s] = plan.key_words[plan.copy_record]
        if plan.mask_words is not None:
            mask_words[b, s] = plan.mask_words[plan.copy_record]
        record_column = np.empty(len(plan.records), dtype=object)
        record_column[:] = plan.records
        records_grid[b, s] = record_column[plan.copy_record]

        if record_format.data_bits:
            data_word_count = words_for_bits(record_format.data_bits)
            data_grid = np.zeros(
                (bucket_count, slots_per_bucket, data_word_count),
                dtype=np.uint64,
            )
            per_record = keys_to_words(
                [record.data for record in plan.records],
                record_format.data_bits,
            )
            data_grid[b, s] = per_record[plan.copy_record]
        else:
            data_grid = np.zeros(
                (bucket_count, slots_per_bucket, 0), dtype=np.uint64
            )

    return BulkImage(
        plan=plan,
        array_rows=array_rows,
        mirror_valid=valid,
        mirror_key_words=key_words,
        mirror_mask_words=mask_words,
        mirror_reach=plan.reach.astype(np.int64, copy=True),
        mirror_records=records_grid,
        mirror_data_words=data_grid,
    )


__all__ = [
    "BulkPlan",
    "BulkImage",
    "plan_bulk_build",
    "encode_slot_bits",
    "build_bulk_image",
    "ENCODE_CHUNK_ROWS",
]
