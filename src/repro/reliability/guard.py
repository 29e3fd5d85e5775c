"""The per-array row guard: fault injection + ECC enforcement.

A :class:`RowGuard` hangs off one :class:`~repro.memory.array.MemoryArray`
(``array.guard``) and intercepts its read/write/load/fill paths:

* **writes** compute the row's checkword over the *intended* value, then
  let the fault injector's stuck cells corrupt what is actually stored —
  so a single stuck cell shows up as a correctable error on every read;
* **reads** first let the injector sample transient flips (persisted into
  the array, as real soft errors persist until rewritten), then check the
  value against the stored checkword: clean values pass through, single-bit
  errors are corrected (and written back), and uncorrectable
  errors raise :class:`~repro.errors.CorruptionError` — the read **never**
  returns silently wrong data;
* **bulk loads** (the DMA path) encode all checkwords in one vectorized
  pass (:func:`~repro.reliability.ecc.checkwords_for_rows`).

Reads of a *dead* row (a transient multi-bit overlay) always raise —
the guard refuses to even attempt correction there, because a soft flip
landing on a dead cell could otherwise alias into a plausible single-bit
syndrome and miscorrect.

The guard is array-local and policy-free beyond the ECC basics; quarantine,
victim remapping, scrubbing, and retries live in
:class:`~repro.reliability.manager.ReliabilityManager`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Set

from repro.errors import CorruptionError
from repro.reliability.ecc import (
    ECC_CLEAN,
    ECC_CORRECTED,
    ECC_DETECTED,
    Checkword,
    check_row,
    checkwords_for_rows,
    encode_row,
)
from repro.reliability.faults import FaultInjector

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.memory.array import MemoryArray


@dataclass
class GuardStats:
    """Per-array reliability counters."""

    faults_injected: int = 0
    corrections: int = 0
    detections: int = 0
    scrub_passes: int = 0
    scrub_corrections: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "faults_injected": self.faults_injected,
            "corrections": self.corrections,
            "detections": self.detections,
            "scrub_passes": self.scrub_passes,
            "scrub_corrections": self.scrub_corrections,
        }


class RowGuard:
    """ECC + fault-injection interceptor for one memory array.

    Args:
        array: the protected array (the guard installs itself as
            ``array.guard``).
        array_index: the array's index within its slice group (labels
            raised :class:`CorruptionError`\\ s).
        injector: optional fault source; ``None`` protects a fault-free
            array (pure ECC).
        ecc: when False, faults are injected but rows are not checked —
            the chaos mode used to demonstrate silent corruption.

    A checked read that corrects a row writes the corrected value back, so
    correctable errors do not accumulate into uncorrectable ones.
    """

    def __init__(
        self,
        array: "MemoryArray",
        array_index: int = 0,
        injector: Optional[FaultInjector] = None,
        ecc: bool = True,
    ) -> None:
        self._array = array
        self.array_index = array_index
        self.injector = injector
        self.ecc = ecc
        self._row_bits = array.row_bits
        # Out-of-band check-bit columns: one checkword (a tuple of
        # per-segment SECDED words) per row, encoded over the current
        # (intended) content.
        self.checkwords: List[Checkword] = checkwords_for_rows(
            array.snapshot(), self._row_bits
        )
        #: Correctable-error count per row since the last quarantine/reset
        #: (the quarantine-threshold input).
        self.corrected_counts: Dict[int, int] = {}
        #: Rows that were quarantined (spared); bookkeeping only — the
        #: spare row is pristine and fully usable.
        self.quarantined: Set[int] = set()
        self.stats = GuardStats()
        #: Optional :class:`~repro.core.stats.SearchStats` sink — when the
        #: manager wires it, every fault/correction/detection also lands in
        #: the owner's search statistics and trace stream.
        self.search_stats = None
        array.guard = self

    # ------------------------------------------------------------------
    # Fault persistence
    # ------------------------------------------------------------------

    def _persist(self, row: int, value: int) -> int:
        """Store a new physical value for ``row`` (stuck cells reapply),
        bypassing access counters but notifying mirrors."""
        if self.injector is not None:
            value = self.injector.apply_write(row, value)
        self._array._data[row] = value
        self._array._invalidate(row, 1)
        return value

    def inject_access_fault(self, row: int, flip_mask: int) -> None:
        """Persist a sampled soft-error flip into the array (batch path)."""
        if not flip_mask:
            return
        self._count_fault()
        self._array._data[row] ^= flip_mask
        self._array._invalidate(row, 1)

    def _count_fault(self) -> None:
        self.stats.faults_injected += 1
        if self.search_stats is not None:
            self.search_stats.record_fault_injected()

    def _count_correction(self, scrub: bool = False) -> None:
        self.stats.corrections += 1
        if scrub:
            self.stats.scrub_corrections += 1
        if self.search_stats is not None:
            self.search_stats.record_ecc_correction()

    def _count_detection(self) -> None:
        self.stats.detections += 1
        if self.search_stats is not None:
            self.search_stats.record_corruption_detected()

    # ------------------------------------------------------------------
    # Array hooks
    # ------------------------------------------------------------------

    def on_read(self, row: int, value: int) -> int:
        """Intercept one counted row read: inject, then detect-or-correct."""
        injector = self.injector
        overlay = 0
        if injector is not None:
            flips = injector.flips_for_read(row)
            if flips:
                self._count_fault()
                value = self._persist(row, value ^ flips)
            overlay = injector.read_overlay(row)
        if not self.ecc:
            return value ^ overlay
        if overlay:
            # Dead row: refuse to correct (a coinciding soft flip could
            # alias the multi-bit overlay into a single-bit syndrome).
            self._count_detection()
            raise CorruptionError(
                f"uncorrectable error reading dead row {row} "
                f"(array {self.array_index})",
                array_index=self.array_index,
                row=row,
            )
        return self._checked(row, value)

    def verified_peek(self, row: int) -> int:
        """Uncounted ECC-verified read (the mirror's decode source).

        No fault sampling — batch-path faults are injected per access by
        the access sink; this only validates what is stored.
        """
        value = self._array._data[row]
        injector = self.injector
        if injector is not None and injector.is_dead(row):
            if self.ecc:
                self._count_detection()
                raise CorruptionError(
                    f"uncorrectable error decoding dead row {row} "
                    f"(array {self.array_index})",
                    array_index=self.array_index,
                    row=row,
                )
            return value ^ injector.read_overlay(row)
        if not self.ecc:
            return value
        return self._checked(row, value)

    def _checked(self, row: int, value: int) -> int:
        """``value`` as read from ``row``, through the SECDED check: a
        clean value passes, a correctable one is counted, written back and
        returned corrected, an uncorrectable one is counted and raises
        :class:`CorruptionError`."""
        status, corrected, _ = check_row(
            value, self.checkwords[row], self._row_bits
        )
        if status == ECC_CLEAN:
            return value
        if status == ECC_CORRECTED:
            self._count_correction()
            self.corrected_counts[row] = self.corrected_counts.get(row, 0) + 1
            self._persist(row, corrected)
            return corrected
        self._count_detection()
        raise CorruptionError(
            f"uncorrectable multi-bit error in row {row} "
            f"(array {self.array_index})",
            array_index=self.array_index,
            row=row,
        )

    def on_write(self, row: int, value: int) -> int:
        """Intercept a row write: encode the checkword over the intended
        value, return what the (possibly stuck) cells actually store."""
        self.checkwords[row] = encode_row(value, self._row_bits)
        self.corrected_counts.pop(row, None)
        if self.injector is not None:
            value = self.injector.apply_write(row, value)
        return value

    def on_load(self, offset: int, rows: List[int]) -> List[int]:
        """Intercept a DMA burst: vectorized checkword encode + stuck cells."""
        self.checkwords[offset : offset + len(rows)] = checkwords_for_rows(
            rows, self._row_bits
        )
        for i in range(len(rows)):
            self.corrected_counts.pop(offset + i, None)
        injector = self.injector
        if injector is None:
            return rows
        return [
            injector.apply_write(offset + i, value)
            for i, value in enumerate(rows)
        ]

    def on_fill(self, value: int) -> None:
        """Intercept a whole-array fill (clear/rebuild)."""
        checkword = encode_row(value, self._row_bits)
        self.checkwords = [checkword] * self._array.rows
        self.corrected_counts.clear()
        injector = self.injector
        if injector is None:
            return
        data = self._array._data
        for row in range(len(data)):
            stored = injector.apply_write(row, value)
            if stored != value:
                data[row] = stored

    # ------------------------------------------------------------------
    # Scrub / quarantine support
    # ------------------------------------------------------------------

    def scrub_row(self, row: int) -> str:
        """Background-check one row without touching access counters.

        Returns the :mod:`~repro.reliability.ecc` verdict.  Corrected rows
        are rewritten in place; dead rows report :data:`ECC_DETECTED`
        (scrub's write-read-back test finds them) — the caller quarantines.
        Never raises.
        """
        injector = self.injector
        if injector is not None and injector.is_dead(row):
            return ECC_DETECTED
        if not self.ecc:
            return ECC_CLEAN
        value = self._array._data[row]
        status, corrected, _ = check_row(
            value, self.checkwords[row], self._row_bits
        )
        if status == ECC_CORRECTED:
            self._count_correction(scrub=True)
            self.corrected_counts[row] = self.corrected_counts.get(row, 0) + 1
            self._persist(row, corrected)
        return status

    def recheck(self, row: int) -> str:
        """Verdict over the currently *stored* value — no injection, no
        repair.  Run after :meth:`scrub_row` it is a write-read-back
        test: a transient error was healed by the repair (CLEAN), while
        a stuck cell reasserts itself through the rewrite (CORRECTED
        again) and a dead row stays DETECTED."""
        injector = self.injector
        if injector is not None and injector.is_dead(row):
            return ECC_DETECTED
        if not self.ecc:
            return ECC_CLEAN
        return check_row(
            self._array._data[row], self.checkwords[row], self._row_bits
        )[0]

    def quarantine(self, row: int) -> None:
        """Mark a row spared: retire its hard faults, reset its counters."""
        self.quarantined.add(row)
        self.corrected_counts.pop(row, None)
        if self.injector is not None:
            self.injector.retire_row(row)


__all__ = ["RowGuard", "GuardStats"]
