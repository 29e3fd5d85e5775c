"""Composing databases out of slices: mixed arrangements and CA-RAM
overflow areas.

Section 3.2: "a database can be implemented with multiple CA-RAM slices,
arranged vertically (i.e., more rows), horizontally (i.e., wider buckets),
or in a mixed way.  For example, five slices can be allocated together with
four slices used to extend the number of rows and the remaining one set
aside for storing spilled records."

:func:`compose_database` builds exactly that shape inside a
:class:`~repro.core.subsystem.CARAMSubsystem`: a main group of slices plus
an optional overflow area attached to it — either a dedicated CA-RAM slice
(the quote above) or a small TCAM (Section 4.3's victim option) — searched
in parallel with the home bucket so spilled records cost a single access.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from repro.cam.tcam import TCAM
from repro.core.bucket import SlotPriority
from repro.core.config import Arrangement, SliceConfig
from repro.core.subsystem import CARAMSubsystem, OverflowStore, SliceGroup
from repro.errors import ConfigurationError
from repro.hashing.base import HashFunction, ModuloHash


class OverflowKind(enum.Enum):
    """What absorbs records that do not fit their home bucket."""

    NONE = "none"          # linear probing inside the main group
    TCAM = "tcam"          # a small victim TCAM (Section 4.3)
    CA_RAM_SLICE = "caram" # a dedicated overflow slice (Section 3.2)


@dataclass
class ComposedDatabase:
    """The result of :func:`compose_database`.

    Attributes:
        name: database name inside the subsystem.
        main: the primary slice group.
        overflow: the overflow store, or None.
        total_slices: physical slices consumed (main + overflow).
    """

    name: str
    main: SliceGroup
    overflow: Optional[OverflowStore]
    total_slices: int

    @property
    def overflow_entry_count(self) -> int:
        """Records currently held in the overflow area."""
        return 0 if self.overflow is None else self.overflow.record_count


def _overflow_slice_group(
    config: SliceConfig,
    hash_function: HashFunction,
    name: str,
    slot_priority: Optional[SlotPriority],
) -> SliceGroup:
    """A one-slice CA-RAM overflow area sharing the main group's geometry.

    The overflow slice uses the *same* hash so spilled records land near
    their home index, but with its own (much emptier) bucket space, plus
    linear probing of its own for pathological cases.  It keeps the main
    group's slot priority, so its buckets stay in LPM order too.
    """
    rows = config.rows
    overflow_hash = hash_function
    if hash_function.bucket_count != rows:
        try:
            overflow_hash = hash_function.rebucketed(rows)
        except ConfigurationError:
            overflow_hash = ModuloHash(rows)
    return SliceGroup(
        config=config,
        slice_count=1,
        arrangement=Arrangement.VERTICAL,
        hash_function=overflow_hash,
        slot_priority=slot_priority,
        name=f"{name}-overflow",
    )


def compose_database(
    subsystem: CARAMSubsystem,
    name: str,
    config: SliceConfig,
    slice_count: int,
    arrangement: Arrangement,
    hash_function: HashFunction,
    overflow: OverflowKind = OverflowKind.NONE,
    tcam_entries: int = 4096,
    slot_priority: Optional[SlotPriority] = None,
) -> ComposedDatabase:
    """Allocate a database (and optionally its overflow area) in a
    subsystem.

    Args:
        subsystem: target subsystem; the group (and port) are registered
            under ``name``.
        config: per-slice geometry of the main group.
        slice_count: slices in the main group.
        arrangement: main-group arrangement.
        hash_function: must address the main group's bucket count.
        overflow: overflow strategy; CA_RAM_SLICE allocates one extra slice
            with the same geometry, TCAM attaches a ``tcam_entries``-entry
            victim TCAM.
        tcam_entries: victim TCAM capacity (TCAM overflow only).
        slot_priority: optional :data:`~repro.core.bucket.SlotPriority` (LPM).

    Returns:
        A :class:`ComposedDatabase` descriptor.
    """
    main = SliceGroup(
        config=config,
        slice_count=slice_count,
        arrangement=arrangement,
        hash_function=hash_function,
        slot_priority=slot_priority,
        name=name,
    )
    subsystem.add_group(main)
    subsystem.map_port(name, name)

    store: Optional[OverflowStore] = None
    total = slice_count
    if overflow is OverflowKind.TCAM:
        store = TCAM(tcam_entries, config.record_format.key_bits)
    elif overflow is OverflowKind.CA_RAM_SLICE:
        store = _overflow_slice_group(
            config, hash_function, name, slot_priority
        )
        total += 1
    if store is not None:
        main.attach_overflow(store)

    return ComposedDatabase(
        name=name, main=main, overflow=store, total_slices=total
    )


__all__ = ["OverflowKind", "ComposedDatabase", "compose_database"]
