"""The paper's contribution: the CA-RAM slice and multi-slice subsystem.

Public surface:

* :class:`~repro.core.key.TernaryKey` / :class:`~repro.core.record.Record` /
  :class:`~repro.core.record.RecordFormat` — searchable data items.
* :class:`~repro.core.config.SliceConfig` — geometry of one slice;
  :class:`~repro.core.config.BucketGeometry` — where a group's buckets live.
* :class:`~repro.core.subsystem.SliceGroup` — the one bucket store:
  search/insert/delete, bulk load, batch lookup, scan/update over
  horizontal or vertical slice arrangements, and the Section 4.3 overflow
  area and victim store, searched through one overlay.
* :class:`~repro.core.slice.CARAMSlice` — a one-array slice group plus RAM
  mode and cycle latency.
* :class:`~repro.core.subsystem.CARAMSubsystem` — named slice groups
  behind request ports.
"""

from repro.core.batch import BatchSearchEngine
from repro.core.composer import ComposedDatabase, OverflowKind, compose_database
from repro.core.config import Arrangement, BucketGeometry, SliceConfig
from repro.core.index import IndexGenerator
from repro.core.key import TernaryKey
from repro.core.match import MatchProcessor, MatchResult
from repro.core.probing import DoubleHashing, LinearProbing, ProbingPolicy
from repro.core.record import Record, RecordFormat
from repro.core.registers import MemoryMappedCaRam
from repro.core.results import SearchResult
from repro.core.slice import CARAMSlice
from repro.core.stats import SearchStats
from repro.core.subsystem import CARAMSubsystem, SliceGroup

__all__ = [
    "Arrangement",
    "BatchSearchEngine",
    "BucketGeometry",
    "ComposedDatabase",
    "OverflowKind",
    "compose_database",
    "MemoryMappedCaRam",
    "SliceConfig",
    "IndexGenerator",
    "TernaryKey",
    "MatchProcessor",
    "MatchResult",
    "ProbingPolicy",
    "LinearProbing",
    "DoubleHashing",
    "Record",
    "RecordFormat",
    "CARAMSlice",
    "SearchResult",
    "SearchStats",
    "CARAMSubsystem",
    "SliceGroup",
]
