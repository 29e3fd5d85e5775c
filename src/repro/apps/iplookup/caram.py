"""Behavioral CA-RAM construction for IP lookup.

Builds an actual :class:`~repro.core.subsystem.SliceGroup` (bit-accurate
rows, match processors, probing) holding a routing table, with the LPM
conventions of Section 4.1:

* records are ternary keys (prefix bits + don't-cares), duplicated across
  buckets when hash bits are masked;
* bucket slots are kept sorted by descending prefix length, so the priority
  encoder returns the longest matching prefix within a bucket;
* the table is inserted longest-prefix-first, so longer prefixes win the
  home-bucket slots and spills are short-prefix-biased (the paper's
  pre-sorted placement).

This is the model the integration tests drive against the binary trie and
the TCAM baseline.  For full-scale Table 2 analytics use
:mod:`repro.apps.iplookup.evaluate`, which is vectorized.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.apps.iplookup.designs import IpDesign
from repro.apps.iplookup.prefix import ADDRESS_BITS, Prefix
from repro.core.config import SliceConfig
from repro.core.record import RecordFormat
from repro.core.subsystem import SliceGroup
from repro.hashing.bit_select import BitSelectHash

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.reliability.faults import FaultConfig
    from repro.reliability.manager import ReliabilityPolicy
    from repro.telemetry.metrics import MetricsRegistry
    from repro.telemetry.trace import Tracer


def ip_record_format(next_hop_bits: int = 16) -> RecordFormat:
    """The stored-record layout: 32-bit ternary key + next-hop data.

    The ternary mask doubles key storage to the paper's 64 stored bits.
    """
    return RecordFormat(
        key_bits=ADDRESS_BITS, data_bits=next_hop_bits, ternary=True
    )


def ip_slice_config(design: IpDesign, next_hop_bits: int = 16) -> SliceConfig:
    """Slice geometry for a design: rows sized to hold ``keys_per_row``
    records (the behavioral row carries valid bits, data, and the aux field
    on top of the paper's C = keys x 64 key-storage bits)."""
    record_format = ip_record_format(next_hop_bits)
    aux_bits = 8
    row_bits = aux_bits + design.keys_per_row * record_format.slot_bits
    return SliceConfig(
        index_bits=design.index_bits,
        row_bits=row_bits,
        record_format=record_format,
        aux_bits=aux_bits,
    )


def ip_hash_function(design: IpDesign) -> BitSelectHash:
    """The paper's hash: the last R_eff bits of the first 16 address bits."""
    r_eff = design.effective_index_bits
    return BitSelectHash(ADDRESS_BITS, tuple(range(16 - r_eff, 16)))


def prefix_priority(keys, masks, data) -> np.ndarray:
    """Slot priority over word columns: fewer don't-care bits first."""
    return ADDRESS_BITS - np.bitwise_count(masks).sum(axis=1, dtype=np.int64)


def build_ip_caram(
    prefixes: Iterable[Tuple[Prefix, int]],
    design: IpDesign,
    next_hop_bits: int = 16,
    tracer: Optional["Tracer"] = None,
    registry: Optional["MetricsRegistry"] = None,
    reliability: Optional["ReliabilityPolicy"] = None,
    faults: Optional["FaultConfig"] = None,
) -> SliceGroup:
    """Build and load a behavioral CA-RAM for a routing table.

    Prefixes are inserted longest-first through the vectorized
    :meth:`~repro.core.subsystem.SliceGroup.bulk_load` pipeline, producing
    the same memory image bit for bit as sequential inserts.  Raises
    :class:`~repro.errors.CapacityError` when the table does not fit the
    design (choose a larger design or scale the table down).

    Pass a ``tracer`` to capture the build's structured events (the bulk
    plan, the DMA burst, mirror installs) and everything the group does
    afterwards; pass a ``registry`` to mount the group's live counters
    under its ``ip-<design>`` name.  Pass ``reliability`` (and optionally
    ``faults``) to enable the ECC/fault-injection layer *after* the table
    is loaded, so the checkwords protect the installed image.
    """
    group = SliceGroup(
        config=ip_slice_config(design, next_hop_bits),
        slice_count=design.slice_count,
        arrangement=design.arrangement,
        hash_function=ip_hash_function(design),
        slot_priority=prefix_priority,
        name=f"ip-{design.name}",
    )
    if tracer is not None:
        group.tracer = tracer
    if registry is not None:
        group.register_telemetry(registry)
    pairs = sorted(prefixes, key=lambda item: (-item[0].length, item[0].value))
    group.bulk_load(
        (prefix.to_ternary_key(), next_hop) for prefix, next_hop in pairs
    )
    if reliability is not None or faults is not None:
        group.enable_reliability(reliability, faults)
    return group


def lpm_search(group: SliceGroup, address: int) -> Optional[int]:
    """Longest-prefix-match lookup against a loaded group."""
    result = group.search(address)
    return result.data if result.hit else None


def lpm_search_batch(
    group: SliceGroup, addresses: Sequence[int]
) -> List[Optional[int]]:
    """Vectorized LPM over an address stream (one next hop per address).

    Backed by :meth:`SliceGroup.search_batch_columnar`, so a long query
    trace is resolved against the decoded mirror instead of per-address
    row decodes, and next hops are read straight from the columnar result
    set's packed data words — no per-address ``SearchResult`` or
    ``Record`` objects; results and AMAL statistics are identical to
    per-address :func:`lpm_search` calls.
    """
    return group.search_batch_columnar(addresses).data_values()


__all__ = [
    "ip_record_format",
    "ip_slice_config",
    "ip_hash_function",
    "prefix_priority",
    "build_ip_caram",
    "lpm_search",
    "lpm_search_batch",
]
