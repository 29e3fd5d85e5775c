"""Routing-table update churn: insert/delete dynamics on CA-RAM.

The paper cites TCAM update cost as a known pain point (Shah & Gupta,
"Fast Updating Algorithms for TCAMs") and gives CA-RAM explicit insert and
delete operations plus RAM-mode rebuild.  This module quantifies the
dynamic story the paper leaves implicit:

* **route flaps** (withdraw + re-announce) are cheap point updates — no
  entry shuffling, unlike a sorted TCAM where a new prefix may displace a
  block of entries;
* churn degrades lookup cost slowly: deleted records leave their bucket's
  *reach* field behind (it cannot be decremented in place), so misses and
  re-inserted spills scan further than a fresh build would;
* a periodic RAM-mode **rebuild** restores the fresh-build AMAL.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.apps.iplookup.caram import build_ip_caram
from repro.apps.iplookup.designs import IpDesign
from repro.apps.iplookup.prefix import Prefix
from repro.core.subsystem import SliceGroup
from repro.errors import ConfigurationError
from repro.utils.rng import SeedLike, make_rng


@dataclass
class ChurnResult:
    """Outcome of one churn run.

    Attributes:
        flaps: withdraw/re-announce cycles performed.
        amal_fresh: lookup AMAL right after the initial build.
        amal_after_churn: AMAL after the flaps (stale reach, moved spills).
        amal_after_rebuild: AMAL after a RAM-mode rebuild.
        mean_reach_after_churn: average per-bucket reach after churn.
        mean_reach_after_rebuild: ditto after rebuild.
        updates_per_flap_entries: CA-RAM entries touched per flap
            (including don't-care duplicates) — the update-cost metric a
            sorted TCAM inflates.
    """

    flaps: int
    amal_fresh: float
    amal_after_churn: float
    amal_after_rebuild: float
    mean_reach_after_churn: float
    mean_reach_after_rebuild: float
    updates_per_flap_entries: float


def _measure_amal(group: SliceGroup, prefixes: Sequence[Prefix]) -> float:
    group.stats.reset()
    for prefix in prefixes:
        group.search(prefix.value)
    return group.stats.amal


def _mean_reach(group: SliceGroup) -> float:
    return sum(group.reach_fields()) / group.bucket_count


def _home_addresses(group: SliceGroup, prefix: Prefix) -> List[int]:
    """One address inside ``prefix`` per bucket its copies are homed in:
    the network address with each combination of the don't-care hash
    bits filled in (a prefix shorter than the hash window is duplicated
    into every such home, Section 4.1)."""
    positions = group.index_generator.hash_function.positions
    return [
        expanded.value
        for expanded in prefix.to_ternary_key().expand_positions(positions)
    ]


def run_update_churn(
    pairs: Sequence[Tuple[Prefix, int]],
    design: IpDesign,
    flaps: int,
    seed: SeedLike = None,
) -> ChurnResult:
    """Build a CA-RAM routing table, flap routes, measure, rebuild.

    Each flap withdraws a random prefix and re-announces it with a new
    next hop.  Lookup AMAL is probed over every prefix's network address.
    """
    if flaps < 0:
        raise ConfigurationError(f"flaps must be >= 0: {flaps}")
    pairs = list(pairs)
    if not pairs:
        raise ConfigurationError("at least one prefix is required")
    rng = make_rng(seed)
    group = build_ip_caram(pairs, design)

    probe_prefixes = [prefix for prefix, _ in pairs]
    amal_fresh = _measure_amal(group, probe_prefixes)

    touched = 0
    for _ in range(flaps):
        index = int(rng.integers(0, len(pairs)))
        prefix, _ = pairs[index]
        new_hop = int(rng.integers(0, 1 << 16))
        key = prefix.to_ternary_key()
        touched += group.delete(key)
        touched += group.insert(key, new_hop)
        pairs[index] = (prefix, new_hop)

    amal_after_churn = _measure_amal(group, probe_prefixes)
    reach_after_churn = _mean_reach(group)

    group.rebuild()
    amal_after_rebuild = _measure_amal(group, probe_prefixes)
    reach_after_rebuild = _mean_reach(group)

    # Correctness is part of the study: every route must still resolve
    # after all the churn and the rebuild, from every home it was
    # duplicated into, not only at its network address.
    for prefix, _ in pairs:
        for address in _home_addresses(group, prefix):
            if not group.search(address).hit:
                raise AssertionError(
                    f"{prefix} lost after churn at {address:#010x}"
                )

    return ChurnResult(
        flaps=flaps,
        amal_fresh=amal_fresh,
        amal_after_churn=amal_after_churn,
        amal_after_rebuild=amal_after_rebuild,
        mean_reach_after_churn=reach_after_churn,
        mean_reach_after_rebuild=reach_after_rebuild,
        updates_per_flap_entries=touched / flaps if flaps else 0.0,
    )


__all__ = ["ChurnResult", "run_update_churn"]
