"""IPv6 scaling study (the paper's forward-looking concern).

Section 4.1: "the number of prefixes in the routing table of a core router
has exceeded 200K, and is still growing.  The size of a routing table will
even quadruple as we adopt IPv6.  Despite the current large TCAM
development efforts, the sheer amount of required associative storage
capacity remains a serious challenge."

This module extends the IP-lookup machinery to 128-bit addresses so that
challenge can be quantified: a synthetic IPv6 table (4x the IPv4 entry
count, /48-dominated length profile, allocation-clustered), the
bit-selection mapping over the first 32 address bits (publicly routed IPv6
prefixes are at least /16 and overwhelmingly at least /32), CA-RAM design
points at the same load factors as Table 2, and the area/power comparison
against TCAM at IPv6 scale.

Representation: practical routed prefixes are at most /64, so tables store
the *top 64 bits* of each address (vectorizable as uint64); the lower 64
bits are always host bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.apps.iplookup.table_gen import FULL_TABLE_PREFIX_COUNT
from repro.cam.cells import TCAM_6T_DYNAMIC_NODA05
from repro.core.config import Arrangement, BucketGeometry
from repro.cost.area import ca_ram_database_area_um2, cam_database_area_um2
from repro.cost.power import ca_ram_search_power_w, cam_search_power_w
from repro.errors import ConfigurationError
from repro.hashing.analysis import OccupancyReport, occupancy_report
from repro.utils.bits import mask_of
from repro.utils.rng import SeedLike, make_rng

ADDRESS_BITS_V6 = 128
STORED_BITS_V6 = 64  # top half; host bits below /64 are never routed

#: IPv6 stored key: 128 ternary symbols at 2 bits each.
KEY_SYMBOLS_V6 = 128
STORED_KEY_BITS_V6 = 256

#: Hash window: the first 32 address bits (the IPv6 analogue of the
#: paper's first-16-bits rule).
HASH_WINDOW_BITS_V6 = 32

#: "will even quadruple as we adopt IPv6"
FULL_V6_PREFIX_COUNT = 4 * FULL_TABLE_PREFIX_COUNT

#: Per-length profile of routed IPv6 tables: /48 dominates, /32 (RIR
#: allocations) and /40-/44 carry most of the rest.
V6_LENGTH_FRACTIONS: Dict[int, float] = {
    16: 0.0005,
    20: 0.001,
    24: 0.003,
    28: 0.008,
    32: 0.14,
    36: 0.06,
    40: 0.09,
    44: 0.10,
    48: 0.50,
    52: 0.02,
    56: 0.05,
    64: 0.0275,
}

_BLOCK_BITS_V6 = 32  # clustering granularity: /32 allocations


@dataclass(frozen=True)
class Ipv6Config:
    """Knobs of the synthetic IPv6 table."""

    total_prefixes: int = FULL_V6_PREFIX_COUNT
    block_sigma: float = 2.8
    # Densest /32 allocations hold ~90 routed prefixes: the same
    # no-dominant-block structure the IPv4 generator was calibrated to
    # (cap below the bucket capacity of the reference designs).
    block_max_prefixes: int = 90
    seed: SeedLike = None

    def __post_init__(self) -> None:
        if self.total_prefixes <= 0:
            raise ConfigurationError(
                f"total_prefixes must be positive: {self.total_prefixes}"
            )
        if self.block_sigma <= 0 or self.block_max_prefixes <= 0:
            raise ConfigurationError("invalid clustering parameters")


@dataclass
class Ipv6Table:
    """Synthetic IPv6 table: top-64-bit values + prefix lengths."""

    values: np.ndarray  # uint64, top 64 address bits, host bits zero
    lengths: np.ndarray  # uint8

    def __len__(self) -> int:
        return int(self.values.size)

    def fraction_at_least(self, length: int) -> float:
        if not len(self):
            return 0.0
        return float((self.lengths >= length).mean())


def generate_ipv6_table(config: Optional[Ipv6Config] = None) -> Ipv6Table:
    """Generate the synthetic IPv6 table (distinct (value, length) pairs).

    Clustering model: /32 allocation blocks with capped-lognormal
    popularity — the same structure the IPv4 generator was calibrated
    with, at the coarser granularity of IPv6 allocations.  Because the
    /32 space is astronomically sparse (2^32 blocks for under a million
    prefixes), active blocks are sampled explicitly.
    """
    if config is None:
        config = Ipv6Config()
    rng = make_rng(config.seed)

    # Active /32 allocation blocks: roughly one per 12 prefixes.
    active_blocks = max(64, config.total_prefixes // 12)
    block_ids = rng.integers(
        0, 1 << _BLOCK_BITS_V6, size=active_blocks, dtype=np.uint64
    )
    block_ids = np.unique(block_ids)
    weights = np.exp(rng.normal(0.0, config.block_sigma, size=block_ids.size))
    limit = config.block_max_prefixes / config.total_prefixes
    for _ in range(8):
        weights = weights / weights.sum()
        weights = np.minimum(weights, limit)
    weights = weights / weights.sum()

    lengths_menu = np.array(sorted(V6_LENGTH_FRACTIONS), dtype=np.int64)
    fractions = np.array(
        [V6_LENGTH_FRACTIONS[l] for l in lengths_menu], dtype=np.float64
    )
    fractions = fractions / fractions.sum()

    values_out = []
    lengths_out = []
    seen: set = set()
    remaining = config.total_prefixes
    attempts = 0
    while remaining > 0:
        attempts += 1
        if attempts > 40:
            raise ConfigurationError("could not fill the IPv6 table")
        draw = int(remaining * 1.3) + 256
        blocks = block_ids[rng.choice(block_ids.size, size=draw, p=weights)]
        lengths = lengths_menu[rng.choice(lengths_menu.size, size=draw, p=fractions)]
        # Sub-block bits: positions [32, length) randomized; for lengths
        # below 32 the block id itself is truncated.
        long_mask = lengths >= _BLOCK_BITS_V6
        sub_bits = np.where(long_mask, lengths - _BLOCK_BITS_V6, 0)
        sub = rng.integers(0, 1 << 32, size=draw, dtype=np.uint64)
        sub &= (np.uint64(1) << sub_bits.astype(np.uint64)) - np.uint64(1)
        base = blocks << np.uint64(STORED_BITS_V6 - _BLOCK_BITS_V6)
        shift = (STORED_BITS_V6 - lengths).astype(np.uint64)
        values = np.where(
            long_mask,
            base | (sub << shift),
            (blocks >> (np.uint64(_BLOCK_BITS_V6) - lengths.astype(np.uint64)))
            << shift,
        )
        for value, length in zip(values, lengths):
            tag = (int(value) << 8) | int(length)
            if tag in seen:
                continue
            seen.add(tag)
            values_out.append(int(value))
            lengths_out.append(int(length))
            remaining -= 1
            if remaining == 0:
                break

    return Ipv6Table(
        values=np.array(values_out, dtype=np.uint64),
        lengths=np.array(lengths_out, dtype=np.uint8),
    )


@dataclass
class Ipv6Mapping:
    """Bucket mapping of an IPv6 table.

    With 128-bit addresses, blind duplication explodes: a /16 prefix has
    14 don't-care bits inside a [18, 32) hash window — 16,384 copies.  The
    practical design (and the natural extension of the paper's Section 4.3
    overflow TCAM) caps duplication: prefixes needing more than
    ``2**dc_limit`` copies are *offloaded* to the small parallel TCAM that
    IPv6 LPM needs anyway for default/aggregate routes.

    Attributes:
        home: home bucket per stored record copy (offloaded prefixes
            excluded).
        record_count: CA-RAM-resident copies.
        duplicate_count: extra copies from don't-care hash bits.
        tcam_offloaded: prefixes diverted to the parallel TCAM.
    """

    home: np.ndarray
    record_count: int
    duplicate_count: int
    tcam_offloaded: int


def map_ipv6_to_buckets(
    table: Ipv6Table, index_bits: int, dc_limit: int = 6
) -> Ipv6Mapping:
    """Map prefixes to buckets, offloading extreme duplication to a TCAM.

    The hash selects the last ``index_bits`` of the first 32 address bits.
    Prefixes with up to ``dc_limit`` don't-care bits in the window are
    duplicated (as in the IPv4 mapping); shorter ones go to the parallel
    TCAM.
    """
    if not 1 <= index_bits <= HASH_WINDOW_BITS_V6:
        raise ConfigurationError(f"index_bits out of range: {index_bits}")
    if dc_limit < 0:
        raise ConfigurationError(f"dc_limit must be >= 0: {dc_limit}")
    lengths = table.lengths.astype(np.int64)
    window = (
        table.values >> np.uint64(STORED_BITS_V6 - HASH_WINDOW_BITS_V6)
    ).astype(np.int64)
    base = window & mask_of(index_bits)
    dc = np.maximum(
        0,
        HASH_WINDOW_BITS_V6
        - np.maximum(lengths, HASH_WINDOW_BITS_V6 - index_bits),
    )
    offloaded = dc > dc_limit
    direct = (dc == 0) & ~offloaded
    expand = (dc > 0) & ~offloaded
    homes = [base[direct]]
    for row in np.nonzero(expand)[0]:
        n = int(dc[row])
        homes.append(base[row] + np.arange(1 << n, dtype=np.int64))
    home = np.concatenate(homes) if homes else np.empty(0, dtype=np.int64)
    resident_prefixes = int((~offloaded).sum())
    return Ipv6Mapping(
        home=home,
        record_count=int(home.size),
        duplicate_count=int(home.size) - resident_prefixes,
        tcam_offloaded=int(offloaded.sum()),
    )


@dataclass(frozen=True)
class Ipv6Design:
    """A CA-RAM design point for IPv6 (Table 2 scaled to 256-bit keys)."""

    name: str
    index_bits: int
    keys_per_row: int
    slice_count: int
    arrangement: Arrangement

    @property
    def row_bits(self) -> int:
        return self.keys_per_row * STORED_KEY_BITS_V6

    @property
    def geometry(self) -> BucketGeometry:
        return BucketGeometry(
            self.arrangement, 1 << self.index_bits, self.slice_count,
            self.keys_per_row,
        )

    @property
    def bucket_count(self) -> int:
        return self.geometry.bucket_count

    @property
    def slots_per_bucket(self) -> int:
        return self.geometry.slots_per_bucket

    @property
    def capacity_records(self) -> int:
        return self.geometry.capacity_records

    @property
    def capacity_bits(self) -> int:
        return (1 << self.index_bits) * self.row_bits * self.slice_count


#: The IPv6 analogue of design D: same 0.36 load factor at 4x the table.
IPV6_DESIGN_D6 = Ipv6Design("D6", 14, 64, 2, Arrangement.HORIZONTAL)


@dataclass
class Ipv6Comparison:
    """IPv6-scale CA-RAM vs TCAM: occupancy + area + power."""

    prefix_count: int
    report: OccupancyReport
    tcam_area_um2: float
    ca_ram_area_um2: float
    tcam_power_w: float
    ca_ram_power_w: float
    tcam_offloaded: int = 0
    duplicate_count: int = 0

    @property
    def area_saving(self) -> float:
        return 1.0 - self.ca_ram_area_um2 / self.tcam_area_um2

    @property
    def power_saving(self) -> float:
        return 1.0 - self.ca_ram_power_w / self.tcam_power_w


def compare_ipv6(
    table: Optional[Ipv6Table] = None,
    design: Ipv6Design = IPV6_DESIGN_D6,
    search_rate_hz: float = 143e6,
    seed: SeedLike = 7,
) -> Ipv6Comparison:
    """Run the Figure 8-style comparison at IPv6 scale."""
    if table is None:
        table = generate_ipv6_table(Ipv6Config(seed=seed))
    mapping = map_ipv6_to_buckets(table, design.index_bits)
    geometry = design.geometry
    report = occupancy_report(
        mapping.home, geometry.bucket_count, geometry.slots_per_bucket
    )
    tcam_area = cam_database_area_um2(
        len(table), KEY_SYMBOLS_V6, TCAM_6T_DYNAMIC_NODA05
    )
    ca_ram_area = ca_ram_database_area_um2(design.capacity_bits)
    tcam_power = cam_search_power_w(
        len(table), KEY_SYMBOLS_V6, TCAM_6T_DYNAMIC_NODA05, search_rate_hz
    )
    ca_ram_power = ca_ram_search_power_w(
        design.row_bits,
        search_rate_hz,
        rows_fetched=geometry.rows_fetched,
        amal=report.amal_uniform,
    )
    return Ipv6Comparison(
        prefix_count=len(table),
        report=report,
        tcam_area_um2=tcam_area,
        ca_ram_area_um2=ca_ram_area,
        tcam_power_w=tcam_power,
        ca_ram_power_w=ca_ram_power,
        tcam_offloaded=mapping.tcam_offloaded,
        duplicate_count=mapping.duplicate_count,
    )


__all__ = [
    "ADDRESS_BITS_V6",
    "STORED_BITS_V6",
    "KEY_SYMBOLS_V6",
    "FULL_V6_PREFIX_COUNT",
    "V6_LENGTH_FRACTIONS",
    "Ipv6Config",
    "Ipv6Table",
    "generate_ipv6_table",
    "map_ipv6_to_buckets",
    "Ipv6Design",
    "IPV6_DESIGN_D6",
    "Ipv6Comparison",
    "compare_ipv6",
]
