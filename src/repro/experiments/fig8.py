"""Figure 8 — application-level area and power: TCAM/CAM vs CA-RAM.

IP lookup: design D of Table 2, "further sliced ... to create eight
vertical banks", 200 MHz DRAM with >= 6-cycle access, against the Noda
6T dynamic TCAM at 143 MHz.  Paper: 45% area reduction, 70% power saving.

Trigram: design A of Table 3 against the (optimistically scaled) Yamagata
stacked-capacitor CAM; area only ("We do not compare power consumption
because the implementation in [31] does not have any advanced power
reduction techniques").  Paper: 5.9x area reduction.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.apps.iplookup.designs import IP_DESIGNS, KEY_SYMBOLS
from repro.apps.iplookup.evaluate import evaluate_ip_design
from repro.apps.iplookup.table_gen import (
    PrefixTable,
    SyntheticBgpConfig,
    generate_bgp_table,
)
from repro.apps.trigram.designs import TRIGRAM_DESIGNS, TRIGRAM_KEY_BITS
from repro.cam.cells import CAM_STACKED_YAMAGATA92, TCAM_6T_DYNAMIC_NODA05
from repro.cost.area import cam_database_area_um2, ca_ram_database_area_um2
from repro.cost.bandwidth import ca_ram_search_bandwidth
from repro.cost.power import ca_ram_search_power_w, cam_search_power_w
from repro.experiments import paper_values
from repro.experiments.reporting import print_table
from repro.memory.timing import DRAM_TIMING
from repro.utils.rng import SeedLike
from repro.utils.units import format_area_um2, format_power_mw

IP_BANKS = 8


def run_ip(
    table: Optional[PrefixTable] = None,
    seed: SeedLike = 7,
) -> Dict[str, object]:
    """IP half of Figure 8: area + power of TCAM vs CA-RAM design D."""
    if table is None:
        table = generate_bgp_table(SyntheticBgpConfig(seed=seed))
    design = IP_DESIGNS["D"]
    result = evaluate_ip_design(design, table, seed=seed)

    tcam_area = cam_database_area_um2(
        entries=len(table),
        symbols_per_entry=KEY_SYMBOLS,
        cell=TCAM_6T_DYNAMIC_NODA05,
    )
    # "We take into account the load factor for area calculation": the
    # CA-RAM provisions its full geometric capacity.
    ca_ram_area = ca_ram_database_area_um2(design.capacity_bits, ternary=True)

    search_rate = paper_values.FIG8_TCAM_CLOCK_HZ  # equal-bandwidth point
    tcam_power = cam_search_power_w(
        entries=len(table),
        symbols_per_entry=KEY_SYMBOLS,
        cell=TCAM_6T_DYNAMIC_NODA05,
        search_rate_hz=search_rate,
    )
    ca_ram_power = ca_ram_search_power_w(
        row_bits=design.row_bits,
        search_rate_hz=search_rate,
        rows_fetched=design.geometry.rows_fetched,
        amal=result.amal_uniform,
    )
    dram = DRAM_TIMING.scaled_to(paper_values.FIG8_CA_RAM_CLOCK_HZ)
    bandwidth = ca_ram_search_bandwidth(IP_BANKS, dram) / result.amal_uniform
    return {
        "design": design.name,
        "tcam_area_um2": tcam_area,
        "ca_ram_area_um2": ca_ram_area,
        "area_ratio": ca_ram_area / tcam_area,
        "area_reduction": 1.0 - ca_ram_area / tcam_area,
        "tcam_power_w": tcam_power,
        "ca_ram_power_w": ca_ram_power,
        "power_ratio": ca_ram_power / tcam_power,
        "power_reduction": 1.0 - ca_ram_power / tcam_power,
        "ca_ram_bandwidth_lookups_s": bandwidth,
        "tcam_bandwidth_lookups_s": paper_values.FIG8_TCAM_CLOCK_HZ,
        "amal": result.amal_uniform,
    }


def run_trigram(entry_count: int = paper_values.TABLE3_ENTRY_COUNT) -> Dict[str, object]:
    """Trigram half of Figure 8: area of CAM vs CA-RAM design A.

    Uses the paper's full-scale entry count by default — the comparison is
    closed-form arithmetic, so no database generation is needed.
    """
    design = TRIGRAM_DESIGNS["A"]
    cam_area = cam_database_area_um2(
        entries=entry_count,
        symbols_per_entry=TRIGRAM_KEY_BITS,
        cell=CAM_STACKED_YAMAGATA92,
    )
    ca_ram_area = ca_ram_database_area_um2(design.capacity_bits, ternary=False)
    return {
        "design": design.name,
        "cam_area_um2": cam_area,
        "ca_ram_area_um2": ca_ram_area,
        "area_ratio": cam_area / ca_ram_area,
    }


def run() -> List[Dict[str, object]]:
    """Both halves as printable rows."""
    ip = run_ip()
    trigram = run_trigram()
    return [
        {
            "application": "IP lookup (design D, 8 banks)",
            "baseline": TCAM_6T_DYNAMIC_NODA05.name,
            "area_saving_pct": round(100 * ip["area_reduction"], 1),
            "paper_area_saving_pct": 100 * paper_values.FIG8_IP_AREA_REDUCTION,
            "power_saving_pct": round(100 * ip["power_reduction"], 1),
            "paper_power_saving_pct": 100 * paper_values.FIG8_IP_POWER_REDUCTION,
        },
        {
            "application": "trigram lookup (design A)",
            "baseline": CAM_STACKED_YAMAGATA92.name,
            "area_saving_pct": round(100 * (1 - 1 / trigram["area_ratio"]), 1),
            "paper_area_saving_pct": round(
                100 * (1 - 1 / paper_values.FIG8_TRIGRAM_AREA_RATIO), 1
            ),
            "power_saving_pct": "-",
            "paper_power_saving_pct": "-",
        },
    ]


def main() -> None:
    ip = run_ip()
    print("== Figure 8: IP address lookup ==")
    print(f"TCAM area:    {format_area_um2(ip['tcam_area_um2'])}")
    print(f"CA-RAM area:  {format_area_um2(ip['ca_ram_area_um2'])} "
          f"({100 * ip['area_reduction']:.1f}% saving; paper: 45%)")
    print(f"TCAM power:   {format_power_mw(ip['tcam_power_w'] * 1e3)}")
    print(f"CA-RAM power: {format_power_mw(ip['ca_ram_power_w'] * 1e3)} "
          f"({100 * ip['power_reduction']:.1f}% saving; paper: 70%)")
    print(
        f"CA-RAM bandwidth: {ip['ca_ram_bandwidth_lookups_s'] / 1e6:.0f}M "
        f"lookups/s vs TCAM {ip['tcam_bandwidth_lookups_s'] / 1e6:.0f}M/s"
    )
    trigram = run_trigram()
    print("\n== Figure 8: trigram lookup ==")
    print(f"CAM area:    {format_area_um2(trigram['cam_area_um2'])}")
    print(f"CA-RAM area: {format_area_um2(trigram['ca_ram_area_um2'])} "
          f"({trigram['area_ratio']:.1f}x reduction; paper: 5.9x)")
    print_table("Summary", run())


if __name__ == "__main__":
    main()
