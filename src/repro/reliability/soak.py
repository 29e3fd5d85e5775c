"""Chaos-soak harness: the detect-or-correct acceptance experiment.

Builds the paper's two workloads (IP lookup over a synthetic BGP table,
trigram lookup over a synthetic language-model database) at behavioral
scale, records a clean answer key *before* any fault is armed, then
replays the same query stream with fault injection and the reliability
layer enabled — interleaving scalar and batch lookups with periodic
background scrubs, exactly the mixed traffic a deployed substrate sees.

Every faulty-run answer is compared against the clean key.  The layer's
contract is **detect or correct, never lie**: corruption must either be
corrected by the row SECDED code (answer unchanged) or detected and
repaired through quarantine, victim overlay, and retry (answer still
unchanged).  A *silent wrong answer* — a lookup that differs from the
clean key without any detection event — is the one failure mode the
layer exists to rule out, and the soak asserts it stays at zero across
the swept fault rates.

The sweep also reports the price of resilience: the AMAL penalty (extra
bucket reads from retries) and wall-clock penalty per fault rate.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import Arrangement
from repro.errors import ConfigurationError
from repro.memory.mirror import words_to_ints
from repro.reliability.faults import FaultConfig
from repro.reliability.manager import ReliabilityPolicy
from repro.utils.rng import make_rng

#: Default fault-rate sweep (per-bit transient flip probability per access).
#: The range stays inside the SECDED code's design strength: at ~1e-3 the
#: probability of *three* flips landing in one 64-bit segment in a single
#: read becomes material, and a triple error aliases to a valid single-bit
#: syndrome — the code miscorrects, which no amount of scrubbing can see.
#: ``--rates 1e-3`` runs that stress point deliberately; expect a handful
#: of silent miscorrections per 10k lookups there, matching the binomial
#: triple-error estimate, not a bug in the layer.
DEFAULT_RATES: Tuple[float, ...] = (1e-5, 5e-5, 1e-4)

#: Default lookups per workload — the acceptance floor is >= 10k.
DEFAULT_QUERIES = 10_000

#: Queries per interleave block (scalar block, batch block, scalar ...).
DEFAULT_BLOCK = 512

_WORKLOAD_NAMES = ("ip", "trigram")


# ----------------------------------------------------------------------
# Workload construction
# ----------------------------------------------------------------------


def _build_ip_workload(seed: int, query_count: int):
    """A behavioral-scale IP-lookup workload: ~3k-prefix synthetic BGP
    table in a 2-slice horizontal design, queried by a mix of addresses
    covered by stored prefixes (75%) and uniform random addresses."""
    from repro.apps.iplookup.caram import build_ip_caram
    from repro.apps.iplookup.designs import IpDesign
    from repro.apps.iplookup.table_gen import (
        SyntheticBgpConfig,
        generate_bgp_table,
    )

    design = IpDesign("soak", 10, 32, 2, Arrangement.HORIZONTAL)
    table = generate_bgp_table(
        SyntheticBgpConfig(total_prefixes=3_000, seed=seed)
    )
    pairs = list(zip(table.prefixes(), (int(h) for h in table.next_hops)))
    group = build_ip_caram(pairs, design)

    rng = make_rng(seed + 1)
    picks = rng.integers(0, len(table.values), size=query_count)
    host_bits = np.uint64(32) - table.lengths[picks].astype(np.uint64)
    host = rng.integers(0, 1 << 32, size=query_count, dtype=np.uint64)
    covered = table.values[picks] | (
        host & ((np.uint64(1) << host_bits) - np.uint64(1))
    )
    random_addresses = rng.integers(0, 1 << 32, size=query_count, dtype=np.uint64)
    use_random = rng.random(query_count) < 0.25
    addresses = np.where(use_random, random_addresses, covered)
    return group, [int(a) for a in addresses]


def _build_trigram_workload(seed: int, query_count: int):
    """A behavioral-scale trigram workload: ~3k-entry synthetic database
    in design A scaled down 8x, queried by stored strings with a 25%
    admixture of mutated (guaranteed-miss) strings."""
    from repro.apps.trigram.caram import StringKeyCodec, build_trigram_caram
    from repro.apps.trigram.designs import TRIGRAM_DESIGNS
    from repro.apps.trigram.generator import (
        TrigramConfig,
        generate_trigram_database,
    )

    design = TRIGRAM_DESIGNS["A"].scaled(8)
    database = generate_trigram_database(
        TrigramConfig(total_entries=3_000, vocabulary_size=4_000, seed=seed)
    )
    entries = [
        (database.string_at(row), int(database.probabilities[row]))
        for row in range(len(database))
    ]
    group = build_trigram_caram(entries, design)

    rng = make_rng(seed + 2)
    picks = rng.integers(0, len(entries), size=query_count)
    texts = []
    for position, pick in enumerate(picks):
        text = entries[int(pick)][0]
        if position % 4 == 3:
            # The generator emits lowercase + space only; an uppercase
            # leading byte can never collide with a stored entry.
            text = b"Z" + text[1:]
        texts.append(text)
    return group, StringKeyCodec.encode_batch(texts)


_BUILDERS: Dict[str, Callable] = {
    "ip": _build_ip_workload,
    "trigram": _build_trigram_workload,
}


# ----------------------------------------------------------------------
# Reports
# ----------------------------------------------------------------------


@dataclass
class WorkloadReport:
    """One workload's soak outcome at one fault rate."""

    name: str
    queries: int
    silent_wrong: int
    clean_amal: float
    faulty_amal: float
    clean_seconds: float
    faulty_seconds: float
    faults_injected: int
    ecc_corrections: int
    corruption_detections: int
    quarantines: int
    victim_records: int
    victim_hits: int
    lookup_retries: int
    restores: int
    scrub_corrected: int
    scrub_quarantined: int
    unrecoverable_rows: int

    @property
    def amal_penalty(self) -> float:
        """Extra bucket reads per lookup attributable to faults."""
        return self.faulty_amal - self.clean_amal

    @property
    def latency_penalty(self) -> float:
        """Faulty/clean wall-clock ratio for the same query stream."""
        if self.clean_seconds <= 0:
            return 1.0
        return self.faulty_seconds / self.clean_seconds

    def as_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "queries": self.queries,
            "silent_wrong": self.silent_wrong,
            "clean_amal": self.clean_amal,
            "faulty_amal": self.faulty_amal,
            "amal_penalty": self.amal_penalty,
            "clean_seconds": self.clean_seconds,
            "faulty_seconds": self.faulty_seconds,
            "latency_penalty": self.latency_penalty,
            "faults_injected": self.faults_injected,
            "ecc_corrections": self.ecc_corrections,
            "corruption_detections": self.corruption_detections,
            "quarantines": self.quarantines,
            "victim_records": self.victim_records,
            "victim_hits": self.victim_hits,
            "lookup_retries": self.lookup_retries,
            "restores": self.restores,
            "scrub_corrected": self.scrub_corrected,
            "scrub_quarantined": self.scrub_quarantined,
            "unrecoverable_rows": self.unrecoverable_rows,
        }


@dataclass
class SoakReport:
    """One fault rate across every requested workload."""

    bit_flip_rate: float
    seed: int
    workloads: List[WorkloadReport] = field(default_factory=list)

    @property
    def silent_wrong(self) -> int:
        return sum(w.silent_wrong for w in self.workloads)

    def as_dict(self) -> Dict[str, object]:
        return {
            "bit_flip_rate": self.bit_flip_rate,
            "seed": self.seed,
            "silent_wrong": self.silent_wrong,
            "workloads": [w.as_dict() for w in self.workloads],
        }


# ----------------------------------------------------------------------
# The soak loop
# ----------------------------------------------------------------------


def _answer(result) -> Tuple[bool, Optional[int]]:
    return (result.hit, result.data if result.hit else None)


def _run_queries(group, queries, block: int, manager,
                 scrub_every: int) -> Tuple[List[Tuple[bool, Optional[int]]], float]:
    """Replay the stream in alternating scalar/batch blocks, scrubbing
    every ``scrub_every`` blocks when a manager is armed.  ``queries`` is
    a list of ints or a key-word matrix; scalar blocks search ints."""
    answers: List[Tuple[bool, Optional[int]]] = []
    started = time.perf_counter()
    for index, start in enumerate(range(0, len(queries), block)):
        chunk = queries[start : start + block]
        if index % 2 == 0:
            if isinstance(chunk, np.ndarray):
                chunk = words_to_ints(chunk)
            answers.extend(_answer(group.search(key)) for key in chunk)
        else:
            answers.extend(_answer(r) for r in group.search_batch(chunk))
        if manager is not None and scrub_every and (index + 1) % scrub_every == 0:
            manager.scrub()
    return answers, time.perf_counter() - started


def run_soak(
    workload: str,
    bit_flip_rate: float,
    queries: int = DEFAULT_QUERIES,
    seed: int = 7,
    policy: Optional[ReliabilityPolicy] = None,
    stuck_cells: int = 4,
    dead_rows: int = 2,
    scrub_every: int = 4,
    block: int = DEFAULT_BLOCK,
) -> WorkloadReport:
    """Soak one workload at one fault rate; see the module docstring.

    Returns the workload's report; ``silent_wrong`` is the number of
    lookups whose faulty-run answer differs from the pre-fault key.
    """
    if workload not in _BUILDERS:
        raise ConfigurationError(
            f"unknown soak workload {workload!r}; "
            f"choose from {sorted(_BUILDERS)}"
        )
    if queries <= 0:
        raise ConfigurationError(f"queries must be positive: {queries}")
    if policy is None:
        # The default policy's victim store is sized for sparse hard
        # faults; a long soak needs headroom for escalated buckets.  The
        # retry budget is raised too: at the top of the swept rate range a
        # wide row sees a non-trivial per-read detect probability, and the
        # soak's job is to *measure* that degradation (retries show up in
        # the AMAL/latency penalty), not to abort on it.
        policy = ReliabilityPolicy(victim_capacity=4096, max_retries=16)
    group, stream = _BUILDERS[workload](seed, queries)

    expected, clean_seconds = _run_queries(group, stream, block, None, 0)
    clean_amal = group.stats.amal
    group.stats.reset()

    faults = FaultConfig(
        seed=seed ^ 0x5EED,
        bit_flip_rate=bit_flip_rate,
        stuck_cell_count=stuck_cells,
        dead_row_count=dead_rows,
    )
    manager = group.enable_reliability(policy, faults)
    observed, faulty_seconds = _run_queries(
        group, stream, block, manager, scrub_every
    )
    scrub_totals = manager.scrub()

    silent_wrong = sum(
        1 for got, want in zip(observed, expected) if got != want
    )
    stats = group.stats
    reliability = manager.as_dict()
    report = WorkloadReport(
        name=workload,
        queries=len(stream),
        silent_wrong=silent_wrong,
        clean_amal=clean_amal,
        faulty_amal=stats.amal,
        clean_seconds=clean_seconds,
        faulty_seconds=faulty_seconds,
        faults_injected=stats.faults_injected,
        ecc_corrections=stats.ecc_corrections,
        corruption_detections=stats.corruption_detections,
        quarantines=stats.quarantines,
        victim_records=stats.victim_records,
        victim_hits=stats.victim_hits,
        lookup_retries=stats.lookup_retries,
        restores=int(reliability["restores"]),
        scrub_corrected=int(scrub_totals["corrected"]),
        scrub_quarantined=int(scrub_totals["quarantined"]),
        unrecoverable_rows=int(reliability["unrecoverable_rows"]),
    )
    group.disable_reliability()
    return report


def run_soak_sweep(
    rates: Sequence[float] = DEFAULT_RATES,
    workloads: Sequence[str] = _WORKLOAD_NAMES,
    queries: int = DEFAULT_QUERIES,
    seed: int = 7,
    policy: Optional[ReliabilityPolicy] = None,
    stuck_cells: int = 4,
    dead_rows: int = 2,
    scrub_every: int = 4,
    block: int = DEFAULT_BLOCK,
) -> List[SoakReport]:
    """Sweep fault rates over the requested workloads.

    One :class:`SoakReport` per rate, each holding one
    :class:`WorkloadReport` per workload — the raw material of the
    AMAL/latency penalty curve.
    """
    reports = []
    for rate in rates:
        report = SoakReport(bit_flip_rate=float(rate), seed=seed)
        for name in workloads:
            report.workloads.append(
                run_soak(
                    name,
                    float(rate),
                    queries=queries,
                    seed=seed,
                    policy=policy,
                    stuck_cells=stuck_cells,
                    dead_rows=dead_rows,
                    scrub_every=scrub_every,
                    block=block,
                )
            )
        reports.append(report)
    return reports


def format_sweep_table(reports: Sequence[SoakReport]) -> str:
    """Render the penalty curve as an aligned text table."""
    header = (
        f"{'rate':>9} {'workload':>9} {'queries':>8} {'silent':>7} "
        f"{'AMAL':>7} {'+AMAL':>7} {'latency':>8} {'corr':>6} "
        f"{'detect':>7} {'quar':>5} {'retry':>6}"
    )
    lines = [header, "-" * len(header)]
    for report in reports:
        for w in report.workloads:
            lines.append(
                f"{report.bit_flip_rate:>9.1e} {w.name:>9} "
                f"{w.queries:>8} {w.silent_wrong:>7} "
                f"{w.faulty_amal:>7.3f} {w.amal_penalty:>+7.3f} "
                f"{w.latency_penalty:>7.2f}x {w.ecc_corrections:>6} "
                f"{w.corruption_detections:>7} {w.quarantines:>5} "
                f"{w.lookup_retries:>6}"
            )
    return "\n".join(lines)


__all__ = [
    "DEFAULT_BLOCK",
    "DEFAULT_QUERIES",
    "DEFAULT_RATES",
    "SoakReport",
    "WorkloadReport",
    "format_sweep_table",
    "run_soak",
    "run_soak_sweep",
]
