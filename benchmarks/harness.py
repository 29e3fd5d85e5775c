"""Shared benchmark harness: telemetry-routed ``BENCH_*.json`` output.

Every benchmark script builds a plain payload dict exactly as before — the
top-level keys are load-bearing (CI gates read them) — and hands it to
:func:`finalize`, which attaches whatever telemetry instruments the run
used under a single ``"telemetry"`` key and writes the file.  Keeping the
telemetry nested means existing consumers (``ci.yml`` gates,
``compare_telemetry`` baselines) keep working while every bench report
gains the registry snapshot, per-phase wall times, and trace summary.
"""

import json
from pathlib import Path
from typing import Dict, Optional

REPO_ROOT = Path(__file__).resolve().parent.parent


def result_path(name: str) -> Path:
    """Repository-root path of a ``BENCH_<name>.json`` report."""
    return REPO_ROOT / f"BENCH_{name}.json"


def collect_telemetry(
    registry=None, profiler=None, tracer=None
) -> Dict[str, object]:
    """Fold the attached instruments into one JSON-serializable block."""
    telemetry: Dict[str, object] = {}
    if registry is not None:
        telemetry["metrics"] = registry.snapshot()
    if profiler is not None:
        phases = profiler.as_dict()
        if phases:
            telemetry["phases"] = phases
    if tracer is not None:
        telemetry["trace"] = tracer.summary()
    return telemetry


def finalize(
    path: Path,
    payload: Dict[str, object],
    registry=None,
    profiler=None,
    tracer=None,
    telemetry: Optional[Dict[str, object]] = None,
    metadata: Optional[Dict[str, object]] = None,
    topology: Optional[Dict[str, object]] = None,
) -> Dict[str, object]:
    """Write a bench report, with telemetry nested under ``"telemetry"``.

    The payload's own keys are written untouched (CI gates index into
    them); pass the run's instruments — or a pre-built ``telemetry``
    block — to attach the observability data.

    ``metadata`` records the run *configuration* (e.g. the result
    representation) under a single ``"metadata"`` key.  The telemetry
    differ ignores it as measurement but refuses to compare two reports
    whose metadata disagrees — a materializing run diffed against a
    columnar baseline is a config change, not a regression.

    ``topology`` nests the shard layout (shard count, router class...)
    under ``metadata["topology"]``.  It is
    plain metadata as far as the differ is concerned — two reports with
    different topologies refuse to diff — but giving it its own key keeps
    sharded-serving reports self-describing and greppable.

    Every report carries at least ``metadata.benchmark`` (derived from the
    file name), so all ``BENCH_*.json`` are self-identifying and the
    differ can refuse cross-benchmark comparisons.  Only deterministic
    configuration belongs here — a timestamp would make every rerun
    incomparable with its own baseline.
    """
    out = dict(payload)
    full_metadata: Dict[str, object] = {
        "benchmark": path.stem.removeprefix("BENCH_"),
    }
    if metadata:
        full_metadata.update(metadata)
    if topology:
        full_metadata["topology"] = dict(topology)
    out["metadata"] = full_metadata
    block = dict(telemetry) if telemetry else {}
    block.update(collect_telemetry(registry, profiler, tracer))
    if block:
        out["telemetry"] = block
    path.write_text(json.dumps(out, indent=2) + "\n")
    return out
