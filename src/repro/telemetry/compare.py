"""Diff two telemetry snapshots and flag regressions mechanically.

``compare_telemetry`` consumes two snapshot dicts (as produced by
:meth:`~repro.telemetry.metrics.MetricsRegistry.snapshot`, the benchmark
harness, or any nested JSON of numeric leaves), flattens them to dotted
paths, and classifies every changed leaf:

* most metrics are **costs** (AMAL, bucket accesses, per-phase seconds,
  spill counts): an increase beyond the threshold is a regression;
* metrics whose path ends in a known **goodness** suffix (``per_sec``,
  ``speedup``, ``hit_rate``, ``throughput``): a *decrease* beyond the
  threshold is a regression.

The output is a :class:`ComparisonReport` listing regressions,
improvements, and leaves added/removed between the runs — the artifact the
CI job and the ``repro telemetry diff`` subcommand print, so perf drifts
in the batch/bulk paths are caught by a diff, not by eyeballing stdout.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.errors import ConfigurationError
from repro.telemetry.histogram import is_sketch_dict

#: Leaf-name suffixes where higher is better (a drop is the regression).
GOODNESS_SUFFIXES = ("per_sec", "speedup", "hit_rate", "throughput")

#: Sketch-dict keys that encode the histogram rather than measure it.
_SKETCH_ENCODING_KEYS = frozenset(
    {"kind", "buckets", "relative_error", "zero_count"}
)

#: Default relative-change threshold (5%).
DEFAULT_THRESHOLD = 0.05


class IncomparableRunsError(ConfigurationError):
    """The two snapshots were produced under different configurations.

    Raised when both snapshots carry a top-level ``"metadata"`` block (the
    benchmark harness writes the run's benchmark name, result
    representation and shard topology there) and the blocks disagree —
    diffing a 4-shard run against a 1-shard baseline would report a
    config change as a perf delta, so the comparison is refused outright.
    """


def flatten_numeric(tree: Dict, prefix: str = "") -> Dict[str, float]:
    """Flatten a nested dict to ``{dotted.path: value}`` numeric leaves.

    Booleans and strings are skipped — the diff is over measurements, not
    configuration echoes.  For the same reason the top-level ``metadata``
    block (run configuration written by the benchmark harness) is excluded
    wholesale; :func:`compare_telemetry` checks it for *equality* instead.
    """
    flat: Dict[str, float] = {}
    for key, value in tree.items():
        if not prefix and key == "metadata":
            continue
        path = f"{prefix}.{key}" if prefix else str(key)
        if is_sketch_dict(value):
            # Diff a latency sketch by its summary leaves (count, mean,
            # percentiles).  The internal bucket map is an encoding
            # detail: any shift in the observed values renumbers bucket
            # indices wholesale, which would read as leaves appearing
            # from zero rather than as the percentile movement it is.
            for leaf, number in value.items():
                if leaf in _SKETCH_ENCODING_KEYS:
                    continue
                if isinstance(number, (int, float)) and not isinstance(
                    number, bool
                ):
                    flat[f"{path}.{leaf}"] = float(number)
        elif isinstance(value, dict):
            flat.update(flatten_numeric(value, path))
        elif isinstance(value, bool):
            continue
        elif isinstance(value, (int, float)):
            flat[path] = float(value)
    return flat


def is_goodness_metric(path: str) -> bool:
    """True when a larger value of this leaf is *better*."""
    leaf = path.rsplit(".", 1)[-1]
    return any(leaf.endswith(suffix) for suffix in GOODNESS_SUFFIXES)


@dataclass(frozen=True)
class MetricDelta:
    """One changed numeric leaf between two snapshots."""

    path: str
    baseline: float
    current: float
    #: Signed relative change, ``(current - baseline) / |baseline|``
    #: (``inf`` when the baseline is zero and the value appeared).
    change: float
    #: True when the change direction is the bad one for this metric.
    regression: bool

    def describe(self) -> str:
        if math.isinf(self.change):
            magnitude = "from zero"
        else:
            magnitude = f"{self.change:+.1%}"
        tag = "REGRESSION" if self.regression else "improvement"
        return (
            f"{tag:<11} {self.path}: "
            f"{self.baseline:g} -> {self.current:g} ({magnitude})"
        )


@dataclass
class ComparisonReport:
    """Everything that moved between two snapshots, classified."""

    threshold: float
    regressions: List[MetricDelta] = field(default_factory=list)
    improvements: List[MetricDelta] = field(default_factory=list)
    unchanged: int = 0
    added: List[str] = field(default_factory=list)
    removed: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when nothing regressed beyond the threshold."""
        return not self.regressions

    def as_dict(self) -> Dict[str, object]:
        return {
            "threshold": self.threshold,
            "ok": self.ok,
            "regressions": [vars(d) for d in self.regressions],
            "improvements": [vars(d) for d in self.improvements],
            "unchanged": self.unchanged,
            "added": self.added,
            "removed": self.removed,
        }

    def format(self) -> str:
        lines = [
            f"telemetry diff (threshold {self.threshold:.1%}): "
            f"{len(self.regressions)} regression(s), "
            f"{len(self.improvements)} improvement(s), "
            f"{self.unchanged} leaf/leaves unchanged"
        ]
        for delta in self.regressions + self.improvements:
            lines.append("  " + delta.describe())
        if self.added:
            lines.append(f"  added: {', '.join(self.added)}")
        if self.removed:
            lines.append(f"  removed: {', '.join(self.removed)}")
        return "\n".join(lines)


def compare_telemetry(
    baseline: Dict,
    current: Dict,
    threshold: float = DEFAULT_THRESHOLD,
) -> ComparisonReport:
    """Diff two snapshot trees; flag changes beyond ``threshold``.

    Args:
        baseline / current: nested dicts of numeric leaves (snapshots,
            ``BENCH_*.json`` payloads, phase tables...).
        threshold: relative change that counts as a regression (or an
            improvement) — smaller moves land in ``unchanged``.

    Raises:
        IncomparableRunsError: both snapshots carry a ``"metadata"``
            config block and the blocks differ — the runs measured
            different configurations and a numeric diff would be
            meaningless.
    """
    base_meta = baseline.get("metadata")
    cur_meta = current.get("metadata")
    if (
        isinstance(base_meta, dict)
        and isinstance(cur_meta, dict)
        and base_meta != cur_meta
    ):
        diffs = []
        for key in sorted(set(base_meta) | set(cur_meta)):
            left = base_meta.get(key, "<absent>")
            right = cur_meta.get(key, "<absent>")
            if left != right:
                diffs.append(f"{key}: {left!r} != {right!r}")
        raise IncomparableRunsError(
            "refusing to diff runs with different configurations "
            f"({'; '.join(diffs)})"
        )
    base_flat = flatten_numeric(baseline)
    cur_flat = flatten_numeric(current)
    report = ComparisonReport(threshold=threshold)
    report.added = sorted(set(cur_flat) - set(base_flat))
    report.removed = sorted(set(base_flat) - set(cur_flat))

    for path in sorted(set(base_flat) & set(cur_flat)):
        base, cur = base_flat[path], cur_flat[path]
        if base == cur:
            report.unchanged += 1
            continue
        if base == 0.0:
            change = math.inf if cur > 0 else -math.inf
        else:
            change = (cur - base) / abs(base)
        if abs(change) <= threshold:
            report.unchanged += 1
            continue
        goodness = is_goodness_metric(path)
        worse = (change < 0) if goodness else (change > 0)
        delta = MetricDelta(
            path=path,
            baseline=base,
            current=cur,
            change=change,
            regression=worse,
        )
        (report.regressions if worse else report.improvements).append(delta)

    report.regressions.sort(key=lambda d: -abs(d.change))
    report.improvements.sort(key=lambda d: -abs(d.change))
    return report


def load_snapshot(path) -> Dict:
    """Read one snapshot/benchmark JSON file."""
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point: ``compare_telemetry baseline.json current.json``."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="compare_telemetry",
        description="diff two telemetry snapshots and flag regressions",
    )
    parser.add_argument("baseline", help="baseline snapshot JSON")
    parser.add_argument("current", help="current snapshot JSON")
    parser.add_argument(
        "--threshold",
        type=float,
        default=DEFAULT_THRESHOLD,
        help="relative change flagged as a regression (default 0.05)",
    )
    args = parser.parse_args(argv)
    try:
        report = compare_telemetry(
            load_snapshot(args.baseline),
            load_snapshot(args.current),
            threshold=args.threshold,
        )
    except IncomparableRunsError as exc:
        print(f"error: {exc}")
        return 2
    print(report.format())
    return 0 if report.ok else 1


__all__ = [
    "IncomparableRunsError",
    "MetricDelta",
    "ComparisonReport",
    "compare_telemetry",
    "flatten_numeric",
    "is_goodness_metric",
    "load_snapshot",
    "main",
    "DEFAULT_THRESHOLD",
    "GOODNESS_SUFFIXES",
]

if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
