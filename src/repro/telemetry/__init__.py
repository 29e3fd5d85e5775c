"""Telemetry: structured tracing, metrics registry, per-phase profiling.

The cross-cutting observability layer of the CA-RAM stack:

* :mod:`repro.telemetry.metrics` — :class:`MetricsRegistry`, which mounts
  component-owned stat providers (``SearchStats``, ``ArrayStats``,
  bulk-plan totals, a cluster's merged totals) and exports them via
  ``snapshot()``;
* :mod:`repro.telemetry.trace` — a ring-buffered typed-event
  :class:`Tracer` with pluggable sinks (in-memory, JSONL, null); off by
  default, one ``is None`` check on the hot paths when disabled, and
  stats-event streams replay to bit-identical counters;
* :mod:`repro.telemetry.profiling` — ``with profile(phase):`` wall-time
  accounting for the batch/bulk pipeline stages;
* :mod:`repro.telemetry.compare` — snapshot diffing that flags counter and
  timing regressions beyond a threshold;
* :mod:`repro.telemetry.histogram` — mergeable log-bucketed
  :class:`LatencyHistogram` quantile sketches (bounded relative error);
* :mod:`repro.telemetry.export` — Prometheus text exposition, a periodic
  JSONL sampler, and an opt-in stdlib HTTP scrape endpoint;
* :mod:`repro.telemetry.health` — rule-driven health monitor (occupancy
  drift, spill fraction, correction trend, latency SLO burn) with stable
  CLI exit codes.
"""

from repro.telemetry.compare import (
    ComparisonReport,
    IncomparableRunsError,
    MetricDelta,
    compare_telemetry,
    flatten_numeric,
    load_snapshot,
)
from repro.telemetry.export import (
    JsonlSampler,
    TelemetryServer,
    read_samples,
    render_prometheus,
    validate_exposition,
)
from repro.telemetry.health import (
    AmalDriftRule,
    CorrectionTrendRule,
    HealthFinding,
    HealthMonitor,
    HealthReport,
    HealthRule,
    LatencySLORule,
    SpillFractionRule,
    default_rules,
)
from repro.telemetry.histogram import (
    DEFAULT_RELATIVE_ERROR,
    LatencyHistogram,
    is_sketch_dict,
)
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.profiling import (
    PhaseProfiler,
    enabled_profiler,
    get_profiler,
    profile,
    set_profiler,
)
from repro.telemetry.workload import run_synthetic_workload
from repro.telemetry.trace import (
    InMemorySink,
    JsonlSink,
    NullSink,
    TraceEvent,
    TraceSink,
    Tracer,
    read_jsonl,
    replay_search_stats,
)

__all__ = [
    "MetricsRegistry",
    "Tracer",
    "TraceEvent",
    "TraceSink",
    "NullSink",
    "InMemorySink",
    "JsonlSink",
    "read_jsonl",
    "replay_search_stats",
    "PhaseProfiler",
    "profile",
    "get_profiler",
    "set_profiler",
    "enabled_profiler",
    "compare_telemetry",
    "ComparisonReport",
    "IncomparableRunsError",
    "MetricDelta",
    "flatten_numeric",
    "load_snapshot",
    "run_synthetic_workload",
    "LatencyHistogram",
    "DEFAULT_RELATIVE_ERROR",
    "is_sketch_dict",
    "render_prometheus",
    "validate_exposition",
    "JsonlSampler",
    "read_samples",
    "TelemetryServer",
    "HealthMonitor",
    "HealthReport",
    "HealthFinding",
    "HealthRule",
    "AmalDriftRule",
    "SpillFractionRule",
    "CorrectionTrendRule",
    "LatencySLORule",
    "default_rules",
]
