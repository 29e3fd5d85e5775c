"""Uniform metrics registry: counters, gauges, histograms, stat providers.

The stack's counters live where they are cheapest to maintain —
:class:`~repro.core.stats.SearchStats` on slices and groups,
:class:`~repro.memory.array.ArrayStats` on memory arrays, planner totals on
:class:`~repro.core.bulk.BulkTotals` — but every experiment wants the same
thing from them: one structured, diffable snapshot of *everything* that
moved during a run.  A :class:`MetricsRegistry` is that aggregation point:

* explicit instruments — :class:`CounterMetric` (monotonic),
  :class:`GaugeMetric` (point-in-time value), :class:`HistogramMetric`
  (exact integer-valued distribution, like the AMAL access histogram);
* registered *providers* — any object (or zero-argument callable) exposing
  ``as_dict()``, mounted under a dotted prefix and re-read at snapshot
  time, so component-owned stats stay component-owned;
* ``snapshot()`` / ``as_dict()`` — one plain-dict export with stable keys,
  which :mod:`repro.telemetry.compare` diffs across runs and the benchmark
  harness embeds into ``BENCH_*.json`` artifacts.
"""

from __future__ import annotations

import json
from collections import Counter
from typing import Callable, Dict, Optional, Union

from repro.errors import ConfigurationError


class CounterMetric:
    """A monotonically increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ConfigurationError(
                f"counter {self.name!r} cannot decrease (inc {amount})"
            )
        self.value += amount

    def reset(self) -> None:
        self.value = 0


class GaugeMetric:
    """A point-in-time value (load factor, record count, ...)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: Union[int, float] = 0

    def set(self, value: Union[int, float]) -> None:
        self.value = value

    def reset(self) -> None:
        self.value = 0


class HistogramMetric:
    """An exact distribution over integer-valued observations.

    Mirrors the paper's access-count histograms: the full shape is kept
    (a ``Counter``), not quantile sketches — behavioral runs are small
    enough that exactness is affordable and diffs stay deterministic.
    """

    __slots__ = ("name", "counts")

    def __init__(self, name: str) -> None:
        self.name = name
        self.counts: Counter = Counter()

    def observe(self, value: int, count: int = 1) -> None:
        if count < 0:
            raise ConfigurationError(
                f"histogram {self.name!r} observation count must be >= 0"
            )
        if count:
            self.counts[int(value)] += count

    def observe_many(self, values) -> None:
        """Fold a whole array/sequence of observations in at once."""
        self.counts.update(int(v) for v in values)

    @property
    def observations(self) -> int:
        return sum(self.counts.values())

    @property
    def total(self) -> int:
        return sum(value * count for value, count in self.counts.items())

    @property
    def mean(self) -> float:
        n = self.observations
        return self.total / n if n else 0.0

    @property
    def max(self) -> int:
        return max(self.counts) if self.counts else 0

    def reset(self) -> None:
        self.counts.clear()

    def as_dict(self) -> Dict[str, object]:
        return {
            "counts": {str(k): v for k, v in sorted(self.counts.items())},
            "observations": self.observations,
            "total": self.total,
            "mean": self.mean,
            "max": self.max,
        }


#: A provider is an object with ``as_dict()`` or a callable returning a dict.
Provider = Union[Callable[[], Dict[str, object]], object]


class MetricsRegistry:
    """Get-or-create instrument store plus provider mounts.

    Instrument names are dotted paths (``"batch.scalar_fallbacks"``); a
    name identifies exactly one instrument and one kind — asking for an
    existing name as a different kind raises ``ConfigurationError``.
    """

    def __init__(self) -> None:
        self._counters: Dict[str, CounterMetric] = {}
        self._gauges: Dict[str, GaugeMetric] = {}
        self._histograms: Dict[str, HistogramMetric] = {}
        self._providers: Dict[str, Provider] = {}

    # ------------------------------------------------------------------
    # Instruments
    # ------------------------------------------------------------------

    def _check_free(self, name: str, table: Dict) -> None:
        for kind, existing in (
            ("counter", self._counters),
            ("gauge", self._gauges),
            ("histogram", self._histograms),
        ):
            if existing is not table and name in existing:
                raise ConfigurationError(
                    f"metric {name!r} already registered as a {kind}"
                )

    def counter(self, name: str) -> CounterMetric:
        metric = self._counters.get(name)
        if metric is None:
            self._check_free(name, self._counters)
            metric = self._counters[name] = CounterMetric(name)
        return metric

    def gauge(self, name: str) -> GaugeMetric:
        metric = self._gauges.get(name)
        if metric is None:
            self._check_free(name, self._gauges)
            metric = self._gauges[name] = GaugeMetric(name)
        return metric

    def histogram(self, name: str) -> HistogramMetric:
        metric = self._histograms.get(name)
        if metric is None:
            self._check_free(name, self._histograms)
            metric = self._histograms[name] = HistogramMetric(name)
        return metric

    # ------------------------------------------------------------------
    # Providers (component-owned stats)
    # ------------------------------------------------------------------

    def register_provider(self, prefix: str, provider: Provider) -> None:
        """Mount an ``as_dict()``-bearing object (or dict factory) under a
        dotted prefix; it is re-read on every :meth:`snapshot`."""
        if not prefix:
            raise ConfigurationError("provider prefix must be non-empty")
        if prefix in self._providers:
            raise ConfigurationError(
                f"provider prefix {prefix!r} already registered"
            )
        if not callable(provider) and not hasattr(provider, "as_dict"):
            raise ConfigurationError(
                f"provider for {prefix!r} needs as_dict() or to be callable"
            )
        self._providers[prefix] = provider

    def unregister_provider(self, prefix: str) -> None:
        self._providers.pop(prefix, None)

    @property
    def provider_prefixes(self):
        return sorted(self._providers)

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        """One structured, JSON-serializable view of everything registered."""
        stats: Dict[str, Dict[str, object]] = {}
        for prefix in sorted(self._providers):
            provider = self._providers[prefix]
            if callable(provider):
                stats[prefix] = dict(provider())
            else:
                stats[prefix] = dict(provider.as_dict())
        return {
            "counters": {
                name: metric.value
                for name, metric in sorted(self._counters.items())
            },
            "gauges": {
                name: metric.value
                for name, metric in sorted(self._gauges.items())
            },
            "histograms": {
                name: metric.as_dict()
                for name, metric in sorted(self._histograms.items())
            },
            "stats": stats,
        }

    def as_dict(self) -> Dict[str, object]:
        """Alias of :meth:`snapshot` (the uniform export spelling)."""
        return self.snapshot()

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.snapshot(), indent=indent, sort_keys=False)

    def reset(self) -> None:
        """Zero every owned instrument (providers reset themselves)."""
        for table in (self._counters, self._gauges, self._histograms):
            for metric in table.values():
                metric.reset()


__all__ = [
    "CounterMetric",
    "GaugeMetric",
    "HistogramMetric",
    "MetricsRegistry",
]
