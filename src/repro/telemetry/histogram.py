"""Mergeable log-bucketed latency histograms with bounded relative error.

The paper's access histograms are exact integer counts
(:class:`~repro.core.stats.SearchStats` keeps them as a ``Counter``);
wall-clock latencies are not — their support is continuous and spans
orders of magnitude.  :class:`LatencyHistogram` is the serving-tier
complement: a DDSketch-style sketch whose buckets grow geometrically, so
every quantile estimate is within a configured **relative error** of the
exact sample quantile while the whole sketch stays a small sparse dict.

Design (the classic log-bucket scheme):

* pick ``gamma = (1 + e) / (1 - e)`` for relative error ``e``;
* a positive observation ``v`` lands in bucket ``ceil(log_gamma(v))``,
  i.e. bucket ``i`` covers ``(gamma**(i-1), gamma**i]``;
* the bucket's representative value ``2 * gamma**i / (gamma + 1)`` (the
  harmonic midpoint) is within ``e`` of every value in the bucket;
* zero (and negative, clamped) observations count in a dedicated zero
  bucket, reported as exactly ``0.0``.

Because a value's bucket depends only on ``gamma``, two sketches with the
same ``relative_error`` **merge by adding counts** — the bucket counts
merge exactly, commutatively and associatively, which is what lets
``SearchStats.merge`` fold per-replica sketches into one shard or cluster
distribution.

``as_dict()`` / :meth:`LatencyHistogram.from_dict` round-trip the full
sketch through JSON (the form snapshots and bench reports carry, and the
way to merge archived sketches: ``from_dict(a).merge(from_dict(b))``); the
exported dict also carries ready-made ``p50/p90/p99/p999`` leaves so
snapshot diffs (:mod:`repro.telemetry.compare`) see latency percentiles as
plain numeric metrics.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Sequence

from repro.errors import ConfigurationError

#: Default quantile relative-error bound (1%).
DEFAULT_RELATIVE_ERROR = 0.01

#: Quantiles exported by :meth:`LatencyHistogram.as_dict`.
EXPORTED_QUANTILES = ((0.5, "p50"), (0.9, "p90"), (0.99, "p99"), (0.999, "p999"))

#: Marker identifying a serialized sketch inside a snapshot (the export
#: and compare layers duck-type on it).
SKETCH_KIND = "latency_histogram"


class LatencyHistogram:
    """Log-bucketed quantile sketch with a fixed relative-error bound.

    Args:
        relative_error: guaranteed bound ``e`` — for every quantile ``q``,
            ``|percentile(q) - exact_q| <= e * exact_q`` (exact over the
            observed samples; zero observations are returned exactly).
    """

    __slots__ = ("relative_error", "_gamma", "_log_gamma", "counts",
                 "zero_count", "total", "min", "max")

    def __init__(self, relative_error: float = DEFAULT_RELATIVE_ERROR) -> None:
        if not 0.0 < relative_error < 1.0:
            raise ConfigurationError(
                f"relative_error must be in (0, 1), got {relative_error}"
            )
        self.relative_error = float(relative_error)
        self._gamma = (1.0 + relative_error) / (1.0 - relative_error)
        self._log_gamma = math.log(self._gamma)
        #: Sparse ``{bucket_index: count}`` over positive observations.
        self.counts: Dict[int, int] = {}
        self.zero_count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = 0.0

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    def _bucket(self, value: float) -> int:
        return math.ceil(math.log(value) / self._log_gamma)

    def observe(self, value: float) -> None:
        """Record one observation (negatives clamp to the zero bucket)."""
        value = float(value)
        if value <= 0.0:
            self.zero_count += 1
            self.min = min(self.min, 0.0)
            return
        index = self._bucket(value)
        self.counts[index] = self.counts.get(index, 0) + 1
        self.total += value
        self.min = min(self.min, value)
        self.max = max(self.max, value)

    def observe_many(self, values: Iterable[float]) -> None:
        for value in values:
            self.observe(value)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    @property
    def count(self) -> int:
        """Total observations recorded (zero bucket included)."""
        return self.zero_count + sum(self.counts.values())

    @property
    def mean(self) -> float:
        n = self.count
        return self.total / n if n else 0.0

    def _representative(self, index: int) -> float:
        return 2.0 * self._gamma ** index / (self._gamma + 1.0)

    def percentile(self, q: float) -> float:
        """The ``q``-quantile (``q`` in [0, 1]) of the observed values.

        Defined over ranks: the returned value approximates the
        ``max(1, ceil(q * n))``-th smallest observation within the
        configured relative error (exactly 0.0 for ranks inside the zero
        bucket).  Returns 0.0 on an empty sketch.
        """
        if not 0.0 <= q <= 1.0:
            raise ConfigurationError(f"quantile must be in [0, 1], got {q}")
        n = self.count
        if n == 0:
            return 0.0
        rank = max(1, math.ceil(q * n))
        if rank <= self.zero_count:
            return 0.0
        cumulative = self.zero_count
        for index in sorted(self.counts):
            cumulative += self.counts[index]
            if cumulative >= rank:
                return self._representative(index)
        return self._representative(max(self.counts))  # pragma: no cover

    def quantiles(self, qs: Sequence[float]) -> List[float]:
        """Batch :meth:`percentile` (one sorted-bucket walk per query)."""
        return [self.percentile(q) for q in qs]

    # ------------------------------------------------------------------
    # Merge (commutative, exact)
    # ------------------------------------------------------------------

    def merge(self, other: "LatencyHistogram") -> "LatencyHistogram":
        """Fold another sketch into this one (bucket-exact, commutative).

        Both sketches must share the same ``relative_error`` — bucket
        boundaries depend on it, so cross-error merges are refused rather
        than silently degraded.
        """
        if not math.isclose(self.relative_error, other.relative_error):
            raise ConfigurationError(
                "cannot merge latency histograms with different relative "
                f"errors ({self.relative_error} vs {other.relative_error})"
            )
        for index, count in other.counts.items():
            self.counts[index] = self.counts.get(index, 0) + count
        self.zero_count += other.zero_count
        self.total += other.total
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)
        return self

    def copy(self) -> "LatencyHistogram":
        out = LatencyHistogram(self.relative_error)
        out.counts = dict(self.counts)
        out.zero_count = self.zero_count
        out.total = self.total
        out.min = self.min
        out.max = self.max
        return out

    def reset(self) -> None:
        self.counts.clear()
        self.zero_count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = 0.0

    # ------------------------------------------------------------------
    # Serialization (JSON round-trip, cross-process shipping format)
    # ------------------------------------------------------------------

    def as_dict(self) -> Dict[str, object]:
        """JSON-serializable export with percentile leaves.

        The ``buckets`` block preserves the full sketch (for
        :meth:`from_dict` round-trips and merges); the ``p50/p90/p99/p999``
        leaves give snapshot diffs plain numeric percentile metrics.
        """
        out: Dict[str, object] = {
            "kind": SKETCH_KIND,
            "relative_error": self.relative_error,
            "count": self.count,
            "zero_count": self.zero_count,
            "sum": self.total,
            "mean": self.mean,
            "min": self.min if self.count else 0.0,
            "max": self.max,
            "buckets": {str(k): v for k, v in sorted(self.counts.items())},
        }
        for q, name in EXPORTED_QUANTILES:
            out[name] = self.percentile(q)
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "LatencyHistogram":
        """Rebuild a sketch serialized by :meth:`as_dict`."""
        out = cls(float(data["relative_error"]))
        out.counts = {int(k): int(v) for k, v in data["buckets"].items()}
        out.zero_count = int(data.get("zero_count", 0))
        out.total = float(data.get("sum", 0.0))
        out.max = float(data.get("max", 0.0))
        out.min = float(data.get("min", math.inf)) if out.count else math.inf
        return out


def is_sketch_dict(value: object) -> bool:
    """True when ``value`` is a serialized :class:`LatencyHistogram`."""
    return (
        isinstance(value, dict)
        and value.get("kind") == SKETCH_KIND
        and "buckets" in value
        and "relative_error" in value
    )


__all__ = [
    "LatencyHistogram",
    "DEFAULT_RELATIVE_ERROR",
    "EXPORTED_QUANTILES",
    "SKETCH_KIND",
    "is_sketch_dict",
]
