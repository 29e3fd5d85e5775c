"""Uniform metrics registry: component-owned stat providers.

The stack's counters live where they are cheapest to maintain —
:class:`~repro.core.stats.SearchStats` on slices and groups,
:class:`~repro.memory.array.ArrayStats` on memory arrays, planner totals on
:class:`~repro.core.bulk.BulkTotals` — but every experiment wants the same
thing from them: one structured, diffable snapshot of *everything* that
moved during a run.  A :class:`MetricsRegistry` is that aggregation point.
It owns no metric of its own: each *provider* — any object (or
zero-argument callable) exposing ``as_dict()`` — mounts under a dotted
prefix and is re-read at snapshot time, so component-owned stats stay
component-owned, and an aggregate (a cluster's summed search stats) is
the component's own merge mounted like any other block.

``snapshot()`` is the one plain-dict export, ``{"stats": {prefix:
block}}``, which :mod:`repro.telemetry.compare` diffs across runs and the
benchmark harness embeds into ``BENCH_*.json`` artifacts.
"""

from __future__ import annotations

from typing import Callable, Dict, Union

from repro.errors import ConfigurationError

#: A provider is an object with ``as_dict()`` or a callable returning a dict.
Provider = Union[Callable[[], Dict[str, object]], object]


class MetricsRegistry:
    """Provider mounts under dotted prefixes, read on every snapshot."""

    def __init__(self) -> None:
        self._providers: Dict[str, Provider] = {}

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

    def snapshot(self) -> Dict[str, object]:
        """``{"stats": {prefix: block}}``: every provider's current dict,
        prefixes sorted; JSON-serializable."""
        stats: Dict[str, Dict[str, object]] = {}
        for prefix in sorted(self._providers):
            provider = self._providers[prefix]
            if callable(provider):
                stats[prefix] = dict(provider())
            else:
                stats[prefix] = dict(provider.as_dict())
        return {"stats": stats}


__all__ = ["MetricsRegistry"]
