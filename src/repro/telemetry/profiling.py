"""Phase-scoped wall-time profiling for the vectorized pipelines.

The batch/bulk fast paths are staged (index generation, home matching,
probe walk, row encoding, DMA install); knowing *which* stage a regression
lives in is the difference between a five-minute fix and an afternoon of
bisection.  :class:`PhaseProfiler` accumulates wall time and call counts
per named phase through a ``with profile("phase"):`` context manager.

Profiling is **off by default** and near-free when disabled: the module
singleton hands back one shared no-op context manager, so an instrumented
stage costs a method call and a ``with`` enter/exit — nothing measurable
against the NumPy work the stages do.  Pipelines call the module-level
:func:`profile` helper, which routes through the singleton; benchmarks and
the CLI enable it around a workload and read :meth:`PhaseProfiler.as_dict`
into their reports.

Phases may nest (``bulk-build`` around ``bulk-plan`` + ``bulk-encode``);
each phase accumulates its own inclusive wall time, so nested totals
overlap by design — the report is a per-phase profile, not a flame graph.
"""

from __future__ import annotations

import time
from typing import Dict, Optional

from repro.errors import ConfigurationError


class _NullSpan:
    """Shared do-nothing context manager for disabled profilers."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class _Span:
    """One timed entry of a phase (supports re-entrant nesting)."""

    __slots__ = ("_profiler", "_phase", "_start")

    def __init__(self, profiler: "PhaseProfiler", phase: str) -> None:
        self._profiler = profiler
        self._phase = phase
        self._start = 0.0

    def __enter__(self) -> "_Span":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        self._profiler._record(
            self._phase, time.perf_counter() - self._start
        )
        return False


class PhaseProfiler:
    """Accumulated wall time and call counts per named phase."""

    def __init__(self, enabled: bool = False) -> None:
        self.enabled = enabled
        self._seconds: Dict[str, float] = {}
        self._calls: Dict[str, int] = {}

    def profile(self, phase: str):
        """Context manager timing one entry of ``phase`` (no-op when
        disabled)."""
        if not self.enabled:
            return _NULL_SPAN
        return _Span(self, phase)

    def _record(self, phase: str, seconds: float) -> None:
        self._seconds[phase] = self._seconds.get(phase, 0.0) + seconds
        self._calls[phase] = self._calls.get(phase, 0) + 1

    def reset(self) -> None:
        self._seconds.clear()
        self._calls.clear()

    @property
    def phases(self):
        return sorted(self._seconds)

    def seconds(self, phase: str) -> float:
        return self._seconds.get(phase, 0.0)

    def calls(self, phase: str) -> int:
        return self._calls.get(phase, 0)

    def as_dict(self) -> Dict[str, Dict[str, float]]:
        """``{phase: {"seconds": ..., "calls": ...}}``, phases sorted."""
        return {
            phase: {"seconds": self._seconds[phase], "calls": self._calls[phase]}
            for phase in sorted(self._seconds)
        }


#: The process-wide profiler the instrumented pipelines report into.
_DEFAULT = PhaseProfiler(enabled=False)


def get_profiler() -> PhaseProfiler:
    """The module singleton behind :func:`profile`."""
    return _DEFAULT


def set_profiler(profiler: PhaseProfiler) -> PhaseProfiler:
    """Swap the singleton (tests install a private one); returns the old."""
    global _DEFAULT
    if profiler is None:
        raise ConfigurationError("profiler must not be None")
    previous = _DEFAULT
    _DEFAULT = profiler
    return previous


def profile(phase: str):
    """Time one entry of ``phase`` against the process-wide profiler."""
    return _DEFAULT.profile(phase)


class enabled_profiler:
    """Scoped enable: ``with enabled_profiler() as prof:`` runs a workload
    with a fresh singleton profiler and restores the previous one after."""

    def __init__(self) -> None:
        self._profiler = PhaseProfiler(enabled=True)
        self._previous: Optional[PhaseProfiler] = None

    def __enter__(self) -> PhaseProfiler:
        self._previous = set_profiler(self._profiler)
        return self._profiler

    def __exit__(self, *exc) -> bool:
        set_profiler(self._previous)
        return False


__all__ = [
    "PhaseProfiler",
    "get_profiler",
    "set_profiler",
    "profile",
    "enabled_profiler",
]
