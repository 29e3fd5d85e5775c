"""Input controller: request/result queues and throughput simulation.

Section 3.2: "When a search request is submitted through the request port of
the CA-RAM memory subsystem, it is forwarded by the input controller to a
relevant CA-RAM slice. ... Multiple lookup actions can be simultaneously in
progress in different CA-RAM slices, leading to high search bandwidth.
Requests and results are both queued for achieving maximum bandwidth without
interruptions."

Two layers are provided:

* :class:`InputController` — a behavioral queue front-end over a
  :class:`~repro.core.subsystem.CARAMSubsystem`: submit requests (tagged),
  drain results in order.
* :class:`ThroughputSimulator` — a cycle-accounting model of the Section 3.4
  bandwidth equation ``B = N_slice / n_mem * f_clk``: requests dispatch one
  per cycle, each bucket access occupies its slice for ``n_mem`` cycles, and
  concurrent lookups overlap across slices.  The bench for §3.4 checks the
  simulated throughput against the closed form.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.core.index import KeyInput
from repro.core.results import SearchResult
from repro.core.subsystem import CARAMSubsystem, SliceGroup


@dataclass(frozen=True)
class Request:
    """One queued search request."""

    tag: int
    port: str
    key: KeyInput
    search_mask: int = 0


@dataclass(frozen=True)
class Response:
    """One completed search, matched to its request by tag."""

    tag: int
    result: SearchResult


class InputController:
    """FIFO request/result queues in front of a subsystem.

    Mirrors the memory-mapped port programming model: a store to the request
    port becomes :meth:`submit`, a load from the result port becomes
    :meth:`fetch_result`.
    """

    def __init__(self, subsystem: CARAMSubsystem, queue_depth: int = 64) -> None:
        if queue_depth <= 0:
            raise ConfigurationError(f"queue_depth must be positive: {queue_depth}")
        self._subsystem = subsystem
        self._depth = queue_depth
        self._requests: Deque[Request] = deque()
        self._results: Deque[Response] = deque()
        self._next_tag = 0

    @property
    def pending_requests(self) -> int:
        return len(self._requests)

    @property
    def pending_results(self) -> int:
        return len(self._results)

    def submit(self, port: str, key: KeyInput, search_mask: int = 0) -> int:
        """Enqueue a search; returns its tag.

        Raises:
            ConfigurationError: when the request queue is full (a real
                controller would apply back-pressure).
        """
        if len(self._requests) >= self._depth:
            raise ConfigurationError("request queue full")
        tag = self._next_tag
        self._next_tag += 1
        self._requests.append(Request(tag=tag, port=port, key=key, search_mask=search_mask))
        return tag

    def step(self) -> bool:
        """Process one queued request; returns False when idle."""
        if not self._requests:
            return False
        request = self._requests.popleft()
        result = self._subsystem.search_port(
            request.port, request.key, request.search_mask
        )
        self._results.append(Response(tag=request.tag, result=result))
        return True

    def drain(self) -> int:
        """Process every queued request; returns how many were handled."""
        handled = 0
        while self.step():
            handled += 1
        return handled

    def fetch_result(self) -> Optional[Response]:
        """Pop the oldest completed response, or None."""
        return self._results.popleft() if self._results else None


@dataclass
class ThroughputReport:
    """Outcome of a cycle-accounting throughput simulation.

    Attributes:
        requests: lookups simulated.
        cycles: total cycles until the last result.
        lookups_per_cycle: achieved throughput in lookups/cycle.
        lookups_per_second: achieved throughput at the device clock.
        theoretical_per_second: the §3.4 closed form
            ``N_slice / n_mem * f_clk`` (capped by the 1/cycle dispatch port).
        slice_busy_cycles: per-slice busy time (utilization numerator).
    """

    requests: int
    cycles: int
    lookups_per_cycle: float
    lookups_per_second: float
    theoretical_per_second: float
    slice_busy_cycles: List[int]

    @property
    def utilization(self) -> float:
        """Mean fraction of cycles the slices spent busy."""
        if not self.cycles or not self.slice_busy_cycles:
            return 0.0
        return sum(self.slice_busy_cycles) / (
            self.cycles * len(self.slice_busy_cycles)
        )


class ThroughputSimulator:
    """Cycle accounting for a stream of lookups over one slice group.

    Model (conservative, non-pipelined memory, matching §3.4):

    * one request dispatches per clock cycle (the request port);
    * a lookup makes ``accesses`` back-to-back bucket accesses, each holding
      the slices that hold the bucket (``geometry.rows_of``) for ``n_mem``
      cycles — one slice in a VERTICAL group, so independent lookups
      overlap across slices; every slice in a HORIZONTAL group.
    """

    def __init__(self, group: SliceGroup) -> None:
        self._group = group
        self._timing = group.config.timing

    def simulate(self, lookups: Sequence[Tuple[int, int]]) -> ThroughputReport:
        """Simulate ``(bucket, accesses)`` lookups submitted back-to-back.

        Args:
            lookups: per-lookup home bucket and bucket-access count (use 1
                for the common no-overflow case, or the per-record AMAL
                contribution from the analysis layer).
        """
        geometry = self._group.geometry
        n_mem = self._timing.cycle_between_accesses
        slice_free = [0] * geometry.slices
        busy = [0] * geometry.slices
        finish = 0

        for i, (bucket, accesses) in enumerate(lookups):
            if accesses <= 0:
                raise ConfigurationError("accesses must be positive")
            arrival = i  # one dispatch per cycle
            held = [s for s, _ in geometry.rows_of(bucket)]
            start = max([arrival] + [slice_free[s] for s in held])
            hold = accesses * n_mem
            for s in held:
                slice_free[s] = start + hold
                busy[s] += hold
            finish = max(finish, start + hold)

        cycles = max(finish, len(lookups))
        per_cycle = len(lookups) / cycles if cycles else 0.0
        # Buckets the slices can serve at once.
        independent = geometry.slices // geometry.rows_fetched
        theoretical = min(
            independent / n_mem * self._timing.clock_hz,
            self._timing.clock_hz,  # the 1-per-cycle dispatch port
        )
        return ThroughputReport(
            requests=len(lookups),
            cycles=cycles,
            lookups_per_cycle=per_cycle,
            lookups_per_second=per_cycle * self._timing.clock_hz,
            theoretical_per_second=theoretical,
            slice_busy_cycles=busy,
        )


__all__ = [
    "Request",
    "Response",
    "InputController",
    "ThroughputSimulator",
    "ThroughputReport",
]
