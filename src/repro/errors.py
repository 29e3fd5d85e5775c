"""Exception hierarchy for the CA-RAM reproduction library.

All library-specific errors derive from :class:`CaRamError` so callers can
catch a single base class.  Subclasses mirror the failure modes the paper
discusses: configuration mistakes, capacity exhaustion (a database that does
not fit even with probing), protocol misuse of the slice/subsystem
interfaces, and — with the reliability layer — detected memory corruption.

Every class carries a distinct :attr:`~CaRamError.exit_code` so the CLI can
map failures to stable, scriptable process exit statuses (``repro ...``
never exits 0 on a library error, and different failure classes are
distinguishable from shell).

Errors that replaced historical ad-hoc ``ValueError`` raises
(:class:`ConfigurationError`, :class:`KeyFormatError`,
:class:`RamModeError`) also inherit :class:`ValueError`, so existing
callers catching ``ValueError`` keep working.

``ReproError`` and ``ConfigError`` are short aliases of the base and
configuration classes.
"""

from __future__ import annotations

from typing import Optional


class CaRamError(Exception):
    """Base class for all errors raised by :mod:`repro`.

    Attributes:
        exit_code: the process exit status the CLI maps this class to.
    """

    exit_code = 1


class ConfigurationError(CaRamError, ValueError):
    """A structurally invalid configuration (bad widths, counts, or modes)."""

    exit_code = 3


class CapacityError(CaRamError):
    """The database cannot be stored: every candidate bucket is full."""

    exit_code = 4


class KeyFormatError(CaRamError, ValueError):
    """A key does not match the configured key width or ternary encoding."""

    exit_code = 5


class LookupError_(CaRamError):
    """A CAM-mode operation failed (e.g. deleting a key that is absent)."""

    exit_code = 6


class RamModeError(CaRamError, ValueError):
    """An invalid RAM-mode (address-based) access, e.g. out-of-range row."""

    exit_code = 7


class ReliabilityError(CaRamError):
    """The reliability layer cannot uphold its guarantees (e.g. a full
    victim store, or an exhausted retry budget)."""

    exit_code = 8


class CorruptionError(ReliabilityError):
    """An uncorrectable memory error was *detected* (never silent).

    Raised by the ECC row guard when a read's syndrome indicates a
    multi-bit error — the detect half of the detect-or-correct guarantee.

    Attributes:
        array_index: index of the failing physical array within its
            slice/group (``None`` when unknown).
        row: failing physical row within that array (``None`` when
            unknown).
    """

    exit_code = 9

    def __init__(
        self,
        message: str,
        array_index: Optional[int] = None,
        row: Optional[int] = None,
    ) -> None:
        super().__init__(message)
        self.array_index = array_index
        self.row = row


class HealthDegradedError(CaRamError):
    """The health monitor found warning-level findings (degraded service).

    Raised/mapped by ``repro telemetry health`` when at least one rule is
    in the WARN band and none is CRITICAL — scripts can distinguish
    "watch this" from "page someone" by exit code alone.
    """

    exit_code = 10


class HealthCriticalError(HealthDegradedError):
    """The health monitor found critical findings (SLO/integrity burn)."""

    exit_code = 11


class ServiceOverloadError(CaRamError):
    """The serving tier shed this request (admission control).

    Raised by :class:`~repro.serving.service.ShardedService` when a
    shard's pending queue is at capacity, or when a request arrives while
    the service is draining/closed.  Load shedding is explicit by design:
    a request is either answered or fails with this error — never silently
    dropped.

    Attributes:
        shard_id: the shard whose queue rejected the request (``None``
            when the whole service was unavailable).
    """

    exit_code = 12

    def __init__(self, message: str, shard_id: Optional[int] = None) -> None:
        super().__init__(message)
        self.shard_id = shard_id


class ShardUnavailableError(CaRamError):
    """No replica of a shard could answer within the failover policy.

    Raised by a shard's failover loop
    (:meth:`~repro.serving.cluster.CaramShard.resolve`, behind
    :class:`~repro.serving.service.ShardedService` and
    ``CaramCluster.search_batch``) when every replica of the owning shard
    is evicted, crashed, timed out, or errored through the retry
    budget — the whole shard is down, not just one copy; the last replica
    error is its ``__cause__``.  A failure that another replica absorbs
    never surfaces this error; it fails over.

    Attributes:
        shard_id: the logical shard whose replica set was exhausted
            (``None`` when unknown).
        attempts: how many replica calls were tried before giving up
            (``None`` when not applicable, e.g. a chaos-injected crash).
    """

    exit_code = 13

    def __init__(
        self,
        message: str,
        shard_id: Optional[int] = None,
        attempts: Optional[int] = None,
    ) -> None:
        super().__init__(message)
        self.shard_id = shard_id
        self.attempts = attempts


#: Alias of :class:`CaRamError` (the generic library-error spelling).
ReproError = CaRamError

#: Alias of :class:`ConfigurationError`.
ConfigError = ConfigurationError


__all__ = [
    "CaRamError",
    "ReproError",
    "ConfigurationError",
    "ConfigError",
    "CapacityError",
    "KeyFormatError",
    "LookupError_",
    "RamModeError",
    "ReliabilityError",
    "CorruptionError",
    "HealthDegradedError",
    "HealthCriticalError",
    "ServiceOverloadError",
    "ShardUnavailableError",
]
