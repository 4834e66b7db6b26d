"""Exception hierarchy for the ``repro`` package.

Every error raised by the library derives from :class:`ReproError` so
callers can catch library failures without catching programming errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigError(ReproError):
    """An invalid configuration value was supplied."""


class CapacityError(ReproError):
    """A memory tier ran out of frames for an allocation that must succeed."""


class TranslationError(ReproError):
    """A virtual address could not be translated (no VMA / not mapped)."""


class MigrationError(ReproError):
    """A page migration request was invalid (bad tier, unmapped page...)."""


class ProfilingError(ReproError):
    """A profiler was driven incorrectly (e.g. results read before a scan)."""


class WorkloadError(ReproError):
    """A workload generator was configured or driven incorrectly."""


class TransientError(ReproError):
    """A recoverable runtime failure (the kernel said "not now").

    Transient errors carry structured context so recovery code (retry
    queues, degraded-mode accounting) can act on *where* the failure
    happened without parsing messages.

    Attributes:
        tier: component node id involved (-1 unknown).
        region: first page of the affected region (-1 unknown).
        interval: profiling interval the failure occurred in (-1 unknown).
    """

    def __init__(
        self,
        message: str,
        *,
        tier: int = -1,
        region: int = -1,
        interval: int = -1,
    ) -> None:
        super().__init__(message)
        self.tier = tier
        self.region = region
        self.interval = interval

    def context(self) -> dict[str, int]:
        """The structured context as a dict (logging, reports)."""
        return {"tier": self.tier, "region": self.region, "interval": self.interval}


class MigrationBusyError(TransientError, MigrationError):
    """Pages could not be moved right now (EBUSY: pinned, writeback)."""


class TierPressureError(TransientError, CapacityError):
    """A destination tier could not allocate (ENOMEM under pressure)."""


class SampleLossError(TransientError, ProfilingError):
    """A sampling buffer overflowed and dropped part of its window."""
