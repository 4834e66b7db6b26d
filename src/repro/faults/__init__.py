"""Fault injection and degraded-mode control (robustness plane).

The real MTM artifact runs against a kernel where ``move_pages()``
partially fails (EBUSY on pinned pages, ENOMEM under tier pressure), PEBS
ring buffers overflow, and profiling passes get preempted — yet the
daemon must keep converging.  This package provides the seeded,
deterministic :class:`FaultInjector` that stands in for those kernel
behaviors, and the :class:`IntervalWatchdog` that puts the daemon loop
into a degraded mode (shed migration budget, skip scans) instead of
letting a blown overhead budget or a fault burst crash the run.
"""

from repro.faults.injector import FaultConfig, FaultInjector, FaultLog
from repro.faults.watchdog import IntervalWatchdog, WatchdogConfig

__all__ = [
    "FaultConfig",
    "FaultInjector",
    "FaultLog",
    "IntervalWatchdog",
    "WatchdogConfig",
]
