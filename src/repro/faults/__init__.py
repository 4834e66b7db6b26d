"""Fault injection and degraded-mode control (robustness plane).

The real MTM artifact runs against a kernel where ``move_pages()``
partially fails (EBUSY on pinned pages, ENOMEM under tier pressure), PEBS
ring buffers overflow, and profiling passes get preempted — yet the
daemon must keep converging.  This package provides the seeded,
deterministic :class:`FaultInjector` that stands in for those kernel
behaviors, and the :class:`IntervalWatchdog` that puts the daemon loop
into a degraded mode (shed migration budget, skip scans) instead of
letting a blown overhead budget or a fault burst crash the run.

:class:`ServiceFaultInjector` scripts *process*-level faults for the
sweep service (:mod:`repro.service`): SIGKILLed workers, between cells
or mid-cell, and byte-flipped cache entries, so the chaos suites can
assert a sweep under fire still produces results bit-identical to a
clean serial run.
"""

from repro.faults.injector import FaultConfig, FaultInjector, FaultLog
from repro.faults.service import ServiceFaultInjector
from repro.faults.watchdog import IntervalWatchdog, WatchdogConfig

__all__ = [
    "FaultConfig",
    "FaultInjector",
    "FaultLog",
    "IntervalWatchdog",
    "ServiceFaultInjector",
    "WatchdogConfig",
]
