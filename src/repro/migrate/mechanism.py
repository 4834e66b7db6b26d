"""Mechanism interface and timing records.

A mechanism computes *how long* moving a set of pages takes and how the
time splits between the critical path (the application is stalled or the
daemon occupies the move) and background work (helper threads overlapping
application execution).  The per-step breakdown feeds Figs. 3 and 11.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING

from repro.errors import ConfigError
from repro.sim.costmodel import CostModel

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.faults.injector import FaultInjector


@dataclass
class StepTimes:
    """Seconds per migration step (the paper's Fig. 3/11 categories)."""

    allocate: float = 0.0
    unmap_remap: float = 0.0
    copy: float = 0.0
    migrate_page_table: float = 0.0
    dirtiness_tracking: float = 0.0

    def total(self) -> float:
        # spelled out (not fields()-driven): this runs per timing() call,
        # and dataclasses.fields() introspection dominates the loop cost
        return (self.allocate + self.unmap_remap + self.copy
                + self.migrate_page_table + self.dirtiness_tracking)

    def as_dict(self) -> dict[str, float]:
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass
class MigrationTiming:
    """Outcome of one migration call.

    Attributes:
        critical: per-step times on the critical path.
        background: per-step times overlapped with the application.
        switched_to_sync: MTM's adaptive mechanism fell back to the
            synchronous copy because a write hit the region mid-copy.
        extra_copied_pages: pages copied more than once (async re-copy).
    """

    critical: StepTimes = field(default_factory=StepTimes)
    background: StepTimes = field(default_factory=StepTimes)
    switched_to_sync: bool = False
    extra_copied_pages: int = 0

    @property
    def critical_time(self) -> float:
        return self.critical.total()

    @property
    def background_time(self) -> float:
        return self.background.total()


class Mechanism(abc.ABC):
    """Common contract for migration mechanisms.

    Mechanisms compute timing only; applying the move to the page table
    and frame accounting is the planner's job, so timings can also be used
    standalone (the Fig. 3/11 microbenchmarks).
    """

    #: Short name used in reports.
    name: str = "base"

    def __init__(self, cost_model: CostModel) -> None:
        self.cost_model = cost_model
        self.injector: FaultInjector | None = None
        #: Optional ObsContext; the engine wires it in.
        self.obs = None
        # timing() is also the policy's planning estimator, so it runs
        # thousands of times per run; bound registry handles keep the
        # per-call telemetry cost to plain dict updates.
        self._obs_bound = None
        self._obs_handles = None

    def attach_injector(self, injector: "FaultInjector | None") -> None:
        """Wire a fault injector in (helper-thread / copy-loop stalls)."""
        self.injector = injector

    def attach_obs(self, obs) -> None:
        """(Re)wire an obs context, dropping handles bound to the old one.

        Clearing the cached closures here keeps the mechanism picklable
        when the snapshot engine detaches observability before capture.
        """
        self.obs = obs
        self._obs_bound = None
        self._obs_handles = None

    def _record_timing(
        self, timing: MigrationTiming, npages: int,
        src_node: int, dst_node: int,
    ) -> MigrationTiming:
        """Telemetry tail every mechanism's ``timing()`` returns through.

        Coarse per-call counters/histograms (not per-chunk events — the
        planner owns per-order lifecycle events) plus the rare adaptive
        sync-switch event.  Pass-through when no context is attached.
        """
        obs = self.obs
        if obs is not None:
            if self._obs_bound is not obs:
                handles = self._bind_obs_handles(obs)
            else:
                handles = self._obs_handles
            calls, pages, critical, background = handles
            calls()
            pages(npages)
            critical(timing.critical_time)
            background(timing.background_time)
            if timing.switched_to_sync:
                from repro.obs.events import EV_MECH_SYNC_SWITCH

                obs.emit(EV_MECH_SYNC_SWITCH, npages=npages,
                         src=src_node, dst=dst_node)
                obs.inc("mechanism.sync_switches", mechanism=self.name)
        return timing

    def _bind_obs_handles(self, obs):
        """Resolve registry handles once per attached context, so the
        per-call cost stays a couple of attribute reads."""
        self._obs_bound = obs
        registry = obs.registry
        self._obs_handles = (
            registry.counter_handle("mechanism.calls", mechanism=self.name),
            registry.counter_handle("mechanism.pages", mechanism=self.name),
            registry.histogram_handle(
                "mechanism.critical_seconds", mechanism=self.name),
            registry.histogram_handle(
                "mechanism.background_seconds", mechanism=self.name),
        )
        return self._obs_handles

    def _stall_factor(self) -> float:
        """Injected copy-stall inflation (1.0 when no injector/fault)."""
        if self.injector is None:
            return 1.0
        return self.injector.helper_stall()

    @abc.abstractmethod
    def timing(
        self,
        npages: int,
        src_node: int,
        dst_node: int,
        write_rate: float = 0.0,
    ) -> MigrationTiming:
        """Time to move ``npages`` pages.

        Args:
            npages: base pages to move.
            src_node / dst_node: components involved.
            write_rate: writes/second landing in the moved range while the
                migration runs (drives MTM's adaptive switch).
        """

    def _check(self, npages: int, write_rate: float) -> None:
        if npages < 0:
            raise ConfigError(f"negative page count: {npages}")
        if write_rate < 0:
            raise ConfigError(f"negative write rate: {write_rate}")
