"""Mechanism interface and timing records.

A mechanism computes *how long* moving a set of pages takes and how the
time splits between the critical path (the application is stalled or the
daemon occupies the move) and background work (helper threads overlapping
application execution).  The per-step breakdown feeds Figs. 3 and 11.
"""

from __future__ import annotations

import abc
import numbers
from collections.abc import Sequence
from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING

from repro.errors import ConfigError
from repro.sim.costmodel import CostModel
from repro.units import PAGES_PER_HUGE_PAGE

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

    def add(self, other: "StepTimes") -> None:
        """Add ``other``'s time into each step."""
        self.allocate += other.allocate
        self.unmap_remap += other.unmap_remap
        self.copy += other.copy
        self.migrate_page_table += other.migrate_page_table
        self.dirtiness_tracking += other.dirtiness_tracking

    def scaled(self, factor: float) -> "StepTimes":
        """Every step's time times ``factor``."""
        return StepTimes(self.allocate * factor, self.unmap_remap * factor,
                         self.copy * factor, self.migrate_page_table * factor,
                         self.dirtiness_tracking * factor)


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
    standalone (the Fig. 3/11 microbenchmarks).  A mechanism supplies the
    draw-free step costs of one move (``_step_costs``) and one move's
    step times (``_move``); :meth:`timing` runs the moves.
    """

    #: Short name used in reports.
    name: str = "base"

    def __init__(self, cost_model: CostModel) -> None:
        self.cost_model = cost_model
        self.injector: FaultInjector | None = None
        #: Optional ObsContext; the engine wires it in.
        self.obs = None
        # Telemetry is recorded per 2 MB region move, thousands of times
        # per run; bound registry handles keep its cost to plain dict
        # updates.
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

    def _bind_obs_handles(self, obs):
        """Resolve registry handles once per attached context, so the
        per-move cost stays a couple of attribute reads."""
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

    def timing(
        self,
        npages: int,
        src_node: int,
        dst_node: int,
        write_rate: float | Sequence[float] = 0.0,
    ) -> MigrationTiming:
        """Time to move ``npages`` pages.

        Args:
            npages: base pages to move.
            src_node / dst_node: components involved.
            write_rate: writes/second landing in the moved range while the
                migration runs (drives MTM's adaptive switch).  A number
                times one move of all ``npages``.  A sequence times them
                the way the kernel moves an order, as consecutive 2 MB
                region moves (Fig. 3's unit; the last move takes the
                rest), region ``k`` under ``write_rate[k]``.

        Each move's step costs come from its size alone, so they are
        computed once per size; stall and write-hit draws, telemetry and
        sync-switch events stay per move, in move order.  The returned
        step times are each move's summed in move order.
        """
        if npages < 0:
            raise ConfigError(f"negative page count: {npages}")
        if isinstance(write_rate, numbers.Real):
            moves = [(npages, write_rate)]
        else:
            sizes = [PAGES_PER_HUGE_PAGE] * (npages // PAGES_PER_HUGE_PAGE)
            if npages % PAGES_PER_HUGE_PAGE:
                sizes.append(npages % PAGES_PER_HUGE_PAGE)
            if len(sizes) != len(write_rate):
                raise ConfigError(
                    f"{len(write_rate)} write rates for {len(sizes)} region moves"
                )
            moves = list(zip(sizes, write_rate))
        costs: dict[int, tuple] = {}
        # Telemetry per move: coarse counters and histograms (the planner
        # owns per-order lifecycle events) plus the rare sync switch.
        obs = self.obs
        if obs is not None:
            calls, moved_pages, critical, background = (
                self._obs_handles if self._obs_bound is obs else self._bind_obs_handles(obs)
            )
        ca = cu = cc = cp = cd = 0.0  # critical allocate .. dirtiness_tracking
        ba = bu = bc = bp = bd = 0.0  # background, same steps
        switched = False
        extra = 0
        for size, rate in moves:
            if rate < 0:
                raise ConfigError(f"negative write rate: {rate}")
            cost = costs.get(size)
            if cost is None:
                cost = costs[size] = self._step_costs(size, src_node, dst_node)
            crit, back, extra_pages = self._move(cost, size, rate)
            ca += crit[0]
            cu += crit[1]
            cc += crit[2]
            cp += crit[3]
            cd += crit[4]
            if back is not None:
                ba += back[0]
                bu += back[1]
                bc += back[2]
                bp += back[3]
                bd += back[4]
            if extra_pages is not None:
                switched = True
                extra += extra_pages
            if obs is not None:
                calls()
                moved_pages(size)
                critical(crit[0] + crit[1] + crit[2] + crit[3] + crit[4])
                background(back[0] + back[1] + back[2] + back[3] + back[4] if back else 0.0)
                if extra_pages is not None:
                    from repro.obs.events import EV_MECH_SYNC_SWITCH

                    obs.emit(EV_MECH_SYNC_SWITCH, npages=size, src=src_node, dst=dst_node)
                    obs.inc("mechanism.sync_switches", mechanism=self.name)
        return MigrationTiming(
            critical=StepTimes(ca, cu, cc, cp, cd),
            background=StepTimes(ba, bu, bc, bp, bd),
            switched_to_sync=switched,
            extra_copied_pages=extra,
        )

    @abc.abstractmethod
    def _step_costs(self, npages: int, src_node: int, dst_node: int) -> tuple:
        """The draw-free step costs of one move of ``npages`` pages."""

    @abc.abstractmethod
    def _move(
        self, costs: tuple, npages: int, write_rate: float
    ) -> tuple[tuple, tuple | None, int | None]:
        """One move: ``(critical, background, extra)``.

        ``critical`` and ``background`` are the five step times in
        :class:`StepTimes` order (``background`` ``None`` when all zero),
        and ``extra`` is the pages copied twice when the move switched
        to sync, else ``None``.  Draws stalls and write hits.
        """
