"""The interval-driven simulation engine.

One engine instance simulates one managed application on one machine under
one solution (profiler + policy + mechanism + initial placement, or the
hardware cache mode).  Per profiling interval it:

1. asks the workload for the interval's :class:`~repro.sim.trace.AccessBatch`;
2. applies it through the MMU (PTE bits, counters) and charges application
   execution time from the cost model — or through the DRAM cache in HMC
   mode;
3. runs the profiler (charging profiling time) and optionally scores it
   against the workload's ground-truth hot set;
4. lets the policy decide and the planner execute migrations, charging
   critical-path migration time and recording overlapped background time.

The result object carries everything the paper's tables and figures need:
per-interval records, the Fig. 5 time breakdown, per-tier access counters
(Table 6), the migration log, and memory overhead (Table 5).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

import time as _time
from typing import TYPE_CHECKING

from repro.errors import ConfigError, TransientError
from repro.faults.injector import FaultInjector, FaultLog
from repro.faults.watchdog import IntervalWatchdog
from repro.hw.dram_cache import DramCache
from repro.hw.frames import FrameAccountant
from repro.hw.placement import (
    Placer,
    first_touch_placer,
    slow_tier_first_placer,
)
from repro.hw.tier import MemoryKind
from repro.hw.topology import TierTopology
from repro.migrate.mechanism import Mechanism
from repro.migrate.move_pages import MovePagesMechanism
from repro.metrics.perfstats import PerfStats
from repro.migrate.planner import MigrationLog, MigrationPlanner, RetryPolicy
from repro.mm.hugepage import ThpManager
from repro.mm.mmu import Mmu
from repro.mm.vma import AddressSpace
from repro.obs.events import EV_INTERVAL_END, EV_INTERVAL_START
from repro.perf.pcm import PcmCounters
from repro.perf.pebs import PebsSampler
from repro.policy.base import PlacementState, Policy
from repro.profile.base import Profiler
from repro.profile.quality import ProfilingQuality, evaluate_quality
from repro.sim.clock import CATEGORY_APP, CATEGORY_MIGRATION, CATEGORY_PROFILING, Clock
from repro.sim.costmodel import ACCESS_SIZE, CostModel, CostParams, effective_interval
from repro.sim.rng import named_rngs
from repro.sim.trace import AccessBatch
from repro.units import PAGE_SIZE
from repro.workloads.base import Workload

if TYPE_CHECKING:
    from repro.obs.context import ObsContext, ObsData
    from repro.sim.snapshot import EngineSnapshot
    from repro.sim.tracecache import TraceCache

#: Initial placement strategies.
PLACEMENT_FIRST_TOUCH = "first_touch"
PLACEMENT_SLOW_TIER_FIRST = "slow_tier_first"
PLACEMENT_PM_ONLY = "pm_only"  # HMC: software only sees the PM capacity


@dataclass
class IntervalRecord:
    """Everything measured in one profiling interval."""

    index: int
    app_time: float
    profiling_time: float = 0.0
    migration_time: float = 0.0
    background_time: float = 0.0
    promoted_pages: int = 0
    demoted_pages: int = 0
    fast_tier_accesses: int = 0
    total_accesses: int = 0
    region_count: int = 0
    quality: ProfilingQuality | None = None
    degraded: bool = False
    fault_events: int = 0

    @property
    def total_time(self) -> float:
        """Critical-path seconds this interval."""
        return self.app_time + self.profiling_time + self.migration_time


@dataclass
class SimulationResult:
    """Outcome of a full run."""

    label: str
    workload: str
    records: list[IntervalRecord]
    clock: Clock
    pcm: PcmCounters
    migration_log: MigrationLog
    memory_overhead_bytes: int = 0
    footprint_pages: int = 0
    fault_log: FaultLog | None = None
    degraded_intervals: int = 0
    perf: PerfStats | None = None
    obs: "ObsData | None" = None

    @property
    def total_time(self) -> float:
        return self.clock.now

    @property
    def degraded_share(self) -> float:
        """Fraction of intervals that ran in degraded mode."""
        if not self.records:
            return 0.0
        return self.degraded_intervals / len(self.records)

    def breakdown(self) -> dict[str, float]:
        """Fig. 5's app/profiling/migration split."""
        return self.clock.breakdown()

    def tier_accesses(self, socket: int = 0) -> dict[int, int]:
        """Table 6's per-tier application access counts."""
        return self.pcm.tier_accesses(socket)

    def fast_tier_share(self, socket: int = 0) -> float:
        return self.pcm.fastest_tier_share(socket)

    def quality_series(self) -> tuple[np.ndarray, np.ndarray]:
        """(recall, accuracy) per interval where quality was collected."""
        qs = [r.quality for r in self.records if r.quality is not None]
        return (
            np.array([q.recall for q in qs]),
            np.array([q.accuracy for q in qs]),
        )

    def speedup_over(self, other: "SimulationResult") -> float:
        """How much faster this run is than ``other`` (>1 = faster)."""
        if self.total_time <= 0:
            raise ConfigError("run has no elapsed time")
        return other.total_time / self.total_time

    def to_csv(self, path) -> None:
        """Write the per-interval records as CSV (for external plotting)."""
        import csv

        columns = [
            "index", "app_time", "profiling_time", "migration_time",
            "background_time", "promoted_pages", "demoted_pages",
            "fast_tier_accesses", "total_accesses", "region_count",
            "recall", "accuracy", "degraded", "fault_events",
        ]
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(columns)
            for r in self.records:
                writer.writerow([
                    r.index, r.app_time, r.profiling_time, r.migration_time,
                    r.background_time, r.promoted_pages, r.demoted_pages,
                    r.fast_tier_accesses, r.total_accesses, r.region_count,
                    r.quality.recall if r.quality else "",
                    r.quality.accuracy if r.quality else "",
                    int(r.degraded), r.fault_events,
                ])


class SimulationEngine:
    """Simulates one workload under one management solution.

    Args:
        topology: the machine.
        workload: traffic generator (not yet built).
        policy: migration policy.
        profiler: profiling mechanism (may be None when the policy does
            not consume profiling, e.g. first-touch or HMC).
        mechanism: migration mechanism (None when the policy never moves).
        placement: one of the PLACEMENT_* strategies.
        cost_params: cost-model constants (scaled to the machine).
        interval: profiling interval t_mi in simulated seconds; ``None``
            uses the paper's 10 s scaled by the cost params' machine scale.
        calibration_target: the workload's raw per-interval app time is
            rescaled by one fixed multiplier so that a *reference*
            placement (everything resident on the slowest tier) would take
            ``calibration_target * interval`` — the paper's setup, where
            t_mi spans one interval of application work.  The reference is
            solution-independent, so the relative times of different
            solutions on the same workload are directly comparable.  Set
            to 0 to disable calibration.
        seed: master seed; every component draws an independent stream.
        socket: viewpoint socket (tier ranking, Table 6 presentation).
        collect_quality: score every snapshot against ground truth (Fig. 1).
        hmc: hardware-managed DRAM cache mode (Memory Mode baseline).
        label: name shown in reports.
        injector: optional fault injector, wired through the planner
            (EBUSY/ENOMEM), the PEBS sampler (buffer overflow), the
            profiler (scan truncation), and the mechanisms (copy stalls).
            A zero-rate injector is bit-identical to no injector.
        watchdog: degraded-mode controller; ``None`` builds the default.
            When an interval blows the overhead budget or absorbs a fault
            burst repeatedly, the next interval sheds — the scan is
            skipped and no new migration work starts (pending retries
            still drain) — and is recorded as degraded.
        recovery: ``False`` runs the planner fail-fast (no retry queue,
            transient faults raise and the interval is recorded degraded)
            — the baseline the resilience benchmark compares against.
        trace_cache: optional shared :class:`~repro.sim.tracecache.TraceCache`.
            When provided together with ``trace_key``, each interval's
            batch is replayed from the memoized stream instead of being
            synthesized; the workload only advances its segment plan
            (:meth:`~repro.workloads.base.SegmentedWorkload.advance_interval`).
            Bit-identical to synthesis: the cache draws from the same
            named RNG stream, and nothing else consumes the engine's
            ``"workload"`` generator.
        trace_key: ``(workload_name, scale, seed)`` identifying the
            stream in ``trace_cache``.  Ignored when ``trace_cache`` is
            None; requires a workload exposing ``advance_interval``.
        obs: optional :class:`~repro.obs.context.ObsContext`.  When set,
            the engine (and every attached component — profiler, PEBS
            sampler, planner, mechanisms, injector) emits structured
            events, spans, metrics, and migration provenance into it.
            Purely observational: enabling it never changes simulated
            results (bit-identity, test-enforced), and when ``None`` no
            emission code runs at all.
    """

    def __init__(
        self,
        topology: TierTopology,
        workload: Workload,
        policy: Policy,
        profiler: Profiler | None = None,
        mechanism: Mechanism | None = None,
        placement: str = PLACEMENT_FIRST_TOUCH,
        cost_params: CostParams | None = None,
        interval: float | None = None,
        calibration_target: float = 1.0,
        seed: int = 0,
        socket: int = 0,
        collect_quality: bool = False,
        hmc: bool = False,
        label: str = "",
        thp: ThpManager | None = None,
        injector: FaultInjector | None = None,
        watchdog: IntervalWatchdog | None = None,
        recovery: bool = True,
        trace_cache: "TraceCache | None" = None,
        trace_key: tuple[str, float, int] | None = None,
        obs: "ObsContext | None" = None,
    ) -> None:
        if policy.wants_profiling() and profiler is None:
            raise ConfigError(f"policy {policy.name!r} needs a profiler")
        self.topology = topology
        self.workload = workload
        self.policy = policy
        self.profiler = profiler
        self.mechanism = mechanism
        params_for_scale = cost_params if cost_params is not None else CostParams()
        self.interval = (
            interval if interval is not None else effective_interval(params_for_scale.scale)
        )
        self.calibration_target = calibration_target
        self._app_time_multiplier: float | None = None
        self.socket = socket
        self.collect_quality = collect_quality
        self.hmc = hmc
        self.label = label or policy.name

        self.cost_model = CostModel(topology, cost_params)
        self.rngs = named_rngs(seed, ["workload", "profiler", "pebs", "mechanism", "thp"])
        self.frames = FrameAccountant(topology)
        space_pages = topology.total_capacity() // PAGE_SIZE
        self.space = AddressSpace(space_pages)
        self.thp = thp if thp is not None else ThpManager()

        placer = self._make_placer(placement)
        self.workload.build(self.space, self.thp, placer)

        self.injector = injector
        self.watchdog = watchdog if watchdog is not None else IntervalWatchdog()
        self.recovery = recovery
        self._transient_aborts = 0
        self.trace_cache = trace_cache
        self.trace_key = trace_key
        if (
            trace_cache is not None
            and trace_key is not None
            and not hasattr(workload, "advance_interval")
        ):
            raise ConfigError(
                "trace_cache requires a workload with advance_interval()"
            )
        self.perfstats = PerfStats()

        self.mmu = Mmu(self.space.page_table, num_sockets=topology.num_sockets)
        self.pcm = PcmCounters(topology)
        self.pebs = PebsSampler(
            topology,
            period=self.cost_model.params.pebs_period,
            rng=self.rngs["pebs"],
            injector=injector,
        )
        self.clock = Clock()
        self.dram_cache = self._make_dram_cache() if hmc else None

        if self.profiler is not None:
            self.profiler.setup(self.space.page_table, self.workload.spans())
            self.profiler.injector = injector
        self.planner: MigrationPlanner | None = None
        if self.mechanism is not None:
            self.mechanism.attach_injector(injector)
            fallback: Mechanism | None = None
            if not isinstance(self.mechanism, MovePagesMechanism):
                # The daemon's fallback chain: orders that keep failing
                # through the fancy mechanism retry via plain sync
                # move_pages().
                fallback = MovePagesMechanism(self.cost_model)
                fallback.attach_injector(injector)
            self.planner = MigrationPlanner(
                self.space.page_table,
                self.frames,
                self.mechanism,
                interval=self.interval,
                time_scale=self._migration_time_scale(),
                injector=injector,
                retry_policy=RetryPolicy() if recovery else None,
                fallback_mechanism=fallback,
                topology=self.topology,
                socket=self.socket,
            )
        self._records: list[IntervalRecord] = []
        self._obs_summarized = False
        self._attach_obs(obs)

    def _attach_obs(self, obs: "ObsContext | None") -> None:
        """(Re)wire one obs context through every emitting component.

        Mirrors the trace-cache detach discipline: ``capture_engine``
        detaches the context before pickling and reattaches afterwards,
        and ``fork_engine`` attaches a fresh one to the fork.
        """
        self.obs = obs
        self.pebs.obs = obs
        if self.profiler is not None:
            self.profiler.obs = obs
        if self.mechanism is not None:
            self.mechanism.attach_obs(obs)
        if self.injector is not None:
            self.injector.obs = obs
        if self.planner is not None:
            self.planner.obs = obs
            if self.planner.fallback_mechanism is not None:
                self.planner.fallback_mechanism.attach_obs(obs)

    # -- construction helpers --------------------------------------------------

    def _make_placer(self, placement: str) -> Placer:
        if placement == PLACEMENT_FIRST_TOUCH:
            return first_touch_placer(self.topology, self.frames, self.socket)
        if placement == PLACEMENT_SLOW_TIER_FIRST:
            return slow_tier_first_placer(self.topology, self.frames, self.socket)
        if placement == PLACEMENT_PM_ONLY:
            from repro.hw.placement import TierOrderPlacer

            pm_nodes = [
                c.node_id for c in self.topology.components if c.kind != MemoryKind.DRAM
            ]
            if not pm_nodes:
                raise ConfigError("PM-only placement needs a non-DRAM component")
            return TierOrderPlacer(self.topology, self.frames, pm_nodes)
        raise ConfigError(f"unknown placement {placement!r}")

    def _migration_time_scale(self) -> float:
        """Calibrate migration timing to the paper's interval share.

        On the paper's machine a full 200 MB `move_pages()` budget costs
        ~6% of the 10 s interval.  A capacity-scaled machine migrates a
        *relatively* larger budget (the 2 MB region quantum cannot
        shrink), so the per-move cost is scaled such that spending the
        policy's full budget through sequential `move_pages()` costs the
        same ~6% share of the (scaled) interval.  The same factor applies
        to every mechanism, so their relative speeds (Figs. 3/11) carry
        straight into end-to-end runs.
        """
        from repro.migrate.move_pages import MovePagesMechanism
        from repro.policy.mtm_policy import PAPER_MIGRATION_BUDGET

        share_target = 0.06
        budget_bytes = int(PAPER_MIGRATION_BUDGET * self.cost_model.params.scale)
        config = getattr(self.policy, "config", None)
        budget_bytes = max(budget_bytes, getattr(config, "budget_bytes", budget_bytes))
        budget_pages = max(1, budget_bytes // PAGE_SIZE)
        view = self.topology.view(self.socket)
        src = view.node_at_tier(view.num_tiers)
        dst = view.node_at_tier(1)
        reference = MovePagesMechanism(self.cost_model).timing(budget_pages, src, dst)
        if reference.critical_time <= 0:
            return self.cost_model.params.scale
        return share_target * self.interval / reference.critical_time

    def _make_dram_cache(self) -> DramCache:
        dram_pages = sum(
            c.capacity_pages
            for c in self.topology.components
            if c.kind == MemoryKind.DRAM
        )
        if dram_pages == 0:
            raise ConfigError("HMC mode needs a DRAM component")
        # Misses move 256 B XPLines, not whole pages.
        return DramCache(num_sets=dram_pages, block_bytes=256)

    # -- the main loop --------------------------------------------------------

    def run(self, num_intervals: int) -> SimulationResult:
        """Simulate ``num_intervals`` profiling intervals."""
        if num_intervals < 1:
            raise ConfigError(f"num_intervals must be >= 1, got {num_intervals}")
        for _ in range(num_intervals):
            self.step()
        return self.result()

    def step(self) -> IntervalRecord:
        """Simulate one profiling interval."""
        obs = self.obs
        if obs is not None:
            with obs.span("interval", cat="engine", index=len(self._records)):
                return self._step_impl(obs)
        return self._step_impl(None)

    def _next_batch(self) -> AccessBatch:
        if self.trace_cache is not None and self.trace_key is not None:
            batch = self.trace_cache.get_batch(
                *self.trace_key, len(self._records), obs=self.obs
            )
            # The stream already drew this interval's randomness on the
            # cache's clone; only advance the local segment plan so
            # hot_pages() ground truth matches the replayed batch.
            self.workload.advance_interval()
            return batch
        return self.workload.next_batch(self.rngs["workload"])

    def _step_impl(self, obs: "ObsContext | None") -> IntervalRecord:
        t_step = _time.perf_counter()
        if obs is not None:
            obs.emit(EV_INTERVAL_START, sim_time=self.clock.now,
                     interval=len(self._records))
            if self.injector is not None:
                # Fault events carry the current interval in the stream;
                # the injector has no other view of simulation progress.
                self.injector.current_interval = len(self._records)
            with obs.span("workload", cat="engine", index=len(self._records)):
                batch = self._next_batch()
        else:
            batch = self._next_batch()
        dt = _time.perf_counter() - t_step
        self.perfstats.workload_seconds += dt
        self.perfstats.record_sample("workload", dt)
        self.mmu.begin_interval(batch)
        fast_before = self._fast_tier_count()
        self.pcm.count(batch, self.space.page_table)

        if self.dram_cache is not None:
            app_time = self._hmc_app_time(batch)
        else:
            app_time = self.cost_model.app_time(batch, self.space.page_table, self.socket)
        app_time *= self._calibration_multiplier(batch)
        self.clock.advance(app_time, CATEGORY_APP)

        record = IntervalRecord(
            index=len(self._records),
            app_time=app_time,
            total_accesses=batch.total_accesses,
        )

        faults_before = self.injector.log.total_events if self.injector is not None else 0
        shed = self.watchdog.should_shed()
        if shed:
            self.watchdog.begin_shed()
            record.degraded = True

        # Eq. 1's t_mi is wall-clock application time: as placement improves
        # and the same work quantum takes less time, the profiling budget
        # shrinks with it so the overhead constraint keeps holding against
        # *actual* execution time.
        if self.profiler is not None:
            config = getattr(self.profiler, "config", None)
            if config is not None and hasattr(config, "interval") and app_time > 0:
                config.interval = app_time

        if self.policy.wants_profiling() and self.profiler is not None:
            if shed:
                # Degraded interval: the watchdog shed this interval's
                # scan and migration budget; only the retry backlog
                # drains, so the daemon catches up instead of piling on.
                if self.planner is not None:
                    if obs is not None:
                        with obs.span("migrate.drain", cat="migrate",
                                      index=record.index):
                            timing = self.planner.drain_retries(self.mmu)
                    else:
                        timing = self.planner.drain_retries(self.mmu)
                    self.clock.advance(timing.critical_time, CATEGORY_MIGRATION)
                    self.clock.record_background(timing.background_time)
                    record.migration_time = timing.critical_time
                    record.background_time = timing.background_time
            else:
                try:
                    self._profile_and_migrate(record)
                except TransientError:
                    # Fail-fast planner (or an unrecovered fault path):
                    # the interval's remaining management work is lost,
                    # the run continues in degraded mode.
                    record.degraded = True
                    self._transient_aborts += 1

        if self.injector is not None:
            record.fault_events = self.injector.log.total_events - faults_before
        self.watchdog.observe(
            record.app_time,
            record.profiling_time + record.migration_time,
            record.fault_events,
        )

        record.fast_tier_accesses = self._fast_tier_count() - fast_before
        self._records.append(record)
        # Every consumer of the interval's activity has run; drop the
        # batch so peak RSS stays O(one interval), not O(run length).
        self.mmu.release_batch()
        dt = _time.perf_counter() - t_step
        self.perfstats.total_seconds += dt
        self.perfstats.record_sample("interval", dt)
        self.perfstats.intervals += 1
        if obs is not None:
            obs.emit(
                EV_INTERVAL_END, sim_time=self.clock.now, interval=record.index,
                app_time=record.app_time,
                profiling_time=record.profiling_time,
                migration_time=record.migration_time,
                promoted_pages=record.promoted_pages,
                demoted_pages=record.demoted_pages,
                region_count=record.region_count,
                degraded=record.degraded,
                fault_events=record.fault_events,
            )
            obs.observe("engine.interval_host_seconds", dt)
            obs.inc("engine.intervals")
            if record.degraded:
                obs.inc("engine.degraded_intervals")
            for component in self.topology.components:
                node = component.node_id
                obs.set_gauge("tier.occupancy_pages",
                              self.frames.used_pages(node), node=node)
                obs.set_gauge("tier.capacity_pages",
                              self.frames.capacity_pages(node), node=node)
            obs.stream_flush()
        return record

    def _profile_and_migrate(self, record: IntervalRecord) -> None:
        """One interval of daemon work: scan, decide, migrate."""
        assert self.profiler is not None
        obs = self.obs
        t0 = _time.perf_counter()
        if obs is not None:
            with obs.span("profile", cat="profile", index=record.index):
                snapshot = self.profiler.profile(
                    self.mmu, pebs=self.pebs, socket=self.socket
                )
        else:
            snapshot = self.profiler.profile(
                self.mmu, pebs=self.pebs, socket=self.socket
            )
        dt = _time.perf_counter() - t0
        self.perfstats.profile_seconds += dt
        self.perfstats.record_sample("profile", dt)
        self.clock.advance(snapshot.profiling_time, CATEGORY_PROFILING)
        record.profiling_time = snapshot.profiling_time
        record.region_count = len(snapshot.reports)
        if self.collect_quality:
            truth = self.workload.hot_pages()
            if truth.size:
                record.quality = evaluate_quality(snapshot, truth)
        if self.planner is not None:
            t0 = _time.perf_counter()
            state = PlacementState(
                page_table=self.space.page_table,
                frames=self.frames,
                topology=self.topology,
            )
            if obs is not None:
                with obs.span("plan", cat="migrate", index=record.index):
                    orders = self.policy.decide(snapshot, state)
            else:
                orders = self.policy.decide(snapshot, state)
            before = (self.planner.log.promoted_pages, self.planner.log.demoted_pages)
            try:
                if obs is not None:
                    with obs.span("migrate", cat="migrate", index=record.index,
                                  orders=len(orders)):
                        timing = self.planner.execute(orders, self.mmu)
                else:
                    timing = self.planner.execute(orders, self.mmu)
            finally:
                record.promoted_pages = self.planner.log.promoted_pages - before[0]
                record.demoted_pages = self.planner.log.demoted_pages - before[1]
                dt = _time.perf_counter() - t0
                self.perfstats.migrate_seconds += dt
                self.perfstats.record_sample("migrate", dt)
            self.clock.advance(timing.critical_time, CATEGORY_MIGRATION)
            self.clock.record_background(timing.background_time)
            record.migration_time = timing.critical_time
            record.background_time = timing.background_time

    # -- checkpoint / fork -----------------------------------------------------

    def snapshot(self, key: tuple | None = None) -> "EngineSnapshot":
        """Serialize the engine's complete state after the current interval.

        The snapshot captures everything a continued run depends on —
        simulated clock, MMU arrays, page table, profiler/policy state,
        planner backlog, RNG streams, fault-injector state — so
        ``SimulationEngine.fork(snapshot).run(m)`` is bit-identical to
        running ``m`` more intervals on this engine (test-enforced).
        The shared :class:`~repro.sim.tracecache.TraceCache` is *not*
        captured; :meth:`fork` reattaches one (or builds a private
        replacement that regenerates the stream deterministically).
        """
        from repro.sim.snapshot import capture_engine

        return capture_engine(self, key=key)

    @classmethod
    def fork(
        cls,
        snapshot: "EngineSnapshot",
        trace_cache: "TraceCache | None" = None,
        obs: "ObsContext | None" = None,
    ) -> "SimulationEngine":
        """Rebuild an independent engine from ``snapshot``.

        The fork shares nothing mutable with the engine that produced
        the snapshot (or with sibling forks); running it is bit-identical
        to continuing the original run from the snapshot point.
        """
        from repro.sim.snapshot import fork_engine

        return fork_engine(snapshot, trace_cache=trace_cache, obs=obs)

    def result(self) -> SimulationResult:
        """Assemble the run's result (and snapshot the obs context)."""
        if self.trace_cache is not None:
            self.perfstats.cache = self.trace_cache.stats()
        obs_data: "ObsData | None" = None
        if self.obs is not None:
            # Run-level summaries (host perf, migration counters) land in
            # the registry once, on the first result() call.
            if not self._obs_summarized:
                self._obs_summarized = True
                run_label = self.obs.label or self.label
                self.obs.record_perfstats(self.perfstats, label=run_label)
                self.obs.record_migration_log(
                    self.planner.log if self.planner else None,
                    label=run_label,
                )
            # Runner-built contexts carry a "workload/solution" label;
            # fall back to the engine label for bare contexts.
            obs_data = self.obs.snapshot(label=self.obs.label or self.label)
        return SimulationResult(
            label=self.label,
            workload=self.workload.name,
            records=list(self._records),
            clock=self.clock,
            pcm=self.pcm,
            migration_log=self.planner.log if self.planner else MigrationLog(),
            memory_overhead_bytes=(
                self.profiler.memory_overhead_bytes() if self.profiler else 0
            ),
            footprint_pages=self.workload.footprint_pages(),
            fault_log=self.injector.log if self.injector is not None else None,
            degraded_intervals=sum(1 for r in self._records if r.degraded),
            perf=self.perfstats,
            obs=obs_data,
        )

    # -- internals --------------------------------------------------------------

    def _calibration_multiplier(self, batch: AccessBatch) -> float:
        """Fix the app-time unit against a solution-independent reference.

        The reference prices the first interval's batch as if every page
        sat on the slowest tier; the resulting multiplier is frozen, so
        every solution on the same workload shares (statistically) the
        same unit and their relative times are meaningful.
        """
        if self.calibration_target <= 0:
            return 1.0
        if self._app_time_multiplier is None:
            reference = self._reference_app_time(batch)
            if reference <= 0:
                return 1.0
            self._app_time_multiplier = self.calibration_target * self.interval / reference
        return self._app_time_multiplier

    def _reference_app_time(self, batch: AccessBatch) -> float:
        """Batch cost with everything on the local slow tier (calibration).

        The reference placement is the slowest component *local to the
        socket* (tier 3 on the 4-tier machine) — the natural "nothing has
        been promoted yet" state.
        """
        if batch.pages.size == 0:
            return 0.0
        params = self.cost_model.params
        view = self.topology.view(self.socket)
        ref_node = None
        for tier in range(view.num_tiers, 0, -1):
            node = view.node_at_tier(tier)
            if self.topology.component(node).socket == self.socket:
                ref_node = node
                break
        if ref_node is None:
            ref_node = view.node_at_tier(view.num_tiers)
        cost = self.topology.cost(self.socket, ref_node)
        n = batch.total_accesses * params.rate_compensation
        latency_term = params.serial_fraction * n * cost.latency / (params.threads * params.mlp)
        bandwidth_term = n * ACCESS_SIZE / cost.bandwidth
        return latency_term + bandwidth_term + self.cost_model.compute_time(batch.total_accesses)

    def _fast_tier_count(self) -> int:
        view = self.topology.view(self.socket)
        return self.pcm.node_accesses[view.node_at_tier(1)]

    def _hmc_app_time(self, batch: AccessBatch) -> float:
        """Memory-mode timing: DRAM on hits, PM + amplification on misses."""
        assert self.dram_cache is not None
        if batch.pages.size == 0:
            return 0.0
        params = self.cost_model.params
        view = self.topology.view(self.socket)
        dram_cost = self.topology.cost(self.socket, view.node_at_tier(1))
        # The PM behind the cache: slowest component's link.
        pm_node = next(
            (c.node_id for c in self.topology.components if c.kind != MemoryKind.DRAM),
            view.node_at_tier(view.num_tiers),
        )
        pm_cost = self.topology.cost(self.socket, pm_node)

        fetched_before = self.dram_cache.stats.bytes_fetched
        written_before = self.dram_cache.stats.bytes_written_back
        hits, misses = self.dram_cache.access_batch(batch.pages, batch.counts, batch.writes)
        moved = (
            self.dram_cache.stats.bytes_fetched
            - fetched_before
            + self.dram_cache.stats.bytes_written_back
            - written_before
        )
        comp = params.rate_compensation
        latency_seconds = (hits * dram_cost.latency + misses * pm_cost.latency) * comp
        latency_term = params.serial_fraction * latency_seconds / (params.threads * params.mlp)
        bandwidth_term = (
            hits * comp * ACCESS_SIZE / dram_cost.bandwidth
            + moved * comp / pm_cost.bandwidth
        )
        return latency_term + bandwidth_term + self.cost_model.compute_time(batch.total_accesses)
