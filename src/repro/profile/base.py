"""Profiler interface and per-interval snapshots.

All profilers — MTM's and every baseline — implement the same contract:
``setup`` once over the VMA spans, then once per interval ``profile`` the
current MMU state, returning a :class:`ProfileSnapshot` with per-region
hotness scores and the profiling time spent.  Downstream code (policies,
quality metrics) only ever sees snapshots, so profilers are interchangeable.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

import numpy as np

from repro.errors import ProfilingError
from repro.mm.mmu import Mmu
from repro.mm.pagetable import PageTable
from repro.perf.pebs import PebsSampler


@dataclass(frozen=True)
class RegionReport:
    """One region's result for one interval.

    Attributes:
        start: first base page of the region.
        npages: region length in base pages.
        score: hotness score; higher = hotter.  Scales differ between
            profilers (scan counts vs PEBS samples) but are consistent
            within one profiler, which is all ranking needs.
        node: component currently holding the region (-1 unknown).
        dominant_socket: socket issuing most accesses (-1 unknown).
    """

    start: int
    npages: int
    score: float
    node: int = -1
    dominant_socket: int = -1

    @property
    def end(self) -> int:
        return self.start + self.npages


@dataclass
class ProfileSnapshot:
    """Everything a profiler learned in one interval.

    Attributes:
        interval: 0-based interval index.
        reports: per-region results, sorted by start page.
        profiling_time: seconds of critical-path profiling work.
        scans_performed: PTE scans executed (for overhead audits).
        pebs_samples: PEBS samples processed.
    """

    interval: int
    reports: list[RegionReport]
    profiling_time: float
    scans_performed: int = 0
    pebs_samples: int = 0

    @classmethod
    def from_regions(
        cls,
        interval: int,
        page_table: PageTable,
        start: np.ndarray,
        npages: np.ndarray,
        score: np.ndarray,
        dominant_socket: np.ndarray | None = None,
        **fields,
    ) -> "ProfileSnapshot":
        """A snapshot of regions given as columns, one row per region.

        Every region's resident node comes from one bulk pass over the
        placement runs.  ``dominant_socket`` defaults to unknown (-1);
        ``fields`` are the snapshot's other attributes
        (``profiling_time``, ``scans_performed``, ...).
        """
        nodes = page_table.span_majority_nodes(start, npages)
        if dominant_socket is None:
            dominant_socket = np.full(len(nodes), -1)
        reports = [
            RegionReport(*row)
            for row in zip(start.tolist(), npages.tolist(), score.tolist(),
                           nodes.tolist(), dominant_socket.tolist())
        ]
        return cls(interval=interval, reports=reports, **fields)

    def page_scores(self, n_pages: int) -> np.ndarray:
        """Dense per-page hotness: each page gets its region's score."""
        scores = np.zeros(n_pages, dtype=np.float64)
        for report in self.reports:
            scores[report.start : report.end] = report.score
        return scores

    def top_hot_pages(self, volume_pages: int) -> np.ndarray:
        """Pages the profiler would call hot, up to ``volume_pages`` pages.

        Regions are taken hottest-first (score, density already per-page);
        a region is included wholly — profilers cannot see within a region,
        which is precisely DAMON's accuracy problem in Fig. 1.
        """
        if volume_pages < 0:
            raise ProfilingError(f"negative volume: {volume_pages}")
        chosen: list[np.ndarray] = []
        taken = 0
        for report in sorted(self.reports, key=lambda r: r.score, reverse=True):
            if report.score <= 0 or taken >= volume_pages:
                break
            pages = np.arange(report.start, report.end, dtype=np.int64)
            if taken + pages.size > volume_pages:
                pages = pages[: volume_pages - taken]
            chosen.append(pages)
            taken += pages.size
        if not chosen:
            return np.empty(0, dtype=np.int64)
        return np.sort(np.concatenate(chosen))

    def hot_volume_pages(self, score_threshold: float = 0.0) -> int:
        """Pages in regions scoring above ``score_threshold``."""
        return sum(r.npages for r in self.reports if r.score > score_threshold)


class Profiler(abc.ABC):
    """Common contract for all profiling mechanisms."""

    #: Short name used in reports ("mtm", "damon", ...).
    name: str = "base"

    #: Optional fault injector (scan truncation); the engine wires it in.
    #: Profilers that model preemptible scan passes consult it.
    injector = None

    #: Optional :class:`~repro.obs.context.ObsContext`; the engine wires
    #: it in.  Profilers emit scan and region-formation events into it.
    obs = None

    @abc.abstractmethod
    def setup(self, page_table: PageTable, spans: list[tuple[int, int]]) -> None:
        """Initialize over the workload's VMA spans ``(start, npages)``."""

    @abc.abstractmethod
    def profile(
        self,
        mmu: Mmu,
        pebs: PebsSampler | None = None,
        socket: int = 0,
    ) -> ProfileSnapshot:
        """Profile the current interval (after ``mmu.begin_interval``)."""

    def memory_overhead_bytes(self) -> int:
        """Bookkeeping memory the profiler consumes (Table 5)."""
        return 0

    # -- telemetry helpers (no-ops unless the engine attached a context) ----

    def _emit_scan(self, obs, **fields) -> None:
        """One ``profile.scan`` event + scan counters per interval."""
        from repro.obs.events import EV_SCAN

        obs.emit(EV_SCAN, profiler=self.name, **fields)
        obs.inc("profile.scans", int(fields.get("scans_used", 0)),
                profiler=self.name)
        obs.inc("profile.intervals", profiler=self.name)
        if fields.get("over_budget"):
            obs.inc("profile.over_budget_intervals", profiler=self.name)
        obs.set_gauge("profile.regions", int(fields.get("regions", 0)),
                      profiler=self.name)

    def _emit_formation(self, obs, merges: int, splits: int) -> None:
        """Region split/merge deltas for the interval just formed."""
        from repro.obs.events import EV_REGION_MERGE, EV_REGION_SPLIT

        if merges:
            obs.emit(EV_REGION_MERGE, profiler=self.name, count=merges)
            obs.inc("profile.merges", merges, profiler=self.name)
        if splits:
            obs.emit(EV_REGION_SPLIT, profiler=self.name, count=splits)
            obs.inc("profile.splits", splits, profiler=self.name)
