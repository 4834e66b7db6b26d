"""Profiler interface and per-interval snapshots.

All profilers — MTM's and every baseline — implement the same contract:
``setup`` once over the VMA spans, then once per interval ``profile`` the
current MMU state, returning a :class:`ProfileSnapshot` with per-region
hotness scores and the profiling time spent.  Downstream code (policies,
quality metrics) only ever sees snapshots, so profilers are interchangeable.
"""

from __future__ import annotations

import abc
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from repro.errors import ProfilingError
from repro.mm.mmu import Mmu
from repro.mm.pagetable import PageTable
from repro.perf.pebs import PebsSampler


@dataclass(frozen=True)
class RegionReport:
    """One region's result for one interval, as a row.

    Snapshots hold their regions as columns; a row is built only when
    :attr:`ProfileSnapshot.reports` is read.

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

    The regions are five columns with one row per region, sorted by
    start page; policies select, rank and look pages up on them.

    Attributes:
        interval: 0-based interval index.
        start: first base page of each region (int64).
        npages: region lengths in base pages (int64).
        score: hotness scores, higher = hotter (float64).  Scales differ
            between profilers (scan counts vs PEBS samples) but are
            consistent within one profiler, which is all ranking needs.
        node: component holding most of each region (-1 unmapped, int64).
        dominant_socket: socket issuing most of each region's accesses
            (-1 unknown, int64).
        profiling_time: seconds of critical-path profiling work.
        scans_performed: PTE scans executed (for overhead audits).
        pebs_samples: PEBS samples processed.
    """

    interval: int
    start: np.ndarray
    npages: np.ndarray
    score: np.ndarray
    node: np.ndarray
    dominant_socket: np.ndarray
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
        placement runs.  The columns are copied, so the profiler may
        keep updating its own.  ``dominant_socket`` defaults to unknown
        (-1); ``fields`` are the snapshot's other attributes
        (``profiling_time``, ``scans_performed``, ...).
        """
        start = np.array(start, dtype=np.int64)
        npages = np.array(npages, dtype=np.int64)
        if dominant_socket is None:
            dominant_socket = np.full(start.size, -1, dtype=np.int64)
        return cls(
            interval=interval, start=start, npages=npages,
            score=np.array(score, dtype=np.float64),
            node=page_table.span_majority_nodes(start, npages),
            dominant_socket=np.array(dominant_socket, dtype=np.int64),
            **fields,
        )

    @classmethod
    def from_reports(
        cls, interval: int, reports: Iterable[RegionReport], **fields
    ) -> "ProfileSnapshot":
        """A snapshot of regions given as rows (hand-built snapshots)."""
        rows = list(reports)
        return cls(
            interval=interval,
            start=np.array([r.start for r in rows], dtype=np.int64),
            npages=np.array([r.npages for r in rows], dtype=np.int64),
            score=np.array([r.score for r in rows], dtype=np.float64),
            node=np.array([r.node for r in rows], dtype=np.int64),
            dominant_socket=np.array([r.dominant_socket for r in rows], dtype=np.int64),
            **fields,
        )

    def __len__(self) -> int:
        return int(self.start.size)

    @property
    def reports(self) -> "RegionRows":
        """The regions as rows, each built when it is read."""
        return RegionRows(self)

    def by_score(self, mask: np.ndarray, hottest_first: bool = False) -> np.ndarray:
        """Indices of the regions ``mask`` selects, coldest first (or
        hottest first), ties in region order.

        This is the order Python's stable ``sorted(key=score)`` and
        ``sorted(key=score, reverse=True)`` give the same regions.
        """
        idx = np.flatnonzero(mask)
        key = self.score[idx]
        return idx[np.argsort(-key if hottest_first else key, kind="stable")]

    def page_scores(self, n_pages: int) -> np.ndarray:
        """Dense per-page hotness: each page gets its region's score."""
        scores = np.zeros(n_pages, dtype=np.float64)
        for start, end, score in zip(self.start.tolist(), (self.start + self.npages).tolist(),
                                     self.score.tolist()):
            scores[start:end] = score
        return scores

    def top_hot_pages(self, volume_pages: int) -> np.ndarray:
        """Pages the profiler would call hot, up to ``volume_pages`` pages.

        Regions are taken hottest-first (score, density already per-page);
        a region is included wholly — profilers cannot see within a region,
        which is precisely DAMON's accuracy problem in Fig. 1.  Only the
        last region taken may be cut, keeping its lowest pages.
        """
        if volume_pages < 0:
            raise ProfilingError(f"negative volume: {volume_pages}")
        hot = self.by_score(self.score > 0, hottest_first=True)
        npages = self.npages[hot]
        before = np.cumsum(npages) - npages  # pages taken ahead of each region
        taken = before < volume_pages
        hot, npages, before = hot[taken], npages[taken], before[taken]
        pages = (np.arange(int(npages.sum()), dtype=np.int64)
                 + np.repeat(self.start[hot] - before, npages))
        return np.sort(pages[:volume_pages])

    def hot_volume_pages(self, score_threshold: float = 0.0) -> int:
        """Pages in regions scoring above ``score_threshold``."""
        return int(self.npages[self.score > score_threshold].sum())


class RegionRows(Sequence):
    """Read-only row view of a snapshot's regions: row ``i`` is built as
    a :class:`RegionReport` when it is read."""

    def __init__(self, snapshot: ProfileSnapshot) -> None:
        self._snapshot = snapshot

    def __len__(self) -> int:
        return len(self._snapshot)

    def __getitem__(self, i: int) -> RegionReport:
        s = self._snapshot
        return RegionReport(int(s.start[i]), int(s.npages[i]), float(s.score[i]),
                            int(s.node[i]), int(s.dominant_socket[i]))


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
