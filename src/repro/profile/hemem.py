"""HeMem-style PEBS-only profiling (baseline).

HeMem (SOSP'21) never scans PTEs: page hotness comes entirely from PEBS
samples, accumulated per page with periodic cooling.  That makes profiling
nearly free, but sampling randomness misses hot pages — "using
perf-counters alone is not enough to provide high-quality profiling"
(Sec. 5.5), which is what Fig. 12 shows once the working set spills out of
DRAM.  Scores are reported per 2 MB chunk so policies can treat all
profilers uniformly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigError
from repro.mm.mmu import Mmu
from repro.mm.pagetable import PageTable
from repro.perf.events import PEBS_ALL_EVENTS
from repro.perf.pebs import PebsSampler
from repro.profile.base import Profiler, ProfileSnapshot
from repro.profile.regions import DEFAULT_REGION_PAGES
from repro.sim.costmodel import CostModel


@dataclass
class PebsOnlyConfig:
    """HeMem profiling tunables.

    Attributes:
        cooling_interval: intervals between halving of accumulated counts
            (HeMem's cooling).
        chunk_pages: reporting granularity.
    """

    cooling_interval: int = 4
    chunk_pages: int = DEFAULT_REGION_PAGES

    def __post_init__(self) -> None:
        if self.cooling_interval < 1:
            raise ConfigError("cooling_interval must be >= 1")
        if self.chunk_pages < 1:
            raise ConfigError("chunk_pages must be >= 1")


class PebsOnlyProfiler(Profiler):
    """HeMem's counter-only profiler."""

    name = "hemem_pebs"

    def __init__(
        self,
        cost_model: CostModel,
        config: PebsOnlyConfig | None = None,
        rng: np.random.Generator | None = None,
    ) -> None:
        self.cost_model = cost_model
        self.config = config if config is not None else PebsOnlyConfig()
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self._page_table: PageTable | None = None
        self._chunk_starts: np.ndarray | None = None
        self._chunk_sizes: np.ndarray | None = None
        self._scores: np.ndarray | None = None
        self._interval = -1

    def setup(self, page_table: PageTable, spans: list[tuple[int, int]]) -> None:
        self._page_table = page_table
        starts: list[int] = []
        sizes: list[int] = []
        for start, npages in spans:
            offset = start
            remaining = npages
            while remaining > 0:
                size = min(self.config.chunk_pages, remaining)
                starts.append(offset)
                sizes.append(size)
                offset += size
                remaining -= size
        self._chunk_starts = np.array(starts, dtype=np.int64)
        self._chunk_sizes = np.array(sizes, dtype=np.int64)
        self._scores = np.zeros(len(starts), dtype=np.float64)
        self._interval = -1

    def profile(
        self,
        mmu: Mmu,
        pebs: PebsSampler | None = None,
        socket: int = 0,
    ) -> ProfileSnapshot:
        if self._page_table is None or self._scores is None:
            raise ConfigError("profile() before setup()")
        if pebs is None:
            raise ConfigError("PEBS-only profiling requires a PebsSampler")
        page_table = self._page_table
        self._interval += 1

        # HeMem programs DRAM + NVM events and samples continuously.
        original_events = pebs.events
        pebs.events = PEBS_ALL_EVENTS
        try:
            sample_set = pebs.sample(mmu.current_batch, page_table, socket=socket)
        finally:
            pebs.events = original_events

        if self._interval % self.config.cooling_interval == 0 and self._interval > 0:
            self._scores *= 0.5  # HeMem's cooling halves all counts.

        if sample_set.pages.size:
            idx = np.searchsorted(self._chunk_starts, sample_set.pages, side="right") - 1
            valid = idx >= 0
            np.add.at(self._scores, idx[valid], sample_set.samples[valid].astype(np.float64))

        time = self.cost_model.pebs_time(sample_set.total_samples)
        obs = self.obs
        if obs is not None:
            self._emit_scan(
                obs,
                interval=self._interval,
                regions=int(self._chunk_starts.size),
                scanned=int(self._chunk_starts.size),
                scans_used=0,
                budget=0,
                over_budget=False,
                pebs_samples=sample_set.total_samples,
                profiling_time=time,
            )
        return ProfileSnapshot.from_regions(
            self._interval, page_table, self._chunk_starts, self._chunk_sizes, self._scores,
            profiling_time=time,
            pebs_samples=sample_set.total_samples,
        )

    def memory_overhead_bytes(self) -> int:
        return 8 * (self._scores.size if self._scores is not None else 0)
