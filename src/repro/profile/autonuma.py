"""Random-window profiling: AutoNUMA / AutoTiering style (baseline).

Tiered-AutoNUMA and AutoTiering both profile by picking a random virtual
window each interval (256 MB in the paper, scaled with the machine here),
un-mapping its PTEs (present bit / PROT_NONE) and counting the hint faults
the next accesses take (Sec. 9.3).  Hotness knowledge therefore arrives
slowly and randomly — the "uncontrolled profiling quality" of Fig. 1.

The *patched* tiered-AutoNUMA adds most-frequently-used (MFU) hot-page
selection: per-chunk fault counts are accumulated with decay and an
automatically adjusted hot threshold, which identifies much more hot
memory (Table 3) even though the sampling stays random.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import nputil
from repro.errors import ConfigError
from repro.mm.mmu import Mmu
from repro.mm.pagetable import PageTable
from repro.perf.pebs import PebsSampler
from repro.profile.base import Profiler, ProfileSnapshot
from repro.profile.regions import DEFAULT_REGION_PAGES
from repro.sim.costmodel import CostModel
from repro.units import MiB, PAGE_SIZE


@dataclass
class RandomWindowConfig:
    """Random-window profiler tunables.

    Attributes:
        window_bytes: virtual window profiled per interval, at paper
            scale (256 MB); multiplied by the cost model's machine scale.
        interval: profiling interval in seconds.
        decay: multiplicative decay of per-chunk scores per interval
            (MFU accumulation).
        mfu: enable patched-AutoNUMA MFU accumulation; vanilla (False)
            only trusts the current interval's faults.
        hot_fault_exposure: patched kernels grade hotness by *hint-fault
            latency* — only entries that fault quickly after arming count
            as hot.  This is the detection window as a fraction of the
            interval; vanilla ignores it (any fault counts).
        chunk_pages: reporting granularity (2 MB chunks).
    """

    window_bytes: int = 256 * MiB
    interval: float = 10.0
    decay: float = 0.7
    mfu: bool = True
    hot_fault_exposure: float = 0.05
    chunk_pages: int = DEFAULT_REGION_PAGES

    def __post_init__(self) -> None:
        if self.window_bytes < PAGE_SIZE:
            raise ConfigError("window must be at least one page")
        if not 0.0 <= self.decay < 1.0:
            raise ConfigError(f"decay must be in [0,1), got {self.decay}")
        if self.chunk_pages < 1:
            raise ConfigError("chunk_pages must be >= 1")


class RandomWindowProfiler(Profiler):
    """AutoNUMA/AutoTiering hint-fault profiling over random windows."""

    name = "random_window"

    def __init__(
        self,
        cost_model: CostModel,
        config: RandomWindowConfig | None = None,
        rng: np.random.Generator | None = None,
    ) -> None:
        self.cost_model = cost_model
        self.config = config if config is not None else RandomWindowConfig()
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self._page_table: PageTable | None = None
        self._spans: list[tuple[int, int]] = []
        self._chunk_starts: np.ndarray | None = None
        self._chunk_sizes: np.ndarray | None = None
        self._scores: np.ndarray | None = None
        self._interval = -1

    @property
    def window_pages(self) -> int:
        """Profiled window in pages, scaled with the machine."""
        scaled = self.config.window_bytes * self.cost_model.params.scale
        return max(1, int(scaled) // PAGE_SIZE)

    def setup(self, page_table: PageTable, spans: list[tuple[int, int]]) -> None:
        self._page_table = page_table
        self._spans = list(spans)
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
        cfg = self.config
        page_table = self._page_table
        self._interval += 1

        if cfg.mfu:
            self._scores *= cfg.decay
        else:
            self._scores.fill(0.0)

        # Pick one random window inside the total span footprint.
        total_pages = sum(n for _, n in self._spans)
        win = min(self.window_pages, total_pages)
        offset = int(self.rng.integers(0, max(1, total_pages - win + 1)))
        window_pages = self._pages_at_offset(offset, win)

        # Fault-based detection over the window's entries.  Vanilla counts
        # any hint fault; patched kernels grade by fault latency, which
        # behaves like a short detection window (only fast-faulting = hot
        # entries score).
        entries = nputil.unique(page_table.entry_index(window_pages))
        if cfg.mfu:
            detected = mmu.scan_detect(entries, 1, self.rng, exposure=cfg.hot_fault_exposure)
            faults = int(mmu.fault_detect(entries).sum())  # all faults cost time
        else:
            detected = mmu.fault_detect(entries)
            faults = int(detected.sum())

        # Attribute detections to chunks.
        touched = entries[detected > 0]
        if touched.size:
            idx = np.searchsorted(self._chunk_starts, touched, side="right") - 1
            np.add.at(self._scores, idx, 1.0)

        # Cost: arming PTEs is a scan-like write per window entry, plus a
        # hint fault per detected access.
        time = self.cost_model.scan_time(int(entries.size)) + self.cost_model.hint_fault_time(faults)

        return ProfileSnapshot.from_regions(
            self._interval, page_table, self._chunk_starts, self._chunk_sizes, self._scores,
            profiling_time=time,
            scans_performed=int(entries.size),
        )

    def memory_overhead_bytes(self) -> int:
        return 8 * (self._scores.size if self._scores is not None else 0)

    # -- internals --------------------------------------------------------------

    def _pages_at_offset(self, offset: int, count: int) -> np.ndarray:
        """``count`` consecutive footprint pages starting at logical ``offset``."""
        pages = []
        for start, npages in self._spans:
            if offset >= npages:
                offset -= npages
                continue
            take = min(count, npages - offset)
            pages.append(np.arange(start + offset, start + offset + take, dtype=np.int64))
            count -= take
            offset = 0
            if count == 0:
                break
        if not pages:
            return np.empty(0, dtype=np.int64)
        return np.concatenate(pages)
