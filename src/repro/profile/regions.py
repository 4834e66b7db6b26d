"""Memory regions: the unit of profiling and migration.

A region is a contiguous span of virtual pages, by default the span of one
last-level page-directory entry (2 MB).  Regions are *logical*: merging and
splitting never touches the page table (Sec. 5.1).  Each region carries its
page-sample quota, the hotness indication from the most recent interval
(``hi``), its exponential moving average (``whi``, Eq. 2), and the last
interval's ``hi`` for the variance signal that drives quota redistribution
(Sec. 5.2).

The split point is huge-page aware (Sec. 5.4): if the midpoint would land
inside a huge page it is nudged to the huge-page boundary, so one huge page
is never profiled by two regions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import nputil

from repro import perfflags
from repro.errors import ConfigError, ProfilingError
from repro.mm.pagetable import PageTable
from repro.units import PAGES_PER_HUGE_PAGE, PAGE_SIZE, format_bytes

#: Default region span: one last-level PDE = 2 MB = 512 base pages.
DEFAULT_REGION_PAGES = PAGES_PER_HUGE_PAGE


@dataclass
class MemoryRegion:
    """One profiling region.

    Attributes:
        start: first base page.
        npages: length in base pages.
        n_samples: page-sample quota for the next interval.
        hi: hotness indication of the last interval (mean detected access
            count over sampled pages, in [0, num_scans]).
        whi: exponential moving average of ``hi`` (Eq. 2).
        prev_hi: ``hi`` of the interval before last (variance signal).
        last_max_diff: max difference in detected counts between sampled
            pages last interval (split signal, Sec. 5.1).
        dominant_socket: socket issuing most accesses (multi-view, -1 unknown).
        hottest_entry: page number of the hottest sampled entry last
            interval (-1 unknown); guides the split point so a hot
            fragment is carved out directly instead of by repeated
            bisection ("the splitting of memory regions ... is able to be
            guided", Sec. 1).
    """

    start: int
    npages: int
    n_samples: int = 1
    hi: float = 0.0
    whi: float = 0.0
    prev_hi: float = 0.0
    last_max_diff: float = 0.0
    dominant_socket: int = -1
    hottest_entry: int = -1

    def __post_init__(self) -> None:
        if self.start < 0 or self.npages < 1:
            raise ConfigError(f"bad region [{self.start}, +{self.npages})")
        if self.n_samples < 1:
            raise ConfigError(f"region needs >= 1 sample, got {self.n_samples}")

    def __setattr__(self, name: str, value) -> None:
        # Owner-notify hook: the containing RegionSet keeps O(1) running
        # totals of quota and coverage, and regions are mutated directly
        # all over the profiler (quota redistribution, ablations, tests).
        # Routing the two aggregated fields through the owner keeps the
        # cached totals correct no matter who mutates the region.
        if name in ("n_samples", "npages"):
            owner = self.__dict__.get("_owner")
            old = self.__dict__.get(name)
            self.__dict__[name] = value
            if owner is not None and old is not None and value != old:
                owner._region_field_changed(name, value - old)
        else:
            self.__dict__[name] = value

    @property
    def end(self) -> int:
        return self.start + self.npages

    @property
    def nbytes(self) -> int:
        return self.npages * PAGE_SIZE

    @property
    def variance_signal(self) -> float:
        """Hotness swing across the last two intervals (Sec. 5.2)."""
        return abs(self.hi - self.prev_hi)

    def record_interval(self, hi: float, max_diff: float, alpha: float) -> None:
        """Fold one interval's observation into the region state.

        Args:
            hi: this interval's hotness indication.
            max_diff: max detected-count difference between sampled pages.
            alpha: EMA weight of the current observation (Eq. 2).
        """
        if not 0.0 <= alpha <= 1.0:
            raise ConfigError(f"alpha must be in [0,1], got {alpha}")
        self.prev_hi = self.hi
        self.hi = float(hi)
        self.last_max_diff = float(max_diff)
        self.whi = alpha * self.hi + (1.0 - alpha) * self.whi

    def entries(self, page_table: PageTable) -> np.ndarray:
        """Unique leaf entries (PTEs / PMD heads) covering this region."""
        pages = np.arange(self.start, self.end, dtype=np.int64)
        return nputil.unique(page_table.entry_index(pages))

    def max_samples(self, page_table: PageTable) -> int:
        """Upper bound on useful samples: distinct entries in the region."""
        return int(self.entries(page_table).size)

    def node(self, page_table: PageTable) -> int:
        """Component holding the majority of this region's pages (-1 if unmapped)."""
        if perfflags.vectorized():
            # Run-length resolution over the page table's placement runs:
            # O(runs overlapping the region) instead of O(npages), and
            # bit-identical — both paths break majority ties toward the
            # lowest node id.
            starts = np.asarray([self.start], dtype=np.int64)
            sizes = np.asarray([self.npages], dtype=np.int64)
            return int(page_table.span_majority_nodes(starts, sizes)[0])
        nodes = page_table.node[self.start : self.end]
        mapped = nodes[nodes >= 0]
        if mapped.size == 0:
            return -1
        values, counts = nputil.unique_counts(mapped)
        return int(values[np.argmax(counts)])

    def pages(self) -> np.ndarray:
        return np.arange(self.start, self.end, dtype=np.int64)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Region([{self.start}, {self.end}), {format_bytes(self.nbytes)}, "
            f"samples={self.n_samples}, hi={self.hi:.2f}, whi={self.whi:.2f})"
        )


@dataclass
class RegionStats:
    """Merge/split counters for Table 7."""

    merges: int = 0
    splits: int = 0
    intervals: int = 0
    region_count_sum: int = 0

    def merged_per_interval(self) -> float:
        return self.merges / self.intervals if self.intervals else 0.0

    def split_per_interval(self) -> float:
        return self.splits / self.intervals if self.intervals else 0.0

    def avg_regions(self) -> float:
        return self.region_count_sum / self.intervals if self.intervals else 0.0


class RegionSet:
    """An ordered, disjoint set of regions with merge/split operations.

    Regions never overlap and are kept sorted by start page.  Adjacency for
    merging means *contiguity* (``a.end == b.start``): the paper merges
    "two contiguous regions".
    """

    def __init__(self, regions: list[MemoryRegion] | None = None) -> None:
        self._regions: list[MemoryRegion] = []
        self._total_samples = 0
        self._total_pages = 0
        self.stats = RegionStats()
        if regions:
            for region in sorted(regions, key=lambda r: r.start):
                self.add(region)

    # -- container ----------------------------------------------------------

    def add(self, region: MemoryRegion) -> None:
        """Insert ``region``, enforcing disjointness."""
        idx = self._insertion_index(region.start)
        if idx > 0 and self._regions[idx - 1].end > region.start:
            raise ProfilingError(f"{region} overlaps {self._regions[idx - 1]}")
        if idx < len(self._regions) and region.end > self._regions[idx].start:
            raise ProfilingError(f"{region} overlaps {self._regions[idx]}")
        self._regions.insert(idx, region)
        self._adopt(region)

    def _adopt(self, region: MemoryRegion) -> None:
        region.__dict__["_owner"] = self
        self._total_samples += region.n_samples
        self._total_pages += region.npages

    def _orphan(self, region: MemoryRegion) -> None:
        region.__dict__["_owner"] = None
        self._total_samples -= region.n_samples
        self._total_pages -= region.npages

    def _region_field_changed(self, name: str, delta: int) -> None:
        """Owner-notify callback from :class:`MemoryRegion.__setattr__`."""
        if name == "n_samples":
            self._total_samples += delta
        else:
            self._total_pages += delta

    def __len__(self) -> int:
        return len(self._regions)

    def __iter__(self):
        return iter(self._regions)

    def __getitem__(self, idx: int) -> MemoryRegion:
        return self._regions[idx]

    @property
    def regions(self) -> tuple[MemoryRegion, ...]:
        return tuple(self._regions)

    def total_samples(self) -> int:
        """Total sample quota, from the cached running total (O(1))."""
        return self._total_samples

    def total_pages(self) -> int:
        """Pages covered by all regions, from the cached total (O(1))."""
        return self._total_pages

    def region_of(self, page: int) -> MemoryRegion:
        """The region containing ``page``."""
        idx = self._insertion_index(page + 1) - 1
        if idx >= 0:
            region = self._regions[idx]
            if region.start <= page < region.end:
                return region
        raise ProfilingError(f"page {page} is not covered by any region")

    # -- formation: merge --------------------------------------------------------

    def merge_pass(
        self,
        tau_m: float,
        top_k_variance: int = 5,
        max_pages: int | None = None,
        heterogeneity_guard: float | None = None,
        use_ema_guard: bool = True,
    ) -> int:
        """Merge contiguous regions whose ``hi`` differs by less than ``tau_m``.

        After each merge the combined sample quota is halved (floored at 1)
        and the saved quota is redistributed to the ``top_k_variance``
        regions with the largest hotness swing (Sec. 5.2).

        Args:
            max_pages: never grow a region beyond this size.  Keeps every
                region migratable as a unit (well under any tier's
                capacity), matching the region sizes the paper reports at
                full machine scale (Table 7: ~hundreds of MB).
            heterogeneity_guard: a region whose sampled pages disagreed by
                more than this last interval is *internally* mixed and is
                never merged — it is still being refined by splits.
                Without the guard, a small hot fragment diluted inside a
                large region keeps the region's mean ``hi`` low, the merge
                pass re-absorbs every split child, and refinement can
                never isolate the fragment.  (This enforces the paper's
                stated invariant that pages within a region exhibit
                similar hotness.)
            use_ema_guard: also require the regions' EMAs (``whi``) to
                agree before merging, so one blinked observation cannot
                absorb a hot region (see the inline comment).  Disabled by
                the formation-ablation study.

        Returns:
            Number of merges performed.
        """
        if tau_m < 0:
            raise ConfigError(f"tau_m must be >= 0, got {tau_m}")
        if max_pages is not None and max_pages < 1:
            raise ConfigError(f"max_pages must be >= 1, got {max_pages}")
        merges = 0
        saved_quota = 0
        i = 0
        while i + 1 < len(self._regions):
            a, b = self._regions[i], self._regions[i + 1]
            fits = max_pages is None or a.npages + b.npages <= max_pages
            homogeneous = heterogeneity_guard is None or (
                a.last_max_diff <= heterogeneity_guard
                and b.last_max_diff <= heterogeneity_guard
            )
            # Both the most recent observation (hi) and the EMA (whi) must
            # agree the regions are alike: one missed scan interval (a
            # PEBS capture miss) zeroes hi but not whi, and without the
            # EMA check a genuinely hot region would be absorbed into its
            # cold neighbourhood on such a blink.
            alike = abs(a.hi - b.hi) < tau_m and (
                not use_ema_guard or abs(a.whi - b.whi) < tau_m
            )
            if fits and homogeneous and a.end == b.start and alike:
                merged = self._merge_pair(a, b)
                combined = a.n_samples + b.n_samples
                merged.n_samples = max(1, combined // 2)
                saved_quota += combined - merged.n_samples
                self._orphan(a)
                self._orphan(b)
                self._regions[i : i + 2] = [merged]
                self._adopt(merged)
                merges += 1
                # Stay at i: the merged region may merge again leftward of
                # the next neighbour.
            else:
                i += 1
        if saved_quota:
            self.redistribute_quota(saved_quota, top_k=top_k_variance)
        self.stats.merges += merges
        return merges

    @staticmethod
    def _merge_pair(a: MemoryRegion, b: MemoryRegion) -> MemoryRegion:
        """Combine two contiguous regions; statistics are size-weighted."""
        total = a.npages + b.npages
        w_a, w_b = a.npages / total, b.npages / total
        return MemoryRegion(
            start=a.start,
            npages=total,
            n_samples=1,  # caller overrides
            hi=w_a * a.hi + w_b * b.hi,
            whi=w_a * a.whi + w_b * b.whi,
            prev_hi=w_a * a.prev_hi + w_b * b.prev_hi,
            last_max_diff=max(a.last_max_diff, b.last_max_diff),
            dominant_socket=a.dominant_socket if a.npages >= b.npages else b.dominant_socket,
        )

    # -- formation: split --------------------------------------------------------

    def split_pass(self, tau_s: float, page_table: PageTable | None = None) -> int:
        """Split regions whose sampled pages disagree by more than ``tau_s``.

        The split point is the midpoint, adjusted to a huge-page boundary
        when a page table is supplied and the midpoint falls inside a huge
        mapping (Sec. 5.4).  The parent's quota is divided evenly so the
        total PTE-scan count is unchanged.

        Returns:
            Number of splits performed.
        """
        if tau_s < 0:
            raise ConfigError(f"tau_s must be >= 0, got {tau_s}")
        splits = 0
        out: list[MemoryRegion] = []
        for region in self._regions:
            if region.last_max_diff > tau_s and region.npages >= 2:
                left, right = self.split_region(region, page_table)
                if right is None:
                    out.append(region)
                else:
                    self._orphan(region)
                    out.extend((left, right))
                    self._adopt(left)
                    self._adopt(right)
                    splits += 1
            else:
                out.append(region)
        self._regions = out
        self.stats.splits += splits
        return splits

    @staticmethod
    def split_region(
        region: MemoryRegion, page_table: PageTable | None = None
    ) -> tuple[MemoryRegion, MemoryRegion | None]:
        """Split one region, huge-page aligned, guided by the hot sample.

        When the profiler recorded which sampled entry was hottest, the
        split lands on that entry's boundary, so a hot fragment is carved
        out of a large mixed region in one or two cuts rather than by
        repeated bisection.  Without guidance the midpoint is used.

        Returns:
            ``(left, right)``; ``right`` is None when no legal split point
            exists (e.g. the region is a single huge page).
        """
        mid = region.start + region.npages // 2
        hot = region.hottest_entry
        if region.start < hot < region.end:
            # Cut just before the hot entry's huge span; if the hot entry
            # leads the region, cut just after it instead.
            aligned_hot = hot - (hot % PAGES_PER_HUGE_PAGE)
            if aligned_hot > region.start:
                mid = aligned_hot
            else:
                mid = region.start + PAGES_PER_HUGE_PAGE
        elif hot == region.start:
            mid = region.start + PAGES_PER_HUGE_PAGE
        if page_table is not None and page_table.is_huge(min(mid, page_table.n_pages - 1)):
            aligned = mid - (mid % PAGES_PER_HUGE_PAGE)
            if aligned <= region.start:
                aligned = region.start + ((mid - region.start) // PAGES_PER_HUGE_PAGE + 1) * PAGES_PER_HUGE_PAGE
            mid = aligned
        if mid <= region.start or mid >= region.end:
            return (region, None)
        quota_left = max(1, region.n_samples // 2)
        quota_right = max(1, region.n_samples - quota_left)
        left = MemoryRegion(
            start=region.start,
            npages=mid - region.start,
            n_samples=quota_left,
            hi=region.hi,
            whi=region.whi,
            prev_hi=region.prev_hi,
            last_max_diff=0.0,
            dominant_socket=region.dominant_socket,
        )
        right = MemoryRegion(
            start=mid,
            npages=region.end - mid,
            n_samples=quota_right,
            hi=region.hi,
            whi=region.whi,
            prev_hi=region.prev_hi,
            last_max_diff=0.0,
            dominant_socket=region.dominant_socket,
        )
        return (left, right)

    # -- quota management --------------------------------------------------------

    def redistribute_quota(self, quota: int, top_k: int = 5) -> None:
        """Give ``quota`` extra samples to the top-``top_k`` variance regions.

        MTM keeps a running top-five of hotness-swing regions (Sec. 5.2);
        the saved samples from merging go to them, round-robin.
        """
        if quota < 0:
            raise ConfigError(f"negative quota: {quota}")
        if quota == 0 or not self._regions:
            return
        # Stable descending argsort over the gathered signal array: same
        # ordering (ties keep insertion order) as the old per-region
        # ``sorted(key=..., reverse=True)`` without building key tuples.
        order = np.argsort(-self._variance_signals(), kind="stable")
        targets = [self._regions[int(i)] for i in order[: max(1, top_k)]]
        # Round-robin from the first target, in closed form.
        base, rem = divmod(quota, len(targets))
        for i, target in enumerate(targets):
            target.n_samples += base + (1 if i < rem else 0)

    def rebalance_to_budget(self, budget: int) -> None:
        """Force the total sample quota to exactly ``budget``.

        Excess is trimmed from the lowest-variance regions (never below one
        sample per region); shortfall goes to the highest-variance regions.
        Requires ``len(self) <= budget``; the overhead controller must merge
        first if not (Sec. 5.3).
        """
        if budget < len(self._regions):
            raise ProfilingError(
                f"budget {budget} < region count {len(self._regions)}; merge first"
            )
        total = self.total_samples()
        if total < budget:
            self.redistribute_quota(budget - total)
        elif total > budget:
            excess = total - budget
            order = np.argsort(self._variance_signals(), kind="stable")
            for i in order:
                region = self._regions[int(i)]
                take = min(excess, region.n_samples - 1)
                region.n_samples -= take
                excess -= take
                if excess == 0:
                    break

    def end_interval(self) -> None:
        """Bump the per-interval statistics (call once per interval)."""
        self.stats.intervals += 1
        self.stats.region_count_sum += len(self._regions)

    # -- construction helpers --------------------------------------------------------

    @classmethod
    def from_spans(
        cls,
        spans: list[tuple[int, int]],
        region_pages: int = DEFAULT_REGION_PAGES,
    ) -> "RegionSet":
        """Carve ``(start, npages)`` spans into fixed-size initial regions.

        This is how MTM seeds regions: one region per valid last-level PDE
        (2 MB by default).  The tail of a span that doesn't fill a whole
        region still becomes a (smaller) region.
        """
        if region_pages < 1:
            raise ConfigError(f"region_pages must be >= 1, got {region_pages}")
        regions = []
        for start, npages in spans:
            offset = start
            remaining = npages
            while remaining > 0:
                size = min(region_pages, remaining)
                regions.append(MemoryRegion(start=offset, npages=size))
                offset += size
                remaining -= size
        return cls(regions)

    # -- internals --------------------------------------------------------------

    def _variance_signals(self) -> np.ndarray:
        """Per-region hotness swings, gathered into one array."""
        return np.fromiter(
            (abs(r.hi - r.prev_hi) for r in self._regions),
            dtype=np.float64,
            count=len(self._regions),
        )

    def as_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Struct-of-arrays snapshot ``(starts, npages, n_samples)``.

        Bulk per-interval operations (the vectorized profiler) gather the
        region list once and operate on arrays; the list of
        :class:`MemoryRegion` objects stays canonical so held references
        and direct mutation keep working.
        """
        n = len(self._regions)
        starts = np.fromiter((r.start for r in self._regions), dtype=np.int64, count=n)
        npages = np.fromiter((r.npages for r in self._regions), dtype=np.int64, count=n)
        samples = np.fromiter((r.n_samples for r in self._regions), dtype=np.int64, count=n)
        return starts, npages, samples

    def _insertion_index(self, start: int) -> int:
        lo, hi = 0, len(self._regions)
        while lo < hi:
            mid = (lo + hi) // 2
            if self._regions[mid].start < start:
                lo = mid + 1
            else:
                hi = mid
        return lo

    def check_invariants(self) -> None:
        """Assert ordering/disjointness and cached totals; used by tests."""
        for a, b in zip(self._regions, self._regions[1:]):
            if a.end > b.start:
                raise ProfilingError(f"regions overlap: {a} / {b}")
            if a.start >= b.start:
                raise ProfilingError(f"regions out of order: {a} / {b}")
        samples = sum(r.n_samples for r in self._regions)
        pages = sum(r.npages for r in self._regions)
        if samples != self._total_samples or pages != self._total_pages:
            raise ProfilingError(
                f"cached totals drifted: samples {self._total_samples} vs {samples}, "
                f"pages {self._total_pages} vs {pages}"
            )
