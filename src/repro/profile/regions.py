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

A :class:`RegionSet` stores its regions as nine columns, one numpy array
per field of :class:`MemoryRegion`, so a profiler selects, scores and
re-forms tens of thousands of regions with array operations.  The merge
pass is the one formation step that stays a loop (over Python scalars):
a merged region may merge again with its next neighbour, so each step
depends on the one before.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass

import numpy as np

from repro.errors import ConfigError, ProfilingError
from repro.mm.pagetable import PageTable
from repro.units import PAGES_PER_HUGE_PAGE, PAGE_SIZE, format_bytes

#: Default region span: one last-level PDE = 2 MB = 512 base pages.
DEFAULT_REGION_PAGES = PAGES_PER_HUGE_PAGE

#: The per-region columns of a :class:`RegionSet`: name -> (dtype, default).
COLUMNS = {
    "start": (np.int64, None),
    "npages": (np.int64, None),
    "n_samples": (np.int64, 1),
    "hi": (np.float64, 0.0),
    "whi": (np.float64, 0.0),
    "prev_hi": (np.float64, 0.0),
    "last_max_diff": (np.float64, 0.0),
    "dominant_socket": (np.int64, -1),
    "hottest_entry": (np.int64, -1),
}


@dataclass
class MemoryRegion:
    """One profiling region, as a plain row.

    A :class:`RegionSet` is built from rows, and its iteration and
    indexing yield rows, but a row is a copy: writing one does not write
    the set.  Writes go through the set's columns.

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

    @property
    def end(self) -> int:
        return self.start + self.npages

    @property
    def nbytes(self) -> int:
        return self.npages * PAGE_SIZE

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
    "two contiguous regions".  Each field of :class:`MemoryRegion` is an
    attribute holding one array (``rs.start``, ``rs.whi``, ...), row ``i``
    of every array describing region ``i``.
    """

    start: np.ndarray
    npages: np.ndarray
    n_samples: np.ndarray
    hi: np.ndarray
    whi: np.ndarray
    prev_hi: np.ndarray
    last_max_diff: np.ndarray
    dominant_socket: np.ndarray
    hottest_entry: np.ndarray

    def __init__(self, regions: list[MemoryRegion] | None = None) -> None:
        self.stats = RegionStats()
        rows = [astuple(r) for r in regions or ()]
        self._load({
            name: np.array([row[i] for row in rows], dtype=dtype)
            for i, (name, (dtype, _)) in enumerate(COLUMNS.items())
        })

    @classmethod
    def from_columns(cls, start, npages, **fields) -> "RegionSet":
        """A set from per-region arrays; omitted fields take their default."""
        unknown = set(fields) - set(COLUMNS)
        if unknown:
            raise ConfigError(f"unknown region fields: {sorted(unknown)}")
        fields.update(start=start, npages=npages)
        n = len(np.asarray(start))
        cols = {
            name: np.array(np.broadcast_to(fields.get(name, default), n), dtype=dtype)
            for name, (dtype, default) in COLUMNS.items()
        }
        if np.any(cols["start"] < 0) or np.any(cols["npages"] < 1):
            raise ConfigError("bad region: start < 0 or npages < 1")
        if np.any(cols["n_samples"] < 1):
            raise ConfigError("region needs >= 1 sample")
        rs = cls()
        rs._load(cols)
        return rs

    def _load(self, cols: dict[str, np.ndarray]) -> None:
        """Adopt ``cols`` sorted by start, rejecting overlaps."""
        start = cols["start"]
        if np.any(start[1:] < start[:-1]):
            order = np.argsort(start, kind="stable")
            cols = {name: col[order] for name, col in cols.items()}
        self._assign(cols)
        overlap = np.flatnonzero(self.start[1:] < self.start[:-1] + self.npages[:-1])
        if overlap.size:
            i = int(overlap[0]) + 1
            raise ProfilingError(f"{self[i]} overlaps {self[i - 1]}")

    def _assign(self, cols: dict[str, np.ndarray]) -> None:
        for name in COLUMNS:
            setattr(self, name, cols[name])

    # -- container ----------------------------------------------------------

    def add(self, region: MemoryRegion) -> None:
        """Insert ``region``, enforcing disjointness."""
        idx = int(np.searchsorted(self.start, region.start))
        if idx > 0 and self.start[idx - 1] + self.npages[idx - 1] > region.start:
            raise ProfilingError(f"{region} overlaps {self[idx - 1]}")
        if idx < len(self) and region.end > self.start[idx]:
            raise ProfilingError(f"{region} overlaps {self[idx]}")
        self._assign({
            name: np.insert(getattr(self, name), idx, value)
            for name, value in zip(COLUMNS, astuple(region))
        })

    def __len__(self) -> int:
        return len(self.start)

    def __iter__(self):
        columns = [getattr(self, name).tolist() for name in COLUMNS]
        return (MemoryRegion(*row) for row in zip(*columns))

    def __getitem__(self, idx: int) -> MemoryRegion:
        return MemoryRegion(*(getattr(self, name)[idx].item() for name in COLUMNS))

    @property
    def end(self) -> np.ndarray:
        """Per-region end pages (exclusive)."""
        return self.start + self.npages

    def total_samples(self) -> int:
        """Total sample quota."""
        return int(self.n_samples.sum())

    def total_pages(self) -> int:
        """Pages covered by all regions."""
        return int(self.npages.sum())

    def region_of(self, page: int) -> MemoryRegion:
        """The region containing ``page``."""
        idx = int(np.searchsorted(self.start, page, side="right")) - 1
        if idx >= 0 and page < self.start[idx] + self.npages[idx]:
            return self[idx]
        raise ProfilingError(f"page {page} is not covered by any region")

    def variance_signals(self) -> np.ndarray:
        """Per-region hotness swings across the last two intervals (Sec. 5.2)."""
        return np.abs(self.hi - self.prev_hi)

    def record_interval(self, idx: np.ndarray, hi, max_diff, alpha: float) -> None:
        """Fold one interval's observation into regions ``idx``.

        Args:
            idx: distinct region indices.
            hi: this interval's hotness indication, per index or scalar.
            max_diff: max detected-count difference between sampled pages.
            alpha: EMA weight of the current observation (Eq. 2).
        """
        if not 0.0 <= alpha <= 1.0:
            raise ConfigError(f"alpha must be in [0,1], got {alpha}")
        self.prev_hi[idx] = self.hi[idx]
        self.hi[idx] = hi
        self.last_max_diff[idx] = max_diff
        self.whi[idx] = alpha * self.hi[idx] + (1.0 - alpha) * self.whi[idx]

    def as_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The ``(start, npages, n_samples)`` columns themselves."""
        return self.start, self.npages, self.n_samples

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
        regions with the largest hotness swing (Sec. 5.2).  A merged
        region's statistics are size-weighted, its ``last_max_diff`` is
        the larger of its parts', its ``dominant_socket`` the larger
        part's, and its ``hottest_entry`` unknown.

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
        n = len(self)
        if n < 2:
            return 0
        starts = self.start.tolist()
        sizes = self.npages.tolist()
        quotas = self.n_samples.tolist()
        his = self.hi.tolist()
        whis = self.whi.tolist()
        prevs = self.prev_hi.tolist()
        diffs = self.last_max_diff.tolist()
        sockets = self.dominant_socket.tolist()
        # One pass with the region being grown in scalars ``a_*``: each
        # input region either merges into it or closes it and starts the
        # next, so a merged region can merge again with its neighbour.
        firsts = [0]  # input index each output region starts at
        grown = []  # (output index, npages, n_samples, hi, whi, prev_hi, max_diff, socket)
        a_end = starts[0] + sizes[0]
        a_np, a_ns, a_hi, a_whi = sizes[0], quotas[0], his[0], whis[0]
        a_prev, a_diff, a_sock = prevs[0], diffs[0], sockets[0]
        a_merged = False
        merges = 0
        saved_quota = 0
        for j in range(1, n):
            b_np, b_hi, b_whi, b_diff = sizes[j], his[j], whis[j], diffs[j]
            fits = max_pages is None or a_np + b_np <= max_pages
            homogeneous = heterogeneity_guard is None or (
                a_diff <= heterogeneity_guard and b_diff <= heterogeneity_guard
            )
            # Both the most recent observation (hi) and the EMA (whi) must
            # agree the regions are alike: one missed scan interval (a
            # PEBS capture miss) zeroes hi but not whi, and without the
            # EMA check a genuinely hot region would be absorbed into its
            # cold neighbourhood on such a blink.
            alike = abs(a_hi - b_hi) < tau_m and (
                not use_ema_guard or abs(a_whi - b_whi) < tau_m
            )
            if fits and homogeneous and a_end == starts[j] and alike:
                total = a_np + b_np
                w_a, w_b = a_np / total, b_np / total
                a_hi = w_a * a_hi + w_b * b_hi
                a_whi = w_a * a_whi + w_b * b_whi
                a_prev = w_a * a_prev + w_b * prevs[j]
                a_diff = max(a_diff, b_diff)
                a_sock = a_sock if a_np >= b_np else sockets[j]
                combined = a_ns + quotas[j]
                a_ns = max(1, combined // 2)
                saved_quota += combined - a_ns
                a_np = total
                a_end += b_np
                a_merged = True
                merges += 1
                continue
            if a_merged:
                grown.append((len(firsts) - 1, a_np, a_ns, a_hi, a_whi, a_prev, a_diff, a_sock))
            firsts.append(j)
            a_end = starts[j] + b_np
            a_np, a_ns, a_hi, a_whi = b_np, quotas[j], b_hi, b_whi
            a_prev, a_diff, a_sock = prevs[j], b_diff, sockets[j]
            a_merged = False
        if a_merged:
            grown.append((len(firsts) - 1, a_np, a_ns, a_hi, a_whi, a_prev, a_diff, a_sock))
        if merges:
            cols = {name: getattr(self, name)[firsts] for name in COLUMNS}
            out, *values = zip(*grown)
            out = list(out)
            for name, column in zip(("npages", "n_samples", "hi", "whi", "prev_hi",
                                     "last_max_diff", "dominant_socket"), values):
                cols[name][out] = column
            cols["hottest_entry"][out] = -1
            self._assign(cols)
        if saved_quota:
            self.redistribute_quota(saved_quota, top_k=top_k_variance)
        self.stats.merges += merges
        return merges

    # -- formation: split --------------------------------------------------------

    def split_pass(self, tau_s: float, page_table: PageTable | None = None) -> int:
        """Split regions whose sampled pages disagree by more than ``tau_s``.

        The split point is the midpoint, adjusted to a huge-page boundary
        when a page table is supplied and the midpoint falls inside a huge
        mapping (Sec. 5.4).  When the profiler recorded which sampled
        entry was hottest, the split lands on that entry's boundary
        instead, so a hot fragment is carved out of a large mixed region
        in one or two cuts rather than by repeated bisection.  A region
        with no legal split point (e.g. a single huge page) stays whole.
        The parent's quota is divided evenly so the total PTE-scan count
        is unchanged; the children inherit its hotness and socket.

        Returns:
            Number of splits performed.
        """
        if tau_s < 0:
            raise ConfigError(f"tau_s must be >= 0, got {tau_s}")
        rows = np.flatnonzero((self.last_max_diff > tau_s) & (self.npages >= 2))
        start = self.start[rows]
        end = start + self.npages[rows]
        mid = self._split_points(start, end, self.hottest_entry[rows], page_table)
        legal = (mid > start) & (mid < end)
        rows, start, end, mid = rows[legal], start[legal], end[legal], mid[legal]
        splits = int(rows.size)
        if splits:
            reps = np.ones(len(self), dtype=np.int64)
            reps[rows] = 2
            cols = {name: np.repeat(getattr(self, name), reps) for name in COLUMNS}
            left = rows + np.arange(splits)  # output index of each left child
            right = left + 1
            quota_left = np.maximum(1, self.n_samples[rows] // 2)
            cols["npages"][left] = mid - start
            cols["start"][right] = mid
            cols["npages"][right] = end - mid
            cols["n_samples"][left] = quota_left
            cols["n_samples"][right] = np.maximum(1, self.n_samples[rows] - quota_left)
            for side in (left, right):
                cols["last_max_diff"][side] = 0.0
                cols["hottest_entry"][side] = -1
            self._assign(cols)
        self.stats.splits += splits
        return splits

    @staticmethod
    def _split_points(
        start: np.ndarray, end: np.ndarray, hot: np.ndarray, page_table: PageTable | None
    ) -> np.ndarray:
        """Split page of each ``[start, end)``, huge-page aligned and
        guided by its hottest sampled entry ``hot`` (-1 unknown)."""
        P = PAGES_PER_HUGE_PAGE
        mid = start + (end - start) // 2
        # Cut just before the hot entry's huge span; if the hot entry
        # leads the region, cut just after it instead.
        aligned_hot = hot - hot % P
        inside = (start < hot) & (hot < end)
        mid = np.where(inside & (aligned_hot > start), aligned_hot, mid)
        mid = np.where((inside & (aligned_hot <= start)) | (hot == start), start + P, mid)
        if page_table is not None and mid.size:
            huge = page_table.is_huge(np.minimum(mid, page_table.n_pages - 1))
            aligned = mid - mid % P
            aligned = np.where(aligned <= start, start + ((mid - start) // P + 1) * P, aligned)
            mid = np.where(huge, aligned, mid)
        return mid

    # -- quota management --------------------------------------------------------

    def redistribute_quota(self, quota: int, top_k: int = 5) -> None:
        """Give ``quota`` extra samples to the top-``top_k`` variance regions.

        MTM keeps a running top-five of hotness-swing regions (Sec. 5.2);
        the saved samples from merging go to them, round-robin (ties keep
        region order).
        """
        if quota < 0:
            raise ConfigError(f"negative quota: {quota}")
        if quota == 0 or not len(self):
            return
        targets = np.argsort(-self.variance_signals(), kind="stable")[: max(1, top_k)]
        # Round-robin from the first target, in closed form.
        base, rem = divmod(quota, len(targets))
        extra = np.full(len(targets), base, dtype=np.int64)
        extra[:rem] += 1
        self.n_samples[targets] += extra

    def rebalance_to_budget(self, budget: int) -> None:
        """Force the total sample quota to exactly ``budget``.

        Excess is trimmed from the lowest-variance regions (never below one
        sample per region); shortfall goes to the highest-variance regions.
        Requires ``len(self) <= budget``; the overhead controller must merge
        first if not (Sec. 5.3).
        """
        if budget < len(self):
            raise ProfilingError(
                f"budget {budget} < region count {len(self)}; merge first"
            )
        total = self.total_samples()
        if total < budget:
            self.redistribute_quota(budget - total)
        elif total > budget:
            # Trim greedily in ascending variance: each region gives what
            # it can spare until the excess is gone (a clipped prefix sum).
            order = np.argsort(self.variance_signals(), kind="stable")
            spare = self.n_samples[order] - 1
            before = np.cumsum(spare) - spare
            self.n_samples[order] -= np.minimum(spare, np.maximum(total - budget - before, 0))

    def end_interval(self) -> None:
        """Bump the per-interval statistics (call once per interval)."""
        self.stats.intervals += 1
        self.stats.region_count_sum += len(self)

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
        spans = np.asarray(spans, dtype=np.int64).reshape(-1, 2)
        sizes = np.maximum(spans[:, 1], 0)
        counts = -(-sizes // region_pages)
        offset = (np.arange(int(counts.sum())) - np.repeat(np.cumsum(counts) - counts, counts))
        offset *= region_pages
        return cls.from_columns(
            start=np.repeat(spans[:, 0], counts) + offset,
            npages=np.minimum(region_pages, np.repeat(sizes, counts) - offset),
        )

    def check_invariants(self) -> None:
        """Assert column shapes, ordering, disjointness and field bounds;
        used by tests."""
        n = len(self)
        for name, (dtype, _) in COLUMNS.items():
            col = getattr(self, name)
            if col.shape != (n,) or col.dtype != dtype:
                raise ProfilingError(f"column {name} is {col.dtype}{col.shape}, want {n} rows")
        if np.any(self.start[1:] <= self.start[:-1]):
            raise ProfilingError("regions out of order")
        if np.any(self.start[1:] < self.end[:-1]):
            raise ProfilingError("regions overlap")
        if n and (self.start[0] < 0 or np.any(self.npages < 1) or np.any(self.n_samples < 1)):
            raise ProfilingError("region with start < 0, npages < 1 or n_samples < 1")
