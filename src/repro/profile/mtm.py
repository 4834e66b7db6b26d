"""MTM's adaptive memory profiler (Sec. 5).

The design principles, mapped to code:

* **Overhead control via scan counting (Sec. 5.3)** — the per-interval
  budget ``num_ps`` comes from Eq. 1; the region count is forced under the
  budget by *escalating the merge threshold* ``tau_m`` across intervals,
  never by changing ``num_scans`` (the paper found that perturbs migration
  decisions for >20% of regions).
* **Adaptive page sampling (Sec. 5.2)** — quota saved by merges is
  redistributed to the top-five regions by hotness swing across the last
  two intervals; splits divide quota evenly, conserving total scans.
* **Multi-scan (Sec. 5.1)** — every sampled page's PTE is scanned
  ``num_scans`` (default 3) times per interval, so region hotness is a
  count in [0, num_scans], not a binary touched-bit.
* **PEBS-assisted scan (Sec. 5.5)** — on the slowest tier, regions are
  only PTE-scanned if briefly-activated counters saw traffic there, making
  hot-region discovery event-driven instead of interval-driven.
* **Huge-page awareness (Sec. 5.4)** — sampling operates on leaf *entries*
  (a 2 MB mapping is one entry) and splits are nudged to huge boundaries
  by the region machinery.

Ablation flags reproduce the "w/o AMR / APS / OC / PEBS" variants of Fig. 7.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from repro import kernels, nputil
from repro.errors import ConfigError, SampleLossError
from repro.mm.mmu import Mmu
from repro.mm.pagetable import PageTable
from repro.perf.pebs import PebsSampler
from repro.profile.base import Profiler, ProfileSnapshot
from repro.profile.regions import DEFAULT_REGION_PAGES, RegionSet
from repro.sim.costmodel import CostModel


@dataclass
class MtmProfilerConfig:
    """Tunables of the MTM profiler (paper defaults).

    Attributes:
        interval: profiling interval t_mi in seconds.
        overhead_constraint: fraction of app time allowed for profiling.
        num_scans: PTE scans per sampled page per interval.
        alpha: EMA weight for WHI (Eq. 2).
        tau_m: merge threshold; None = num_scans / 3.
        tau_s: split threshold; None = 2 * num_scans / 3.
        tau_m_escalation_step: additive tau_m increase per interval while
            the region count exceeds the budget.
        scan_exposure: fraction of the interval one scan's detection window
            covers.  ``None`` derives it from the profiling pass duration,
            ``overhead_constraint / num_scans`` — MTM's scans run
            back-to-back inside the pass, which is what keeps detection
            rate-sensitive instead of saturating (see repro.mm.mmu).
        top_k_variance: regions receiving redistributed quota.
        region_pages: initial region span (one last-level PDE).
        pebs_duty_cycle: fraction of the interval PEBS is active.
        hint_every_scans: one hint fault per this many scans (Sec. 6.2).
        max_region_pages: size cap for merged regions; ``None`` derives
            one eighth of the smallest component's capacity, so any region
            remains migratable as a unit.
        adaptive_regions: False disables merge/split (ablation "w/o AMR").
        adaptive_sampling: False redistributes quota randomly ("w/o APS").
        overhead_control: False disables budget enforcement ("w/o OC").
        use_pebs: False profiles the slowest tier like any other ("w/o PEBS").
        guided_splits: False splits at the midpoint instead of at the hot
            sample's boundary (formation-model ablation; see DESIGN.md).
        ema_merge_guard: False lets a single blinked observation merge a
            hot region into cold neighbours (formation-model ablation).
        heterogeneity_guard: False lets internally mixed regions merge
            (formation-model ablation).
    """

    interval: float = 10.0
    overhead_constraint: float = 0.05
    num_scans: int = 3
    alpha: float = 0.5
    tau_m: float | None = None
    tau_s: float | None = None
    tau_m_escalation_step: float | None = None
    scan_exposure: float | None = None
    max_region_pages: int | None = None
    top_k_variance: int = 5
    region_pages: int = DEFAULT_REGION_PAGES
    pebs_duty_cycle: float = 0.10
    hint_every_scans: int = 12
    adaptive_regions: bool = True
    adaptive_sampling: bool = True
    overhead_control: bool = True
    use_pebs: bool = True
    guided_splits: bool = True
    ema_merge_guard: bool = True
    heterogeneity_guard: bool = True

    def __post_init__(self) -> None:
        if self.num_scans < 1:
            raise ConfigError(f"num_scans must be >= 1, got {self.num_scans}")
        if not 0.0 <= self.alpha <= 1.0:
            raise ConfigError(f"alpha must be in [0,1], got {self.alpha}")
        if self.tau_m is None:
            self.tau_m = self.num_scans / 3.0
        if self.tau_s is None:
            self.tau_s = 2.0 * self.num_scans / 3.0
        if not 0.0 <= self.tau_m <= self.num_scans:
            raise ConfigError(f"tau_m must be in [0, num_scans], got {self.tau_m}")
        if not 0.0 <= self.tau_s <= self.num_scans:
            raise ConfigError(f"tau_s must be in [0, num_scans], got {self.tau_s}")
        if self.tau_m_escalation_step is None:
            self.tau_m_escalation_step = self.num_scans / 6.0
        if self.scan_exposure is None:
            self.scan_exposure = self.overhead_constraint / self.num_scans
        if not 0.0 < self.scan_exposure <= 1.0:
            raise ConfigError(f"scan_exposure must be in (0,1], got {self.scan_exposure}")


#: Bookkeeping bytes MTM stores per 2 MB of footprint (region id, address
#: range, two hotness floats, hash-map slot) — calibrated to Table 5
#: (240 MB for a 512 GB footprint).
BYTES_PER_FOOTPRINT_REGION = 960


class MtmProfiler(Profiler):
    """The adaptive profiler of Sec. 5.

    Args:
        cost_model: machine cost model (budget Eq. 1, scan pricing).
        config: tunables; paper defaults when omitted.
        rng: random source for page sampling.
        slowest_nodes: component nodes treated as the slowest tier (PEBS
            filter applies there).  Default: the last tier of socket 0's
            view.
    """

    name = "mtm"

    def __init__(
        self,
        cost_model: CostModel,
        config: MtmProfilerConfig | None = None,
        rng: np.random.Generator | None = None,
        slowest_nodes: frozenset[int] | None = None,
    ) -> None:
        self.cost_model = cost_model
        self.config = config if config is not None else MtmProfilerConfig()
        self.rng = rng if rng is not None else np.random.default_rng(0)
        if slowest_nodes is None:
            # The PMM events cover every PM component (Sec. 8), so all slow
            # (non-DRAM) tiers get the event-driven treatment.
            from repro.hw.tier import MemoryKind

            slowest_nodes = frozenset(
                c.node_id
                for c in cost_model.topology.components
                if c.kind != MemoryKind.DRAM
            )
            if not slowest_nodes:
                view = cost_model.topology.view(0)
                slowest_nodes = frozenset({view.node_at_tier(view.num_tiers)})
        self.slowest_nodes = slowest_nodes
        if self.config.max_region_pages is None:
            smallest = min(c.capacity_pages for c in cost_model.topology.components)
            self.config.max_region_pages = max(DEFAULT_REGION_PAGES, smallest // 8)
        self.regions: RegionSet | None = None
        self._page_table: PageTable | None = None
        self._tau_m_current: float = self.config.tau_m
        self._interval = -1
        self._scan_counter = 0  # drives the 1-hint-fault-per-12-scans cadence
        self._footprint_pages = 0
        self._last_pebs_time = 0.0
        # Region-aligned unique leaf entries ``(entries, offsets)``, as
        # ``PageTable.span_entries`` returns them for the region layout,
        # valid as of the page table's entry_version below.  Formation
        # joins and cuts the runs, and only regions whose page->entry map
        # was dirtied (huge collapse/split) are gathered again.
        self._entry_cache: tuple[np.ndarray, np.ndarray] | None = None
        self._entry_cache_version = -1

    # -- lifecycle --------------------------------------------------------------

    def setup(self, page_table: PageTable, spans: list[tuple[int, int]]) -> None:
        self._page_table = page_table
        self.regions = RegionSet.from_spans(spans, region_pages=self.config.region_pages)
        self._footprint_pages = sum(n for _, n in spans)
        self._tau_m_current = self.config.tau_m
        self._interval = -1
        self._entry_cache = None
        self._entry_cache_version = -1

    @property
    def budget(self) -> int:
        """Eq. 1: total page samples allowed this interval.

        The overhead constraint covers *all* profiling work, so the PTE
        scan budget yields whatever the counters consumed last interval
        (PEBS activation + sample processing).
        """
        pebs_share = self._last_pebs_time / self.config.interval
        effective = max(0.2 * self.config.overhead_constraint,
                        self.config.overhead_constraint - pebs_share)
        return self.cost_model.profiling_budget_pages(
            self.config.interval,
            effective,
            self.config.num_scans,
            with_hint_amortization=True,
        )

    def memory_overhead_bytes(self) -> int:
        footprint_regions = max(1, self._footprint_pages // DEFAULT_REGION_PAGES)
        return footprint_regions * BYTES_PER_FOOTPRINT_REGION

    # -- the interval ------------------------------------------------------------

    def profile(
        self,
        mmu: Mmu,
        pebs: PebsSampler | None = None,
        socket: int = 0,
    ) -> ProfileSnapshot:
        if self.regions is None or self._page_table is None:
            raise ConfigError("profile() before setup()")
        cfg = self.config
        page_table = self._page_table
        regions = self.regions
        self._interval += 1
        budget = self.budget
        obs = self.obs

        # -- PEBS filter for the slowest tier (Sec. 5.5) ------------------
        pebs_hot_entries: np.ndarray | None = None
        pebs_samples = 0
        if cfg.use_pebs and pebs is not None:
            try:
                sample_set = pebs.sample(
                    mmu.current_batch, page_table, socket=socket, duty_cycle=cfg.pebs_duty_cycle
                )
            except SampleLossError:
                # Ring-buffer overflow lost the window: profile this
                # interval without the counter filter (every slow-tier
                # region looks idle, decays, and is rediscovered once the
                # counters are back) rather than aborting the pass.
                sample_set = None
            if sample_set is not None:
                pebs_samples = sample_set.total_samples
                if sample_set.pages.size:
                    pebs_hot_entries = nputil.unique(page_table.entry_index(sample_set.pages))

        # -- choose which regions to profile -------------------------------
        # Three outcomes per region: scanned (gets fresh hi), observed-idle
        # (PEBS saw nothing in a PM region -> decays toward cold), or
        # deferred for budget (keeps stale hi; the rotation ensures it is
        # scanned in a later interval).
        pebs_active = cfg.use_pebs and pebs is not None
        with obs.span("scan.resolve", cat="profile") if obs is not None else nullcontext():
            # Every region's entries come from the region-aligned cache;
            # only spans invalidated by huge-page transitions since last
            # interval are gathered again.
            entries, offsets = self._region_entries(page_table)
            scan_idx, chosen, chosen_offsets, idle = self._select(
                entries, offsets, pebs_active, pebs_hot_entries
            )

        # -- overhead control: fit the scan budget (Sec. 5.3) ----------------
        lengths = np.diff(chosen_offsets)
        over_budget = int(chosen_offsets[-1]) > budget
        if cfg.overhead_control and over_budget:
            # Rotate which candidates get cut so coverage is eventually
            # full; keep candidates until the budget is spent, the last
            # one cut to fit.
            offset = (self._interval * budget) % max(1, len(scan_idx))
            order = np.roll(np.arange(len(scan_idx)), -offset)
            before = np.cumsum(lengths[order]) - lengths[order]
            order = order[before < budget]
            lengths = np.minimum(lengths[order], budget - before[: order.size])
            scan_idx = scan_idx[order]
            chosen, chosen_offsets = _gather_runs(chosen, chosen_offsets[order], lengths)

        # -- injected scan truncation ----------------------------------------
        # A preempted profiling pass covers only a prefix of the pages it
        # sampled; the region still gets a (noisier) hotness estimate from
        # whatever was visited before the preemption.
        if self.injector is not None:
            kept = np.array(
                [min(self.injector.truncated_scan_keep(n), n) for n in lengths.tolist()],
                dtype=np.int64,
            )
            order = np.flatnonzero(kept > 0)
            scan_idx = scan_idx[order]
            chosen, chosen_offsets = _gather_runs(chosen, chosen_offsets[order], kept[order])

        scans_used = int(chosen_offsets[-1]) * cfg.num_scans

        # -- scan and score --------------------------------------------------
        with obs.span("scan.classify", cat="profile") if obs is not None else nullcontext():
            self._scan_batched(mmu, scan_idx, chosen, chosen_offsets)
            # PEBS-observed-idle regions decay; budget-deferred ones stay stale.
            regions.record_interval(np.flatnonzero(idle), 0.0, 0.0, cfg.alpha)

        # -- region formation (Sec. 5.1 / 5.3) ------------------------------
        merges_before = regions.stats.merges
        splits_before = regions.stats.splits
        old_start = regions.start
        with obs.span("scan.formation", cat="profile") if obs is not None else nullcontext():
            if cfg.adaptive_regions:
                if cfg.overhead_control and over_budget:
                    self._tau_m_current = min(
                        float(cfg.num_scans), self._tau_m_current + cfg.tau_m_escalation_step
                    )
                else:
                    self._tau_m_current = cfg.tau_m
                regions.merge_pass(
                    self._tau_m_current,
                    top_k_variance=cfg.top_k_variance,
                    max_pages=cfg.max_region_pages,
                    heterogeneity_guard=cfg.tau_s if cfg.heterogeneity_guard else None,
                    use_ema_guard=cfg.ema_merge_guard,
                )
                regions.split_pass(cfg.tau_s, page_table=page_table)
                if not cfg.adaptive_sampling:
                    self._randomize_quota()
                if cfg.overhead_control and len(regions) <= budget:
                    regions.rebalance_to_budget(budget)
            merges = regions.stats.merges - merges_before
            splits = regions.stats.splits - splits_before
            if merges or splits:
                self._entry_cache = self._follow_formation(page_table, old_start)
        regions.end_interval()
        if obs is not None:
            self._emit_formation(obs, merges=merges, splits=splits)

        # -- charge time -----------------------------------------------------
        time = self.cost_model.scan_time(scans_used, with_hint_amortization=True)
        if cfg.use_pebs and pebs is not None:
            self._last_pebs_time = self.cost_model.pebs_time(pebs_samples)
            time += self._last_pebs_time

        if obs is not None:
            self._emit_scan(
                obs,
                interval=self._interval,
                regions=len(regions),
                scanned=len(scan_idx),
                scans_used=scans_used,
                budget=budget,
                over_budget=over_budget,
                pebs_samples=pebs_samples,
                profiling_time=time,
            )
        return ProfileSnapshot.from_regions(
            self._interval, page_table, regions.start, regions.npages, regions.whi,
            regions.dominant_socket,
            profiling_time=time,
            scans_performed=scans_used,
            pebs_samples=pebs_samples,
        )

    # -- selection ---------------------------------------------------------------

    def _select(
        self,
        entries: np.ndarray,
        offsets: np.ndarray,
        pebs_active: bool,
        pebs_hot_entries: np.ndarray | None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Choose each region's sampled entries for this interval.

        ``entries``/``offsets`` are the regions' unique leaf entries;
        ``pebs_hot_entries`` are the entries PEBS captured (None when the
        window was lost), read only when the PEBS filter is active.  Returns
        ``(scan_idx, chosen, chosen_offsets, idle)``: the regions to scan
        in region order, their chosen entries concatenated (region
        ``scan_idx[i]``'s are ``chosen[chosen_offsets[i]:chosen_offsets[i+1]]``),
        and the mask of PEBS-observed-idle regions.

        A region takes all its entries (or all its PEBS-captured ones)
        when its quota covers them, which is one gather for every such
        region.  Only the regions that draw from the generator run in a
        loop, in region order, so the draw sequence is the per-region
        loop's.
        """
        regions = self.regions
        sizes = np.diff(offsets)
        quota = np.minimum(regions.n_samples, sizes)
        nonempty = sizes > 0
        slow = np.zeros(len(regions), dtype=bool)
        idle = slow
        lo = hi = np.zeros(len(regions), dtype=np.int64)
        if pebs_active:
            # Slow tiers are event-driven (Sec. 5.5): regions with no
            # counter-observed traffic are skipped (and decay); active
            # regions are scanned starting from the captured pages — one
            # page initially (Sec. 5.2), more as adaptive sampling grants
            # them quota, padded with random picks so a large mixed region
            # exposes its internal hotness spread (the split signal).
            nodes = self._page_table.span_majority_nodes(regions.start, regions.npages)
            slow = nonempty & np.isin(nodes, sorted(self.slowest_nodes))
            if pebs_hot_entries is None:
                idle = slow
            else:
                lo = np.searchsorted(pebs_hot_entries, regions.start)
                hi = np.searchsorted(pebs_hot_entries, regions.end)
                idle = slow & (hi <= lo)
        captured = slow & ~idle
        fast = nonempty & ~slow
        ncaptured = hi - lo
        draws = np.flatnonzero((fast & (quota < sizes)) | (captured & (quota != ncaptured)))
        # Each scanned region's chosen entries as a run of ``pool``: its
        # whole entry run, its captured PEBS entries, or its draw.
        hot = pebs_hot_entries if pebs_hot_entries is not None else np.empty(0, np.int64)
        begin = np.where(captured, lo + entries.size, offsets[:-1])
        length = np.where(captured, ncaptured, sizes)
        drawn = []
        base = entries.size + hot.size
        for i in draws.tolist():
            ents = entries[offsets[i] : offsets[i + 1]]
            k = int(quota[i])
            if captured[i]:
                chosen = hot[lo[i] : hi[i]]
                take = min(k, chosen.size)
                if take < chosen.size:
                    chosen = chosen[self.rng.choice(chosen.size, size=take, replace=False)]
                if k > chosen.size:
                    pad = ents[self.rng.choice(ents.size, size=k - chosen.size, replace=False)]
                    chosen = nputil.unique(np.concatenate([chosen, pad]))
            else:
                chosen = ents[self.rng.choice(ents.size, size=k, replace=False)]
            drawn.append(chosen)
            begin[i] = base
            length[i] = chosen.size
            base += chosen.size
        scan_idx = np.flatnonzero(fast | captured)
        pool = np.concatenate([entries, hot, *drawn])
        chosen, chosen_offsets = _gather_runs(pool, begin[scan_idx], length[scan_idx])
        return scan_idx, chosen, chosen_offsets, idle

    # -- batched scan ----------------------------------------------------------

    def _scan_batched(
        self, mmu: Mmu, scan_idx: np.ndarray, chosen: np.ndarray, offsets: np.ndarray
    ) -> None:
        """Scan every chosen entry in one call and score each region.

        Region ``scan_idx[i]`` sampled ``chosen[offsets[i]:offsets[i+1]]``
        (at least one entry).  Bit-identical to one ``scan_detect`` per
        region in ``scan_idx`` order (the reference loop in
        ``tests/test_profile_mtm.py``): ``rng.binomial`` draws element by
        element from one generator, so the concatenated draw consumes the
        stream in that order.  The region stats are segment reductions
        written by column, and one ``accessor_socket`` gather serves the
        hint-fault cadence.
        """
        if not scan_idx.size:
            return
        cfg = self.config
        regions = self.regions
        detected = mmu.scan_detect(
            chosen, cfg.num_scans, self.rng, exposure=cfg.scan_exposure
        )
        totals, mins, maxs, args = kernels.score_detected(detected, offsets)
        sizes = np.diff(offsets)
        # total/size equals detected.mean() bit-for-bit: detected counts
        # are small integers, so numpy's float64 accumulation is exact and
        # the final division is the same operation.
        max_diff = np.where(sizes > 1, (maxs - mins).astype(np.float64), 0.0)
        regions.record_interval(scan_idx, totals / sizes, max_diff, cfg.alpha)
        regions.hottest_entry[scan_idx] = (
            np.where(maxs > 0, chosen[args], -1) if cfg.guided_splits else -1
        )
        # Hint-fault attribution every hint_every_scans scans (Sec. 6.2):
        # the running scan count, kept below hint_every_scans, crosses it
        # in the regions where its prefix sum enters a new multiple.
        every = cfg.hint_every_scans
        scans = sizes * cfg.num_scans
        reached = self._scan_counter + np.cumsum(scans)
        crossed = reached // every > (reached - scans) // every
        self._scan_counter = int(reached[-1] % every)
        accessors = mmu.accessor_socket(chosen[offsets[:-1]])
        hinted = crossed & (accessors >= 0)
        regions.dominant_socket[scan_idx[hinted]] = accessors[hinted]

    # -- incremental entry resolution ------------------------------------------

    def _region_entries(self, page_table: PageTable) -> tuple[np.ndarray, np.ndarray]:
        """Per-region unique leaf entries ``(entries, offsets)``.

        Element-wise equal to :meth:`PageTable.span_entries` over the
        region layout.  Served from the region-aligned cache; regions
        overlapping the page table's dirty log since the cache's version
        are gathered again in one call and spliced in.
        """
        regions = self.regions
        version = page_table.entry_version
        cache = self._entry_cache
        if cache is None:
            cache = page_table.span_entries(regions.start, regions.npages)
        elif version != self._entry_cache_version:
            dirty = page_table.entry_dirty_since(self._entry_cache_version)
            stale = _overlapping(regions.start, regions.end, dirty)
            if stale.any():
                entries, offsets = cache
                fresh, fresh_offsets = page_table.span_entries(
                    regions.start[stale], regions.npages[stale]
                )
                begin = offsets[:-1].copy()
                length = np.diff(offsets)
                begin[stale] = entries.size + fresh_offsets[:-1]
                length[stale] = np.diff(fresh_offsets)
                cache = _gather_runs(np.concatenate([entries, fresh]), begin, length)
        self._entry_cache = cache
        self._entry_cache_version = version
        return cache

    def _follow_formation(
        self, page_table: PageTable, old_start: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """The entry cache of the layout before formation (regions starting
        at ``old_start``), re-cut to the current one.

        Formation preserves coverage, so each new region's pages are a
        contiguous piece of the old regions.  The concatenated runs are
        non-decreasing, so the new region's run is the slice from the
        first entry at or after its first page's entry to the last entry
        before its end, clipped to the old runs it lies in.  A merge
        joins its parts' runs, keeping once a huge entry that straddled
        the seam, and a split cuts a run, a straddling huge entry going
        to both sides.  The page table is the one the cache was resolved
        against: nothing in ``profile()`` changes the page->entry map.
        """
        entries, offsets = self._entry_cache
        regions = self.regions
        start, end = regions.start, regions.end
        first = np.searchsorted(old_start, start, side="right") - 1
        last = np.searchsorted(old_start, end - 1, side="right") - 1
        lo = np.maximum(
            np.searchsorted(entries, page_table.entry_index(start)), offsets[first]
        )
        hi = np.minimum(np.searchsorted(entries, end), offsets[last + 1])
        # A straddling huge entry ends one old run and starts the next.
        seams = offsets[1:-1]
        seams = seams[(seams > 0) & (seams < entries.size)]
        dup = np.zeros(entries.size, dtype=bool)
        dup[seams] = entries[seams] == entries[seams - 1]
        counts = hi - lo
        pos = _run_positions(lo, counts)
        drop = dup[pos] & (pos != np.repeat(lo, counts))
        dropped = np.bincount(np.repeat(np.arange(len(start)), counts)[drop],
                              minlength=len(start))
        new_offsets = np.zeros(len(start) + 1, dtype=np.int64)
        np.cumsum(counts - dropped, out=new_offsets[1:])
        return entries[pos[~drop]], new_offsets

    # -- ablation helper --------------------------------------------------------

    def _randomize_quota(self) -> None:
        """"w/o APS": spread the sample budget uniformly at random."""
        assert self.regions is not None
        regions = self.regions
        extra = regions.total_samples() - len(regions)
        regions.n_samples[:] = 1
        if extra > 0:
            picks = self.rng.integers(0, len(regions), extra)
            regions.n_samples += np.bincount(picks, minlength=len(regions))


def _run_positions(begin: np.ndarray, length: np.ndarray) -> np.ndarray:
    """Positions ``begin[i] .. begin[i] + length[i] - 1`` of every run, concatenated."""
    starts = np.cumsum(length) - length
    return np.arange(int(length.sum()), dtype=np.int64) + np.repeat(begin - starts, length)


def _gather_runs(
    pool: np.ndarray, begin: np.ndarray, length: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Runs ``pool[begin[i]:begin[i] + length[i]]`` concatenated, with offsets."""
    offsets = np.zeros(length.size + 1, dtype=np.int64)
    np.cumsum(length, out=offsets[1:])
    return pool[_run_positions(begin, length)], offsets


def _overlapping(start: np.ndarray, end: np.ndarray, spans) -> np.ndarray:
    """Mask of the sorted, disjoint ``[start, end)`` that overlap any ``(s, e)``."""
    hits = np.zeros(start.size + 1, dtype=np.int64)
    if spans:
        s, e = np.asarray(spans, dtype=np.int64).T
        first = np.searchsorted(end, s, side="right")  # first region ending after s
        stop = np.searchsorted(start, e, side="left")  # regions starting before e
        some = first < stop
        np.add.at(hits, first[some], 1)
        np.add.at(hits, stop[some], -1)
    return np.cumsum(hits[:-1]) > 0
