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
from repro.profile.base import Profiler, ProfileSnapshot, RegionReport
from repro.profile.regions import DEFAULT_REGION_PAGES, MemoryRegion, RegionSet
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
        # (start, npages) -> unique leaf entries, valid as of the page
        # table's entry_version below.  Lets the incremental path resolve
        # only regions whose span changed (formation) or whose page->entry
        # map was dirtied (huge collapse/split), instead of re-gathering
        # the whole footprint every interval.
        self._entry_cache: dict[tuple[int, int], np.ndarray] = {}
        self._entry_cache_version = -1

    # -- lifecycle --------------------------------------------------------------

    def setup(self, page_table: PageTable, spans: list[tuple[int, int]]) -> None:
        self._page_table = page_table
        self.regions = RegionSet.from_spans(spans, region_pages=self.config.region_pages)
        self._footprint_pages = sum(n for _, n in spans)
        self._tau_m_current = self.config.tau_m
        self._interval = -1
        self._entry_cache = {}
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
        regions = list(self.regions)
        to_profile: list[tuple[MemoryRegion, np.ndarray]] = []
        idle: list[MemoryRegion] = []
        pebs_active = cfg.use_pebs and pebs is not None
        with obs.span("scan.resolve", cat="profile") if obs is not None else nullcontext():
            # Bulk-resolve every region's entries (and, when the PEBS filter
            # needs them, resident nodes) in one pass over the page table;
            # the per-region loop below only slices precomputed arrays.
            # O(touched): unchanged regions are served from the entry
            # cache and only spans invalidated by formation or by
            # huge-page transitions since last interval are gathered.
            starts_arr, npages_arr, _ = self.regions.as_arrays()
            region_entries = self._resolve_entries_cached(
                page_table, starts_arr, npages_arr
            )
            if pebs_active:
                nodes_all = page_table.span_majority_nodes(starts_arr, npages_arr)
            for idx, region in enumerate(regions):
                entries = region_entries[idx]
                if entries.size == 0:
                    continue
                if pebs_active and int(nodes_all[idx]) in self.slowest_nodes:
                    # Slow tiers are event-driven (Sec. 5.5): regions with no
                    # counter-observed traffic are skipped (and decay); active
                    # regions are scanned starting from the captured pages —
                    # one page initially (Sec. 5.2), more as adaptive sampling
                    # grants them quota, padded with random picks so a large
                    # mixed region exposes its internal hotness spread (the
                    # split signal).
                    if pebs_hot_entries is None:
                        idle.append(region)
                        continue
                    lo = np.searchsorted(pebs_hot_entries, region.start)
                    hi_idx = np.searchsorted(pebs_hot_entries, region.end)
                    if hi_idx <= lo:
                        idle.append(region)
                        continue
                    captured = pebs_hot_entries[lo:hi_idx]
                    k = min(region.n_samples, int(entries.size))
                    take = min(k, int(captured.size))
                    if take >= captured.size:
                        chosen = captured
                    else:
                        chosen = captured[
                            self.rng.choice(captured.size, size=take, replace=False)
                        ]
                    if k > chosen.size:
                        pad = entries[
                            self.rng.choice(entries.size, size=k - int(chosen.size), replace=False)
                        ]
                        chosen = nputil.unique(np.concatenate([chosen, pad]))
                else:
                    k = min(region.n_samples, int(entries.size))
                    if k >= entries.size:
                        chosen = entries
                    else:
                        chosen = entries[self.rng.choice(entries.size, size=k, replace=False)]
                to_profile.append((region, chosen))

        # -- overhead control: fit the scan budget (Sec. 5.3) ----------------
        requested = sum(int(c.size) for _, c in to_profile)
        over_budget = requested > budget
        if cfg.overhead_control and over_budget:
            # Rotate which candidates get cut so coverage is eventually full.
            offset = (self._interval * budget) % max(1, len(to_profile))
            rotated = to_profile[offset:] + to_profile[:offset]
            kept: list[tuple[MemoryRegion, np.ndarray]] = []
            samples = 0
            for region, chosen in rotated:
                if samples >= budget:
                    break
                if samples + chosen.size > budget:
                    chosen = chosen[: budget - samples]
                kept.append((region, chosen))
                samples += int(chosen.size)
            to_profile = kept

        # -- injected scan truncation ----------------------------------------
        # A preempted profiling pass covers only a prefix of the pages it
        # sampled; the region still gets a (noisier) hotness estimate from
        # whatever was visited before the preemption.
        if self.injector is not None:
            truncated: list[tuple[MemoryRegion, np.ndarray]] = []
            for region, chosen in to_profile:
                keep = self.injector.truncated_scan_keep(int(chosen.size))
                if keep < chosen.size:
                    chosen = chosen[:keep]
                if chosen.size:
                    truncated.append((region, chosen))
            to_profile = truncated

        scans_used = sum(int(c.size) for _, c in to_profile) * cfg.num_scans

        # -- scan and score --------------------------------------------------
        with obs.span("scan.classify", cat="profile") if obs is not None else nullcontext():
            self._scan_batched(mmu, to_profile)
            # PEBS-observed-idle regions decay; budget-deferred ones stay stale.
            profiled = {id(r) for r, _ in to_profile}
            for region in idle:
                if id(region) not in profiled:
                    region.record_interval(0.0, 0.0, cfg.alpha)

        # -- region formation (Sec. 5.1 / 5.3) ------------------------------
        merges_before = self.regions.stats.merges
        splits_before = self.regions.stats.splits
        with obs.span("scan.formation", cat="profile") if obs is not None else nullcontext():
            if cfg.adaptive_regions:
                if cfg.overhead_control and over_budget:
                    self._tau_m_current = min(
                        float(cfg.num_scans), self._tau_m_current + cfg.tau_m_escalation_step
                    )
                else:
                    self._tau_m_current = cfg.tau_m
                self.regions.merge_pass(
                    self._tau_m_current,
                    top_k_variance=cfg.top_k_variance,
                    max_pages=cfg.max_region_pages,
                    heterogeneity_guard=cfg.tau_s if cfg.heterogeneity_guard else None,
                    use_ema_guard=cfg.ema_merge_guard,
                )
                self.regions.split_pass(cfg.tau_s, page_table=page_table)
                if not cfg.adaptive_sampling:
                    self._randomize_quota()
                if cfg.overhead_control and len(self.regions) <= budget:
                    self.regions.rebalance_to_budget(budget)
        self.regions.end_interval()
        if obs is not None:
            self._emit_formation(
                obs,
                merges=self.regions.stats.merges - merges_before,
                splits=self.regions.stats.splits - splits_before,
            )

        # -- charge time -----------------------------------------------------
        time = self.cost_model.scan_time(scans_used, with_hint_amortization=True)
        if cfg.use_pebs and pebs is not None:
            self._last_pebs_time = self.cost_model.pebs_time(pebs_samples)
            time += self._last_pebs_time

        # Formation may have changed the region list; resolve resident
        # nodes for the final layout in one bulk pass.
        starts2, npages2, _ = self.regions.as_arrays()
        nodes2 = page_table.span_majority_nodes(starts2, npages2)
        # Drop cache entries for spans no longer in the layout so the
        # cache stays bounded by the live region count.
        live = set(zip(starts2.tolist(), npages2.tolist()))
        self._entry_cache = {
            k: v for k, v in self._entry_cache.items() if k in live
        }
        reports = [
            RegionReport(
                start=r.start,
                npages=r.npages,
                score=r.whi,
                whi=r.whi,
                node=int(nodes2[j]),
                dominant_socket=r.dominant_socket,
            )
            for j, r in enumerate(self.regions)
        ]
        if obs is not None:
            self._emit_scan(
                obs,
                interval=self._interval,
                regions=len(self.regions),
                scanned=len(to_profile),
                scans_used=scans_used,
                budget=budget,
                over_budget=over_budget,
                pebs_samples=pebs_samples,
                profiling_time=time,
            )
        return ProfileSnapshot(
            interval=self._interval,
            reports=reports,
            profiling_time=time,
            scans_performed=scans_used,
            pebs_samples=pebs_samples,
        )

    # -- batched scan ----------------------------------------------------------

    def _scan_batched(
        self, mmu: Mmu, to_profile: list[tuple[MemoryRegion, np.ndarray]]
    ) -> None:
        """Scan every chosen entry in one call and score each region.

        Bit-identical to one ``scan_detect`` per region (the reference
        loop in ``tests/test_profile_mtm.py``): ``rng.binomial`` draws
        element by element from one generator, so the concatenated draw
        consumes the stream in region order.  The region stats are
        segment reductions, and one ``accessor_socket`` gather serves the
        hint-fault cadence.
        """
        if not to_profile:
            return
        cfg = self.config
        chosen = np.concatenate([c for _, c in to_profile])
        sizes = [int(c.size) for _, c in to_profile]
        offsets = np.zeros(len(sizes) + 1, dtype=np.int64)
        np.cumsum(sizes, out=offsets[1:])
        detected = mmu.scan_detect(
            chosen, cfg.num_scans, self.rng, exposure=cfg.scan_exposure
        )
        totals, mins, maxs, args = kernels.score_detected(detected, offsets)
        hottest = chosen[args].tolist()
        accessors = mmu.accessor_socket(chosen[offsets[:-1]]).tolist()
        for (region, _), size, total, dmin, dmax, entry, accessor in zip(
            to_profile, sizes, totals.tolist(), mins.tolist(), maxs.tolist(),
            hottest, accessors,
        ):
            # total/size equals detected.mean() bit-for-bit: detected
            # counts are small integers, so numpy's float64 accumulation
            # is exact and the final division is the same operation.
            max_diff = float(dmax - dmin) if size > 1 else 0.0
            region.record_interval(total / size, max_diff, cfg.alpha)
            region.hottest_entry = entry if cfg.guided_splits and dmax > 0 else -1
            # Hint-fault attribution every hint_every_scans scans (Sec. 6.2).
            self._scan_counter += size * cfg.num_scans
            if self._scan_counter >= cfg.hint_every_scans:
                self._scan_counter %= cfg.hint_every_scans
                if accessor >= 0:
                    region.dominant_socket = accessor

    # -- incremental entry resolution ------------------------------------------

    def _resolve_entries_cached(
        self,
        page_table: PageTable,
        starts: np.ndarray,
        npages: np.ndarray,
    ) -> list[np.ndarray]:
        """Per-region unique leaf entries, served from the span cache.

        Invalidates cached spans overlapping the page table's dirty log
        since the cache's version, then bulk-resolves only the missing
        spans.  Each cached array is element-wise identical to what
        :meth:`PageTable.span_entries` returns for the span, so the result
        is bit-identical to the uncached bulk gather.
        """
        cache = self._entry_cache
        version = page_table.entry_version
        if version != self._entry_cache_version:
            for s, e in page_table.entry_dirty_since(self._entry_cache_version):
                stale = [k for k in cache if k[0] < e and k[0] + k[1] > s]
                for k in stale:
                    del cache[k]
            self._entry_cache_version = version
        keys = list(zip(starts.tolist(), npages.tolist()))
        missing = [i for i, k in enumerate(keys) if k not in cache]
        if missing:
            ents, offs = page_table.span_entries(starts[missing], npages[missing])
            for j, i in enumerate(missing):
                cache[keys[i]] = ents[offs[j] : offs[j + 1]]
        return [cache[k] for k in keys]

    # -- ablation helper --------------------------------------------------------

    def _randomize_quota(self) -> None:
        """"w/o APS": spread the sample budget uniformly at random."""
        assert self.regions is not None
        total = self.regions.total_samples()
        regions = list(self.regions)
        for region in regions:
            region.n_samples = 1
        extra = total - len(regions)
        if extra > 0:
            picks = self.rng.integers(0, len(regions), extra)
            for i in picks:
                regions[int(i)].n_samples += 1
