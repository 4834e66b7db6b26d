"""DAMON: Linux's region-based data-access monitor (baseline).

Faithful to the upstream algorithm the paper critiques (Sec. 3):

* regions are seeded from the VMAs and bounded by ``[min_regions,
  max_regions]`` — overhead is controlled **only** through the region
  count, one sampled page per region per aggregation interval;
* two adjacent regions merge when their access counts differ by at most
  ``merge_threshold``;
* whenever fewer than ``max_regions / 2`` regions exist, *every* region is
  split into two **randomly sized** halves — the ad-hoc formation the
  paper blames for DAMON's low accuracy;
* no huge-page awareness: split points land anywhere, so one 2 MB page can
  end up profiled by two regions;
* no temporal smoothing beyond the current aggregation's count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import perfflags
from repro.errors import ConfigError
from repro.mm.mmu import Mmu
from repro.mm.pagetable import PageTable
from repro.perf.pebs import PebsSampler
from repro.profile.base import Profiler, ProfileSnapshot, RegionReport
from repro.profile.regions import MemoryRegion, RegionSet
from repro.sim.costmodel import CostModel


@dataclass
class DamonConfig:
    """DAMON tunables.

    Attributes:
        min_regions: lower bound on the region count.
        max_regions: upper bound (the overhead knob).  ``None`` derives it
            from the same Eq. 1 budget MTM gets, so comparisons run at
            equal profiling overhead as in Fig. 1.
        checks_per_aggregation: access-bit checks per sampled page per
            aggregation.  Upstream DAMON checks every 5 ms within a 100 ms
            aggregation: 20 checks, ``nr_accesses`` in [0, 20].
        aggregations_per_interval: aggregation rounds per profiling
            interval (the paper's 10 s interval spans ~100 of upstream's
            100 ms aggregations); each round samples a *fresh* random page
            of every region.
        check_exposure: fraction of the interval's accesses one check
            window sees.  Upstream's 5 ms sampling window over the paper's
            10 s interval is 5e-4 — small enough that hot and cold entries
            *do* separate (unlike a naive every-third-of-the-interval
            check, which saturates).  Region scores are noisy single-page
            estimates, which combined with the random splits is what caps
            DAMON's accuracy in Fig. 1.
        merge_threshold: max score difference for merging (score scale is
            mean detected checks per page, ~1 for hot, ~0.1 for cold).
        interval: profiling interval in seconds.
        overhead_constraint: profiling overhead target (for budget derivation).
    """

    min_regions: int = 10
    max_regions: int | None = None
    checks_per_aggregation: int = 20
    aggregations_per_interval: int = 100
    check_exposure: float = 5e-4
    merge_threshold: float = 0.5
    interval: float = 10.0
    overhead_constraint: float = 0.05

    def __post_init__(self) -> None:
        if self.min_regions < 1:
            raise ConfigError(f"min_regions must be >= 1, got {self.min_regions}")
        if self.checks_per_aggregation < 1:
            raise ConfigError("checks_per_aggregation must be >= 1")
        if self.aggregations_per_interval < 1:
            raise ConfigError("aggregations_per_interval must be >= 1")
        if not 0.0 < self.check_exposure <= 1.0:
            raise ConfigError("check_exposure must be in (0, 1]")
        if self.max_regions is not None and self.max_regions < self.min_regions:
            raise ConfigError("max_regions < min_regions")


class DamonProfiler(Profiler):
    """Linux DAMON, as described in Sec. 3 of the paper."""

    name = "damon"

    def __init__(
        self,
        cost_model: CostModel,
        config: DamonConfig | None = None,
        rng: np.random.Generator | None = None,
    ) -> None:
        self.cost_model = cost_model
        self.config = config if config is not None else DamonConfig()
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self.regions: RegionSet | None = None
        self._page_table: PageTable | None = None
        self._interval = -1

    @property
    def max_regions(self) -> int:
        """Region cap derived from the same overhead budget MTM gets.

        DAMON's sampling/aggregation cadence is wall-clock (one interval
        here represents the paper's 10 s), so the budget arithmetic runs
        in paper time: a region costs ``aggregations * checks`` scans per
        10 s, and the cap is the 5%-of-10s scan budget divided by that
        (~190 regions — upstream's defaults land in the hundreds too).
        """
        if self.config.max_regions is not None:
            return self.config.max_regions
        from repro.sim.costmodel import PAPER_INTERVAL

        scans_per_region = (
            self.config.aggregations_per_interval * self.config.checks_per_aggregation
        )
        budget_scans = PAPER_INTERVAL * self.config.overhead_constraint / (
            self.cost_model.params.scan_overhead
        )
        return max(self.config.min_regions, int(budget_scans / scans_per_region))

    def setup(self, page_table: PageTable, spans: list[tuple[int, int]]) -> None:
        self._page_table = page_table
        # DAMON's initial regions come straight from the VMA tree: one
        # region per VMA span (coarse — the paper's Fig. 6 point "B").
        self.regions = RegionSet(
            [MemoryRegion(start=s, npages=n) for s, n in spans if n > 0]
        )
        self._interval = -1

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
        obs = self.obs
        scans = 0
        merges_before = self.regions.stats.merges

        # Per aggregation round DAMON samples a fresh random page of every
        # region and checks its bit checks_per_aggregation times with the
        # short (5 ms) sampling window; the interval spans many rounds,
        # but the state the operator reads is the tail of the aggregation
        # stream (the last ~half second) — a noisy few-page estimate,
        # which is the root of DAMON's limited hot-page quality in Fig. 1.
        for region in self.regions:
            n_rounds = min(cfg.aggregations_per_interval, region.npages)
            pages = self.rng.integers(region.start, region.end, n_rounds)
            entries = page_table.entry_index(pages)
            detected = mmu.scan_detect(
                entries, cfg.checks_per_aggregation, self.rng,
                exposure=cfg.check_exposure,
            )
            tail = detected[-5:] if detected.size >= 5 else detected
            region.record_interval(float(tail.mean()), 0.0, alpha=1.0)
            scans += n_rounds * cfg.checks_per_aggregation

        # Merge adjacent regions whose counts differ by less than the
        # threshold (strictly — a 0-vs-1 pair stays distinct).
        self.regions.merge_pass(cfg.merge_threshold, top_k_variance=1)
        merges_delta = self.regions.stats.merges - merges_before

        # Split every region into two randomly sized halves when the count
        # has room — DAMON's ad-hoc split (no huge-page alignment).
        splits_delta = 0
        if len(self.regions) < self.max_regions / 2:
            new_regions: list[MemoryRegion] = []
            splits = 0
            for region in self.regions:
                if region.npages >= 2 and len(self.regions) + splits < self.max_regions:
                    cut = int(self.rng.integers(1, region.npages))
                    left = MemoryRegion(
                        start=region.start, npages=cut,
                        hi=region.hi, whi=region.whi, prev_hi=region.prev_hi,
                    )
                    right = MemoryRegion(
                        start=region.start + cut, npages=region.npages - cut,
                        hi=region.hi, whi=region.whi, prev_hi=region.prev_hi,
                    )
                    new_regions.extend((left, right))
                    splits += 1
                else:
                    new_regions.append(region)
            self.regions = RegionSet(new_regions)
            self.regions.stats.splits += splits
            splits_delta = splits
        self.regions.end_interval()
        if obs is not None:
            self._emit_formation(obs, merges=merges_delta, splits=splits_delta)

        if perfflags.vectorized():
            # Resolve every region's resident node in one RLE pass rather
            # than a per-region O(npages) slice; bit-identical ordering.
            starts, sizes, _ = self.regions.as_arrays()
            nodes = page_table.span_majority_nodes(starts, sizes)
            reports = [
                RegionReport(
                    start=r.start,
                    npages=r.npages,
                    score=r.hi,
                    whi=r.hi,
                    node=int(nodes[j]),
                )
                for j, r in enumerate(self.regions)
            ]
        else:
            reports = [
                RegionReport(
                    start=r.start,
                    npages=r.npages,
                    score=r.hi,
                    whi=r.hi,
                    node=r.node(page_table),
                )
                for r in self.regions
            ]
        # The scans happened over one wall-clock interval that stands for
        # the paper's 10 s; charge the same *fraction* of the simulated
        # interval.
        from repro.sim.costmodel import PAPER_INTERVAL

        time = self.cost_model.scan_time(scans) * (cfg.interval / PAPER_INTERVAL)
        if obs is not None:
            self._emit_scan(
                obs,
                interval=self._interval,
                regions=len(self.regions),
                scanned=len(self.regions),
                scans_used=scans,
                budget=self.max_regions,
                over_budget=False,
                pebs_samples=0,
                profiling_time=time,
            )
        return ProfileSnapshot(
            interval=self._interval,
            reports=reports,
            profiling_time=time,
            scans_performed=scans,
        )

    def memory_overhead_bytes(self) -> int:
        # DAMON stores ~48 bytes per damon_region.
        return 48 * (len(self.regions) if self.regions else 0)
