"""Unit tests for memory regions: merge/split machinery and quotas."""

import numpy as np
import pytest

from repro.errors import ConfigError, ProfilingError
from repro.mm.pagetable import PageTable
from repro.profile.regions import MemoryRegion, RegionSet
from repro.units import PAGES_PER_HUGE_PAGE


def region(start, npages, hi=0.0, whi=None, samples=1, max_diff=0.0):
    r = MemoryRegion(start=start, npages=npages, n_samples=samples, hi=hi,
                     whi=hi if whi is None else whi, last_max_diff=max_diff)
    return r


class TestMemoryRegion:
    def test_ema_update(self):
        rs = RegionSet([region(0, 512), region(512, 512)])
        rs.record_interval([0], hi=2.0, max_diff=1.0, alpha=0.5)
        assert rs[0].whi == pytest.approx(1.0)
        assert rs[0].last_max_diff == 1.0
        rs.record_interval([0], hi=2.0, max_diff=0.0, alpha=0.5)
        assert rs[0].whi == pytest.approx(1.5)
        assert rs[0].prev_hi == pytest.approx(2.0)
        assert rs[1] == region(512, 512)  # untouched

    def test_variance_signal(self):
        rs = RegionSet([region(0, 512)])
        rs.record_interval([0], 3.0, 0.0, 0.5)
        rs.record_interval([0], 0.5, 0.0, 0.5)
        assert rs.variance_signals()[0] == pytest.approx(2.5)

    def test_alpha_bounds(self):
        with pytest.raises(ConfigError):
            RegionSet([region(0, 512)]).record_interval([0], 1.0, 0.0, alpha=1.5)

    def test_invalid_region_rejected(self):
        with pytest.raises(ConfigError):
            MemoryRegion(start=0, npages=0)
        with pytest.raises(ConfigError):
            MemoryRegion(start=0, npages=1, n_samples=0)

    def test_node_majority(self):
        pt = PageTable(1024)
        pt.map_range(0, 512, node=1)
        pt.map_range(512, 512, node=2)
        rs = RegionSet([region(0, 1024)])
        pt.move_pages(np.arange(0, 100), 2)
        # 612 pages on 2 vs 412 on 1.
        assert pt.span_majority_nodes(rs.start, rs.npages).tolist() == [2]


class TestRegionSetContainer:
    def test_overlap_rejected(self):
        rs = RegionSet([region(0, 512)])
        with pytest.raises(ProfilingError):
            rs.add(region(256, 512))

    def test_region_of(self):
        rs = RegionSet([region(0, 512), region(512, 512)])
        assert rs.region_of(700).start == 512
        with pytest.raises(ProfilingError):
            rs.region_of(5000)

    def test_from_spans_carves_fixed_regions(self):
        rs = RegionSet.from_spans([(0, 1100)], region_pages=512)
        sizes = [r.npages for r in rs]
        assert sizes == [512, 512, 76]

    def test_check_invariants(self):
        rs = RegionSet.from_spans([(0, 2048)])
        rs.check_invariants()

    @pytest.mark.parametrize(
        ("spans", "region_pages"),
        [
            ([(4096, 1100), (0, 1024), (1024, 512)], 512),  # unsorted, adjacent, tail
            ([(10, 7), (0, 10), (17, 0), (40, 3)], 4),  # tails, an empty span
            ([(2048, 512), (512, 1536), (0, 300)], 700),  # regions wider than a span
        ],
    )
    def test_from_spans_matches_region_by_region(self, spans, region_pages):
        seeded = RegionSet.from_spans(spans, region_pages=region_pages)
        one_by_one = RegionSet()
        for start, n in spans:
            for off in range(start, start + n, region_pages):
                one_by_one.add(MemoryRegion(start=off, npages=min(region_pages, start + n - off)))
        assert [(r.start, r.npages, r.n_samples) for r in seeded] == [
            (r.start, r.npages, r.n_samples) for r in one_by_one
        ]
        assert seeded.total_samples() == one_by_one.total_samples()
        assert seeded.total_pages() == one_by_one.total_pages() == sum(n for _, n in spans)
        seeded.check_invariants()
        seeded.n_samples[1] += 4
        assert seeded.total_samples() == one_by_one.total_samples() + 4
        seeded.check_invariants()

    @pytest.mark.parametrize("spans", [[(0, 1024), (512, 1024)], [(2048, 10), (0, 4096)],
                                       [(0, 512), (0, 512)]])
    def test_from_spans_rejects_overlap(self, spans):
        with pytest.raises(ProfilingError):
            RegionSet.from_spans(spans)


class TestMerge:
    def test_merges_alike_neighbors(self):
        rs = RegionSet([region(0, 512, hi=0.1), region(512, 512, hi=0.2)])
        assert rs.merge_pass(tau_m=1.0) == 1
        assert len(rs) == 1
        assert rs[0].npages == 1024

    def test_keeps_distinct_neighbors(self):
        rs = RegionSet([region(0, 512, hi=0.1), region(512, 512, hi=2.5)])
        assert rs.merge_pass(tau_m=1.0) == 0
        assert len(rs) == 2

    def test_non_contiguous_never_merge(self):
        rs = RegionSet([region(0, 512, hi=0.1), region(1024, 512, hi=0.1)])
        assert rs.merge_pass(tau_m=1.0) == 0

    def test_merged_hi_is_size_weighted(self):
        rs = RegionSet([region(0, 512, hi=0.0), region(512, 1536, hi=0.4)])
        rs.merge_pass(tau_m=1.0)
        assert rs[0].hi == pytest.approx(0.3)

    def test_quota_halved_and_redistributed(self):
        hot = region(2048, 512, hi=3.0, samples=1)
        hot.prev_hi = 0.0  # large variance signal -> receives quota
        rs = RegionSet([
            region(0, 512, hi=0.1, samples=4),
            region(512, 512, hi=0.1, samples=4),
            hot,
        ])
        total_before = rs.total_samples()
        rs.merge_pass(tau_m=1.0)
        assert rs.total_samples() == total_before  # conserved
        assert rs.region_of(2048).n_samples > 1  # got the savings

    def test_max_pages_cap(self):
        rs = RegionSet([region(0, 512, hi=0.1), region(512, 512, hi=0.1)])
        assert rs.merge_pass(tau_m=1.0, max_pages=512) == 0

    def test_heterogeneity_guard_blocks_mixed_regions(self):
        mixed = region(0, 512, hi=0.5, max_diff=3.0)
        cold = region(512, 512, hi=0.2)
        rs = RegionSet([mixed, cold])
        assert rs.merge_pass(tau_m=1.0, heterogeneity_guard=2.0) == 0
        assert rs.merge_pass(tau_m=1.0) == 1  # without guard it merges

    def test_ema_guard_blocks_blinking_hot_region(self):
        # hi dropped to 0 this interval (capture miss) but EMA remembers.
        blink = region(0, 512, hi=0.0, whi=2.0)
        cold = region(512, 512, hi=0.1, whi=0.05)
        rs = RegionSet([blink, cold])
        assert rs.merge_pass(tau_m=1.0) == 0


class TestSplit:
    def test_split_on_max_diff(self):
        rs = RegionSet([region(0, 1024, hi=1.0, samples=4, max_diff=3.0)])
        assert rs.split_pass(tau_s=2.0) == 1
        assert len(rs) == 2
        rs.check_invariants()

    def test_no_split_below_threshold(self):
        rs = RegionSet([region(0, 1024, hi=1.0, max_diff=1.0)])
        assert rs.split_pass(tau_s=2.0) == 0

    def test_split_conserves_quota(self):
        rs = RegionSet([region(0, 1024, hi=1.0, samples=5, max_diff=3.0)])
        rs.split_pass(tau_s=2.0)
        assert rs.total_samples() == 5

    def test_split_children_inherit_whi(self):
        parent = region(0, 1024, hi=1.5, max_diff=3.0)
        parent.whi = 0.75
        rs = RegionSet([parent])
        rs.split_pass(tau_s=2.0)
        assert all(r.whi == pytest.approx(0.75) for r in rs)

    def test_huge_aligned_split(self):
        pt = PageTable(2 * PAGES_PER_HUGE_PAGE)
        pt.map_range(0, 2 * PAGES_PER_HUGE_PAGE, node=0, huge=True)
        # Midpoint 700 of [0, 1400) falls inside huge page 1; must align.
        rs = RegionSet([region(0, 1024 + 376, max_diff=3.0)])
        assert rs.split_pass(tau_s=2.0, page_table=pt) == 1
        assert rs[1].start % PAGES_PER_HUGE_PAGE == 0

    def test_single_huge_page_cannot_split(self):
        pt = PageTable(PAGES_PER_HUGE_PAGE)
        pt.map_range(0, PAGES_PER_HUGE_PAGE, node=0, huge=True)
        rs = RegionSet([region(0, PAGES_PER_HUGE_PAGE, max_diff=3.0)])
        assert rs.split_pass(tau_s=2.0, page_table=pt) == 0
        assert rs[0].last_max_diff == 3.0  # kept whole, signal kept

    def test_guided_split_carves_hot_entry(self):
        r = region(0, 4 * PAGES_PER_HUGE_PAGE, max_diff=3.0)
        r.hottest_entry = 2 * PAGES_PER_HUGE_PAGE + 5
        rs = RegionSet([r])
        assert rs.split_pass(tau_s=2.0) == 1
        assert rs[1].start == 2 * PAGES_PER_HUGE_PAGE
        assert rs.hottest_entry.tolist() == [-1, -1]

    def test_guided_split_hot_at_start(self):
        r = region(0, 4 * PAGES_PER_HUGE_PAGE, max_diff=3.0)
        r.hottest_entry = 0
        rs = RegionSet([r])
        assert rs.split_pass(tau_s=2.0) == 1
        assert rs[0].npages == PAGES_PER_HUGE_PAGE


class TestQuotaManagement:
    def test_redistribute_targets_top_variance(self):
        calm = region(0, 512, hi=1.0)
        swinger = region(512, 512, hi=3.0)
        swinger.prev_hi = 0.0
        rs = RegionSet([calm, swinger])
        rs.redistribute_quota(4, top_k=1)
        assert rs.n_samples.tolist() == [1, 5]
        assert swinger.n_samples == 1  # a row is a copy, not a view

    def test_rebalance_to_budget_up_and_down(self):
        rs = RegionSet([region(0, 512, samples=1), region(512, 512, samples=9)])
        rs.rebalance_to_budget(6)
        assert rs.total_samples() == 6
        rs.rebalance_to_budget(12)
        assert rs.total_samples() == 12

    def test_rebalance_never_starves_region(self):
        rs = RegionSet([region(0, 512, samples=5), region(512, 512, samples=5)])
        rs.rebalance_to_budget(2)
        assert all(r.n_samples >= 1 for r in rs)

    def test_rebalance_below_region_count_raises(self):
        rs = RegionSet([region(0, 512), region(512, 512)])
        with pytest.raises(ProfilingError):
            rs.rebalance_to_budget(1)

    def test_stats_accumulate(self):
        rs = RegionSet([region(0, 512, hi=0.1), region(512, 512, hi=0.1)])
        rs.merge_pass(tau_m=1.0)
        rs.end_interval()
        assert rs.stats.merges == 1
        assert rs.stats.intervals == 1
        assert rs.stats.avg_regions() == pytest.approx(1.0)
