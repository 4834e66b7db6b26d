"""Property-based tests for region formation (hypothesis).

Two families:

* invariants of the column :class:`RegionSet` (coverage, order, quota
  conservation, the size cap, the EMA range);
* the column set against the object-based references below, which are
  the per-region loops it replaced: on random layouts every column, the
  merge and split counts and ``stats`` are equal with ``==``.
"""

import copy
from dataclasses import astuple

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigError
from repro.mm.pagetable import PageTable
from repro.profile.regions import MemoryRegion, RegionSet, RegionStats
from repro.units import PAGES_PER_HUGE_PAGE

R = PAGES_PER_HUGE_PAGE


# -- object-based references: one MemoryRegion object per region ------------


def loop_record_interval(region, hi, max_diff, alpha):
    """Fold one interval's observation into one region object."""
    if not 0.0 <= alpha <= 1.0:
        raise ConfigError(f"alpha must be in [0,1], got {alpha}")
    region.prev_hi = region.hi
    region.hi = float(hi)
    region.last_max_diff = float(max_diff)
    region.whi = alpha * region.hi + (1.0 - alpha) * region.whi


def loop_from_spans(spans, region_pages):
    """One region object per ``region_pages`` of each span, sorted."""
    regions = []
    for start, npages in spans:
        offset, remaining = start, npages
        while remaining > 0:
            size = min(region_pages, remaining)
            regions.append(MemoryRegion(start=offset, npages=size))
            offset += size
            remaining -= size
    return sorted(regions, key=lambda r: r.start)


def _variance_signals(regions):
    return np.fromiter((abs(r.hi - r.prev_hi) for r in regions), dtype=np.float64,
                       count=len(regions))


def loop_redistribute_quota(regions, quota, top_k=5):
    """Round-robin ``quota`` over the top-``top_k`` variance regions."""
    if quota == 0 or not regions:
        return
    order = np.argsort(-_variance_signals(regions), kind="stable")
    targets = [regions[int(i)] for i in order[: max(1, top_k)]]
    base, rem = divmod(quota, len(targets))
    for i, target in enumerate(targets):
        target.n_samples += base + (1 if i < rem else 0)


def loop_rebalance_to_budget(regions, budget):
    """Trim from the lowest-variance regions or grant to the highest."""
    total = sum(r.n_samples for r in regions)
    if total < budget:
        loop_redistribute_quota(regions, budget - total)
    elif total > budget:
        excess = total - budget
        for i in np.argsort(_variance_signals(regions), kind="stable"):
            region = regions[int(i)]
            take = min(excess, region.n_samples - 1)
            region.n_samples -= take
            excess -= take
            if excess == 0:
                break


def _merge_pair(a, b):
    total = a.npages + b.npages
    w_a, w_b = a.npages / total, b.npages / total
    return MemoryRegion(
        start=a.start,
        npages=total,
        hi=w_a * a.hi + w_b * b.hi,
        whi=w_a * a.whi + w_b * b.whi,
        prev_hi=w_a * a.prev_hi + w_b * b.prev_hi,
        last_max_diff=max(a.last_max_diff, b.last_max_diff),
        dominant_socket=a.dominant_socket if a.npages >= b.npages else b.dominant_socket,
    )


def loop_merge_pass(regions, tau_m, top_k_variance=5, max_pages=None,
                    heterogeneity_guard=None, use_ema_guard=True):
    """Merge pairs in place, staying at a merged region; ``(regions, merges)``."""
    regions = list(regions)
    merges = saved_quota = i = 0
    while i + 1 < len(regions):
        a, b = regions[i], regions[i + 1]
        fits = max_pages is None or a.npages + b.npages <= max_pages
        homogeneous = heterogeneity_guard is None or (
            a.last_max_diff <= heterogeneity_guard and b.last_max_diff <= heterogeneity_guard
        )
        alike = abs(a.hi - b.hi) < tau_m and (not use_ema_guard or abs(a.whi - b.whi) < tau_m)
        if fits and homogeneous and a.end == b.start and alike:
            merged = _merge_pair(a, b)
            combined = a.n_samples + b.n_samples
            merged.n_samples = max(1, combined // 2)
            saved_quota += combined - merged.n_samples
            regions[i : i + 2] = [merged]
            merges += 1
        else:
            i += 1
    if saved_quota:
        loop_redistribute_quota(regions, saved_quota, top_k=top_k_variance)
    return regions, merges


def loop_split_region(region, page_table=None):
    """``(left, right)`` of one region; ``right`` is None when no legal
    split point exists."""
    mid = region.start + region.npages // 2
    hot = region.hottest_entry
    if region.start < hot < region.end:
        aligned_hot = hot - (hot % R)
        mid = aligned_hot if aligned_hot > region.start else region.start + R
    elif hot == region.start:
        mid = region.start + R
    if page_table is not None and page_table.is_huge(min(mid, page_table.n_pages - 1)):
        aligned = mid - (mid % R)
        if aligned <= region.start:
            aligned = region.start + ((mid - region.start) // R + 1) * R
        mid = aligned
    if mid <= region.start or mid >= region.end:
        return region, None
    quota_left = max(1, region.n_samples // 2)
    quota_right = max(1, region.n_samples - quota_left)
    inherited = dict(hi=region.hi, whi=region.whi, prev_hi=region.prev_hi,
                     dominant_socket=region.dominant_socket)
    return (
        MemoryRegion(start=region.start, npages=mid - region.start, n_samples=quota_left,
                     **inherited),
        MemoryRegion(start=mid, npages=region.end - mid, n_samples=quota_right, **inherited),
    )


def loop_split_pass(regions, tau_s, page_table=None):
    """Split each mixed region in one pass; ``(regions, splits)``."""
    out, splits = [], 0
    for region in regions:
        if region.last_max_diff > tau_s and region.npages >= 2:
            left, right = loop_split_region(region, page_table)
            if right is not None:
                out.extend((left, right))
                splits += 1
                continue
        out.append(region)
    return out, splits


def rows(rs):
    return [astuple(r) for r in rs]


@st.composite
def region_sets(draw):
    """Contiguous region sets with random hotness state."""
    n = draw(st.integers(min_value=1, max_value=24))
    regions = []
    start = 0
    for _ in range(n):
        npages = draw(st.integers(min_value=1, max_value=4)) * R
        hi = draw(st.floats(min_value=0.0, max_value=3.0))
        prev = draw(st.floats(min_value=0.0, max_value=3.0))
        region = MemoryRegion(
            start=start,
            npages=npages,
            n_samples=draw(st.integers(min_value=1, max_value=8)),
            hi=hi,
            whi=hi,
            prev_hi=prev,
            last_max_diff=draw(st.floats(min_value=0.0, max_value=3.0)),
        )
        regions.append(region)
        start += npages
        if draw(st.booleans()):  # occasional gap between regions
            start += R
    return RegionSet(regions)


class TestFormationInvariants:
    @given(rs=region_sets(), tau_m=st.floats(min_value=0.0, max_value=3.0))
    @settings(max_examples=60, deadline=None)
    def test_merge_preserves_coverage_and_order(self, rs, tau_m):
        pages_before = rs.total_pages()
        rs.merge_pass(tau_m)
        assert rs.total_pages() == pages_before
        rs.check_invariants()

    @given(rs=region_sets(), tau_s=st.floats(min_value=0.1, max_value=3.0))
    @settings(max_examples=60, deadline=None)
    def test_split_preserves_coverage_and_bounds_samples(self, rs, tau_s):
        pages_before = rs.total_pages()
        samples_before = rs.total_samples()
        regions_before = len(rs)
        splits = rs.split_pass(tau_s)
        assert rs.total_pages() == pages_before
        # Quota is conserved except that splitting a 1-sample region must
        # mint one extra sample (each child needs >= 1); the overhead
        # controller's rebalance reabsorbs the excess next interval.
        assert samples_before <= rs.total_samples() <= samples_before + splits
        assert len(rs) == regions_before + splits
        rs.check_invariants()

    @given(rs=region_sets(), tau_m=st.floats(min_value=0.0, max_value=3.0),
           tau_s=st.floats(min_value=0.1, max_value=3.0))
    @settings(max_examples=60, deadline=None)
    def test_merge_then_split_roundtrip_safe(self, rs, tau_m, tau_s):
        pages_before = rs.total_pages()
        rs.merge_pass(tau_m)
        rs.split_pass(tau_s)
        assert rs.total_pages() == pages_before
        rs.check_invariants()

    @given(rs=region_sets(), budget_extra=st.integers(min_value=0, max_value=40))
    @settings(max_examples=60, deadline=None)
    def test_rebalance_hits_budget_exactly(self, rs, budget_extra):
        budget = len(rs) + budget_extra
        rs.rebalance_to_budget(budget)
        assert rs.total_samples() == budget
        assert all(r.n_samples >= 1 for r in rs)

    @given(rs=region_sets(), quota=st.integers(min_value=0, max_value=30))
    @settings(max_examples=60, deadline=None)
    def test_redistribute_conserves_total(self, rs, quota):
        before = rs.total_samples()
        rs.redistribute_quota(quota)
        assert rs.total_samples() == before + quota

    @given(rs=region_sets(), max_pages=st.integers(min_value=1, max_value=8))
    @settings(max_examples=60, deadline=None)
    def test_merge_respects_size_cap(self, rs, max_pages):
        cap = max_pages * R
        sizes_before = {r.start: r.npages for r in rs}
        rs.merge_pass(tau_m=3.0, max_pages=cap)
        for region in rs:
            # A region may exceed the cap only if it already did before.
            if region.npages > cap:
                assert sizes_before.get(region.start) == region.npages


def _one_region():
    return RegionSet([MemoryRegion(start=0, npages=R)])


class TestEmaInvariants:
    @given(
        his=st.lists(st.floats(min_value=0.0, max_value=3.0), min_size=1, max_size=30),
        alpha=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=80, deadline=None)
    def test_whi_stays_in_observation_range(self, his, alpha):
        rs = _one_region()
        for hi in his:
            rs.record_interval([0], hi, 0.0, alpha)
        assert 0.0 <= rs.whi[0] <= 3.0

    @given(hi=st.floats(min_value=0.0, max_value=3.0))
    @settings(max_examples=40, deadline=None)
    def test_alpha_one_tracks_instantly(self, hi):
        rs = _one_region()
        rs.record_interval([0], hi, 0.0, alpha=1.0)
        assert rs.whi[0] == hi

    @given(his=st.lists(st.floats(min_value=0.5, max_value=3.0), min_size=1, max_size=10))
    @settings(max_examples=40, deadline=None)
    def test_alpha_zero_never_updates(self, his):
        rs = _one_region()
        for hi in his:
            rs.record_interval([0], hi, 0.0, alpha=0.0)
        assert rs.whi[0] == 0.0


# -- the column set against the references -----------------------------------

HOTNESS = st.one_of(st.floats(min_value=0.0, max_value=3.0),
                    st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0]))


@st.composite
def layouts(draw):
    """Random region rows with gaps and non-aligned tails, and a page table
    over them mixing huge, base and unmapped 2 MB frames."""
    start = draw(st.integers(min_value=0, max_value=3)) * R + draw(st.sampled_from([0, 0, 100]))
    regions = []
    for _ in range(draw(st.integers(min_value=1, max_value=20))):
        npages = draw(st.one_of(st.integers(min_value=1, max_value=4).map(lambda k: k * R),
                                st.integers(min_value=1, max_value=3 * R)))
        hot = draw(st.one_of(st.just(-1), st.just(start),
                             st.integers(min_value=start, max_value=start + npages - 1),
                             st.integers(min_value=0, max_value=start + npages + R)))
        hi = draw(HOTNESS)
        regions.append(MemoryRegion(
            start=start,
            npages=npages,
            n_samples=draw(st.integers(min_value=1, max_value=8)),
            hi=hi,
            whi=draw(st.one_of(st.just(hi), HOTNESS)),
            prev_hi=draw(HOTNESS),
            last_max_diff=draw(HOTNESS),
            dominant_socket=draw(st.integers(min_value=-1, max_value=1)),
            hottest_entry=hot,
        ))
        start += npages
        if draw(st.booleans()):
            start += draw(st.integers(min_value=1, max_value=R))
    frames = -(-start // R) + 1
    page_table = PageTable(frames * R)
    kinds = draw(st.lists(st.sampled_from(["huge", "base", "none"]),
                          min_size=frames, max_size=frames))
    for frame, kind in enumerate(kinds):
        if kind != "none":
            page_table.map_range(frame * R, R, node=0, huge=kind == "huge")
    return regions, page_table


@st.composite
def spans_lists(draw):
    """Disjoint ``(start, npages)`` spans in any order, some empty."""
    spans, start = [], draw(st.integers(min_value=0, max_value=50))
    for _ in range(draw(st.integers(min_value=0, max_value=8))):
        npages = draw(st.integers(min_value=0, max_value=5 * R))
        spans.append((start, npages))
        start += npages + draw(st.integers(min_value=0, max_value=R))
    return draw(st.permutations(spans))


class TestAgainstReferences:
    """Formation on columns equals the object-based loops on random layouts."""

    @given(spans=spans_lists(), region_pages=st.sampled_from([1, 7, 100, R, 3 * R]))
    @settings(max_examples=60, deadline=None)
    def test_from_spans_equals_reference(self, spans, region_pages):
        rs = RegionSet.from_spans(spans, region_pages=region_pages)
        assert rows(rs) == [astuple(r) for r in loop_from_spans(spans, region_pages)]
        rs.check_invariants()

    @given(layout=layouts(), data=st.data(), alpha=st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=60, deadline=None)
    def test_record_interval_equals_reference(self, layout, data, alpha):
        regions, _ = layout
        rs = RegionSet(copy.deepcopy(regions))
        idx = data.draw(st.lists(st.integers(min_value=0, max_value=len(regions) - 1),
                                 unique=True))
        his = data.draw(st.lists(HOTNESS, min_size=len(idx), max_size=len(idx)))
        diffs = data.draw(st.lists(HOTNESS, min_size=len(idx), max_size=len(idx)))
        rs.record_interval(np.asarray(idx, dtype=np.int64), his, diffs, alpha)
        for i, hi, diff in zip(idx, his, diffs):
            loop_record_interval(regions[i], hi, diff, alpha)
        assert rows(rs) == [astuple(r) for r in regions]

    @given(
        layout=layouts(),
        tau_m=st.one_of(st.floats(min_value=0.0, max_value=3.0), st.sampled_from([0.5, 1.0])),
        tau_s=st.one_of(st.floats(min_value=0.0, max_value=3.0), st.sampled_from([0.5, 2.0])),
        max_pages=st.one_of(st.none(), st.integers(min_value=1, max_value=12 * R)),
        heterogeneity_guard=st.booleans(),
        use_ema_guard=st.booleans(),
        top_k=st.integers(min_value=0, max_value=6),
        quota=st.integers(min_value=0, max_value=30),
        budget_extra=st.integers(min_value=-1, max_value=40),
    )
    @settings(max_examples=150, deadline=None)
    def test_formation_equals_reference(self, layout, tau_m, tau_s, max_pages,
                                        heterogeneity_guard, use_ema_guard, top_k, quota,
                                        budget_extra):
        regions, page_table = layout
        rs = RegionSet(copy.deepcopy(regions))
        guard = tau_s if heterogeneity_guard else None
        merges = rs.merge_pass(tau_m, top_k_variance=top_k, max_pages=max_pages,
                               heterogeneity_guard=guard, use_ema_guard=use_ema_guard)
        ref, ref_merges = loop_merge_pass(regions, tau_m, top_k, max_pages, guard,
                                          use_ema_guard)
        assert (merges, rows(rs)) == (ref_merges, [astuple(r) for r in ref])
        # Splits with and without the page table's huge mappings.
        table = page_table if budget_extra % 2 else None
        splits = rs.split_pass(tau_s, page_table=table)
        ref, ref_splits = loop_split_pass(ref, tau_s, table)
        assert (splits, rows(rs)) == (ref_splits, [astuple(r) for r in ref])
        assert rs.stats == RegionStats(merges=merges, splits=splits)
        rs.redistribute_quota(quota, top_k=top_k)
        loop_redistribute_quota(ref, quota, top_k)
        assert rows(rs) == [astuple(r) for r in ref]
        budget = max(len(ref), sum(r.n_samples for r in ref) + budget_extra * 3 - 20)
        rs.rebalance_to_budget(budget)
        loop_rebalance_to_budget(ref, budget)
        assert rows(rs) == [astuple(r) for r in ref]
        rs.check_invariants()
