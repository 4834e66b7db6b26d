"""Unit tests for MTM's fast-promotion / slow-demotion policy."""

import pytest

from repro.hw.frames import FrameAccountant
from repro.hw.topology import optane_4tier
from repro.mm.pagetable import PageTable
from repro.policy.base import PlacementState
from repro.policy.mtm_policy import MtmPolicy, MtmPolicyConfig
from repro.profile.base import ProfileSnapshot, RegionReport
from repro.units import MiB, PAGE_SIZE, PAGES_PER_HUGE_PAGE

SCALE = 1.0 / 512.0
R = PAGES_PER_HUGE_PAGE


@pytest.fixture
def machine():
    topo = optane_4tier(SCALE)
    frames = FrameAccountant(topo)
    pt = PageTable(topo.total_capacity() // PAGE_SIZE)
    return topo, frames, pt


def place(pt, frames, start, npages, node):
    pt.map_range(start, npages, node=node)
    frames.allocate(node, npages)


def snap(reports):
    return ProfileSnapshot.from_reports(0, reports, profiling_time=0.0)


def state_of(machine):
    topo, frames, pt = machine
    return PlacementState(page_table=pt, frames=frames, topology=topo)


class TestFastPromotion:
    def test_hot_region_goes_straight_to_tier1(self, machine):
        topo, frames, pt = machine
        place(pt, frames, 0, R, node=3)  # remote PM = tier 4
        policy = MtmPolicy(MtmPolicyConfig(scale=SCALE))
        reports = [RegionReport(start=0, npages=R, score=3.0, node=3)]
        orders = policy.decide(snap(reports), state_of(machine))
        assert len(orders) == 1
        assert orders[0].dst_node == 0  # tier 1, no tier-by-tier staging
        assert orders[0].reason == "promotion"

    def test_budget_caps_promotion(self, machine):
        topo, frames, pt = machine
        budget_bytes = 4 * MiB
        npages = 8 * R
        place(pt, frames, 0, npages, node=2)
        policy = MtmPolicy(MtmPolicyConfig(migration_budget_bytes=budget_bytes, scale=SCALE))
        reports = [RegionReport(start=0, npages=npages, score=3.0, node=2)]
        orders = policy.decide(snap(reports), state_of(machine))
        moved = sum(o.npages for o in orders if o.reason == "promotion")
        assert moved == budget_bytes // PAGE_SIZE

    def test_partial_promotion_is_huge_aligned(self, machine):
        topo, frames, pt = machine
        place(pt, frames, 0, 8 * R, node=2)
        policy = MtmPolicy(MtmPolicyConfig(migration_budget_bytes=3 * MiB, scale=SCALE))
        reports = [RegionReport(start=0, npages=8 * R, score=3.0, node=2)]
        orders = policy.decide(snap(reports), state_of(machine))
        assert orders[0].npages % R == 0

    def test_region_already_fast_not_moved(self, machine):
        topo, frames, pt = machine
        place(pt, frames, 0, R, node=0)
        policy = MtmPolicy(MtmPolicyConfig(scale=SCALE))
        reports = [RegionReport(start=0, npages=R, score=3.0, node=0)]
        assert policy.decide(snap(reports), state_of(machine)) == []

    def test_zero_score_regions_stay(self, machine):
        topo, frames, pt = machine
        place(pt, frames, 0, R, node=3)
        policy = MtmPolicy(MtmPolicyConfig(scale=SCALE))
        reports = [RegionReport(start=0, npages=R, score=0.0, node=3)]
        assert policy.decide(snap(reports), state_of(machine)) == []

    def test_hot_overflow_lands_on_second_tier(self, machine):
        """More hot data than tier 1: the surplus goes to tier 2 —
        the multi-tier advantage over two-tier designs."""
        topo, frames, pt = machine
        tier1_pages = frames.capacity_pages(0)
        hot_regions = tier1_pages // R + 4
        reports = []
        for i in range(hot_regions):
            place(pt, frames, i * R, R, node=2)
            reports.append(RegionReport(start=i * R, npages=R, score=3.0, node=2))
        policy = MtmPolicy(MtmPolicyConfig(
            scale=SCALE, migration_budget_bytes=hot_regions * 2 * MiB
        ))
        orders = policy.decide(snap(reports), state_of(machine))
        destinations = {o.dst_node for o in orders if o.reason == "promotion"}
        assert 0 in destinations and 1 in destinations


class TestSlowDemotion:
    def test_demotes_coldest_to_next_lower_tier(self, machine):
        topo, frames, pt = machine
        tier1 = frames.capacity_pages(0)
        # Fill tier 1 completely with a cold resident.
        place(pt, frames, 0, tier1, node=0)
        hot_start = tier1 + R
        place(pt, frames, hot_start, R, node=2)
        policy = MtmPolicy(MtmPolicyConfig(scale=SCALE, headroom=0.0))
        reports = [
            RegionReport(start=0, npages=tier1, score=0.05, node=0),
            RegionReport(start=hot_start, npages=R, score=3.0, node=2),
        ]
        orders = policy.decide(snap(reports), state_of(machine))
        demotions = [o for o in orders if o.reason == "demotion"]
        promotions = [o for o in orders if o.reason == "promotion"]
        assert demotions and promotions
        # Slow demotion: one tier down (tier 1 -> tier 2 = node 1).
        assert demotions[0].src_node == 0
        assert demotions[0].dst_node == 1

    def test_displacement_needs_margin(self, machine):
        topo, frames, pt = machine
        tier1 = frames.capacity_pages(0)
        place(pt, frames, 0, tier1, node=0)
        place(pt, frames, tier1 + R, R, node=2)
        policy = MtmPolicy(MtmPolicyConfig(scale=SCALE, displacement_margin=0.5, headroom=0.0))
        reports = [
            RegionReport(start=0, npages=tier1, score=1.0, node=0),
            RegionReport(start=tier1 + R, npages=R, score=1.2, node=2),  # within margin
        ]
        orders = policy.decide(snap(reports), state_of(machine))
        assert all(o.dst_node != 0 for o in orders)


class TestMultiView:
    def test_destination_follows_dominant_socket(self, machine):
        topo, frames, pt = machine
        place(pt, frames, 0, R, node=2)  # pm0
        policy = MtmPolicy(MtmPolicyConfig(scale=SCALE))
        reports = [
            RegionReport(start=0, npages=R, score=3.0, node=2, dominant_socket=1)
        ]
        orders = policy.decide(snap(reports), state_of(machine))
        # Socket 1's fastest tier is dram1 (node 1).
        assert orders[0].dst_node == 1
