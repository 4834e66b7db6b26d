"""Unit tests for the baseline policies: tiered-AutoNUMA, AutoTiering,
HeMem, Thermostat, first-touch."""

import pytest

from repro.hw.frames import FrameAccountant
from repro.hw.topology import optane_4tier
from repro.mm.pagetable import PageTable
from repro.policy.autotiering import AutoTieringConfig, AutoTieringPolicy
from repro.policy.base import PlacementState
from repro.policy.first_touch import FirstTouchPolicy
from repro.policy.hemem_policy import HeMemPolicy, HeMemPolicyConfig
from repro.policy.thermostat_policy import ThermostatPolicy, ThermostatPolicyConfig
from repro.policy.tiered_autonuma import TieredAutoNumaConfig, TieredAutoNumaPolicy
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


def place(machine, start, npages, node):
    topo, frames, pt = machine
    pt.map_range(start, npages, node=node)
    frames.allocate(node, npages)


def snap(reports):
    return ProfileSnapshot.from_reports(0, reports, profiling_time=0.0)


def state_of(machine):
    topo, frames, pt = machine
    return PlacementState(page_table=pt, frames=frames, topology=topo)


class TestFirstTouch:
    def test_never_migrates_and_skips_profiling(self, machine):
        policy = FirstTouchPolicy()
        assert not policy.wants_profiling()
        assert policy.decide(snap([]), state_of(machine)) == []


class TestTieredAutoNuma:
    def test_promotes_one_step_within_socket(self, machine):
        place(machine, 0, R, node=2)  # pm0 (socket 0)
        policy = TieredAutoNumaPolicy(TieredAutoNumaConfig(scale=SCALE, auto_threshold=False))
        reports = [RegionReport(start=0, npages=R, score=2.0, node=2)]
        orders = policy.decide(snap(reports), state_of(machine))
        assert len(orders) == 1
        # PM0 -> DRAM0, never straight across sockets or multi-step.
        assert orders[0].dst_node == 0

    def test_remote_pm_promotes_to_remote_dram_first(self, machine):
        place(machine, 0, R, node=3)  # pm1 (socket 1)
        policy = TieredAutoNumaPolicy(TieredAutoNumaConfig(scale=SCALE, auto_threshold=False))
        reports = [RegionReport(start=0, npages=R, score=2.0, node=3)]
        orders = policy.decide(snap(reports), state_of(machine))
        # The page's own socket path: pm1 -> dram1, NOT dram0.
        assert orders[0].dst_node == 1

    def test_cross_socket_step_only_from_dram(self, machine):
        place(machine, 0, R, node=1)  # dram1
        policy = TieredAutoNumaPolicy(TieredAutoNumaConfig(scale=SCALE, auto_threshold=False))
        reports = [RegionReport(start=0, npages=R, score=2.0, node=1, dominant_socket=0)]
        orders = policy.decide(snap(reports), state_of(machine))
        assert orders[0].dst_node == 0

    def test_auto_threshold_rises_when_budget_saturated(self, machine):
        cfg = TieredAutoNumaConfig(scale=SCALE, migration_budget_bytes=2 * MiB)
        policy = TieredAutoNumaPolicy(cfg)
        reports = []
        for i in range(8):
            place(machine, i * R, R, node=2)
            reports.append(RegionReport(start=i * R, npages=R, score=2.0 + i, node=2))
        policy.decide(snap(reports), state_of(machine))
        assert policy._hot_threshold > 0.0

    def test_demotes_within_socket_for_space(self, machine):
        topo, frames, pt = machine
        tier1 = frames.capacity_pages(0)
        place(machine, 0, tier1, node=0)
        place(machine, tier1 + R, R, node=2)
        policy = TieredAutoNumaPolicy(TieredAutoNumaConfig(scale=SCALE, auto_threshold=False))
        reports = [
            RegionReport(start=0, npages=tier1, score=0.0, node=0),
            RegionReport(start=tier1 + R, npages=R, score=2.0, node=2),
        ]
        orders = policy.decide(snap(reports), state_of(machine))
        demotions = [o for o in orders if o.reason == "demotion"]
        assert demotions and demotions[0].dst_node == 2  # dram0 -> pm0 (same socket)


class TestAutoTiering:
    def test_promotes_directly_to_fastest(self, machine):
        place(machine, 0, R, node=3)
        policy = AutoTieringPolicy(AutoTieringConfig(scale=SCALE))
        reports = [RegionReport(start=0, npages=R, score=1.0, node=3)]
        orders = policy.decide(snap(reports), state_of(machine))
        assert orders[0].dst_node == 0  # flexible cross-tier migration

    def test_opportunistic_demotion_may_evict_hot(self, machine):
        """AutoTiering demotes random victims, hot or not."""
        topo, frames, pt = machine
        tier1 = frames.capacity_pages(0)
        place(machine, 0, tier1, node=0)
        place(machine, tier1 + R, R, node=2)
        policy = AutoTieringPolicy(AutoTieringConfig(scale=SCALE, seed=0))
        reports = [
            RegionReport(start=0, npages=tier1, score=3.0, node=0),  # hot resident!
            RegionReport(start=tier1 + R, npages=R, score=0.5, node=2),
        ]
        orders = policy.decide(snap(reports), state_of(machine))
        # It is willing to demote the hot resident to fit a colder page.
        assert any(o.reason == "demotion" and o.score == 3.0 for o in orders)


class TestHeMem:
    def test_threshold_gates_promotion(self, machine):
        place(machine, 0, R, node=2)
        policy = HeMemPolicy(HeMemPolicyConfig(scale=SCALE, hot_threshold=4.0))
        cold = [RegionReport(start=0, npages=R, score=3.0, node=2)]
        assert policy.decide(snap(cold), state_of(machine)) == []
        hot = [RegionReport(start=0, npages=R, score=5.0, node=2)]
        assert len(policy.decide(snap(hot), state_of(machine))) == 1

    def test_demotes_to_pm_not_remote_dram(self, machine):
        topo, frames, pt = machine
        tier1 = frames.capacity_pages(0)
        place(machine, 0, tier1, node=0)
        place(machine, tier1 + R, R, node=2)
        policy = HeMemPolicy(HeMemPolicyConfig(scale=SCALE, hot_threshold=4.0))
        reports = [
            RegionReport(start=0, npages=tier1, score=0.1, node=0),
            RegionReport(start=tier1 + R, npages=R, score=9.0, node=2),
        ]
        orders = policy.decide(snap(reports), state_of(machine))
        demotions = [o for o in orders if o.reason == "demotion"]
        assert demotions
        # Two-tier blindness: eviction goes to PM (node 2/3), skipping dram1.
        assert demotions[0].dst_node in (2, 3)

    def test_stale_hot_residents_not_demoted(self, machine):
        topo, frames, pt = machine
        tier1 = frames.capacity_pages(0)
        place(machine, 0, tier1, node=0)
        place(machine, tier1 + R, R, node=2)
        policy = HeMemPolicy(HeMemPolicyConfig(scale=SCALE, hot_threshold=4.0))
        reports = [
            # Resident still above threshold (stale-hot inertia).
            RegionReport(start=0, npages=tier1, score=5.0, node=0),
            RegionReport(start=tier1 + R, npages=R, score=9.0, node=2),
        ]
        orders = policy.decide(snap(reports), state_of(machine))
        assert all(o.reason != "demotion" for o in orders)


class TestThermostat:
    def test_demotes_cold_from_full_fast_tier(self, machine):
        topo, frames, pt = machine
        tier1 = frames.capacity_pages(0)
        place(machine, 0, tier1, node=0)
        policy = ThermostatPolicy(ThermostatPolicyConfig(scale=SCALE))
        reports = [RegionReport(start=0, npages=tier1, score=0.0, node=0)]
        orders = policy.decide(snap(reports), state_of(machine))
        assert orders and orders[0].reason == "demotion"

    def test_recovers_misjudged_hot(self, machine):
        place(machine, 0, R, node=2)
        policy = ThermostatPolicy(ThermostatPolicyConfig(scale=SCALE))
        reports = [RegionReport(start=0, npages=R, score=2.0, node=2)]
        orders = policy.decide(snap(reports), state_of(machine))
        assert orders and orders[0].reason == "promotion" and orders[0].dst_node == 0
