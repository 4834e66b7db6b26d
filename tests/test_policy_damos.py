"""Tests for the DAMOS extension policy."""

import pytest

from repro.core.baselines import make_engine
from repro.errors import ConfigError
from repro.hw.frames import FrameAccountant
from repro.hw.topology import optane_4tier
from repro.mm.pagetable import PageTable
from repro.policy.base import PlacementState
from repro.policy.damos import DamosConfig, DamosPolicy
from repro.profile.base import ProfileSnapshot, RegionReport
from repro.units import PAGE_SIZE, PAGES_PER_HUGE_PAGE

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


class TestDamosPolicy:
    def test_migrate_hot(self, machine):
        place(machine, 0, R, node=2)
        policy = DamosPolicy(DamosConfig(scale=SCALE, hot_threshold=1.0))
        orders = policy.decide(
            snap([RegionReport(start=0, npages=R, score=2.0, node=2)]),
            state_of(machine),
        )
        assert orders and orders[0].dst_node == 0

    def test_migrate_cold(self, machine):
        place(machine, 0, R, node=0)
        policy = DamosPolicy(DamosConfig(scale=SCALE, cold_threshold=0.0))
        orders = policy.decide(
            snap([RegionReport(start=0, npages=R, score=0.0, node=0)]),
            state_of(machine),
        )
        assert orders and orders[0].reason == "demotion"
        assert orders[0].dst_node == 1  # one tier down

    def test_thresholds_gate_both_schemes(self, machine):
        place(machine, 0, R, node=2)
        place(machine, R, R, node=0)
        policy = DamosPolicy(DamosConfig(scale=SCALE, hot_threshold=5.0, cold_threshold=0.0))
        orders = policy.decide(
            snap([
                RegionReport(start=0, npages=R, score=2.0, node=2),   # below hot
                RegionReport(start=R, npages=R, score=1.0, node=0),   # above cold
            ]),
            state_of(machine),
        )
        assert orders == []

    def test_quota_bounds_traffic(self, machine):
        for i in range(8):
            place(machine, i * R, R, node=2)
        policy = DamosPolicy(DamosConfig(scale=SCALE, migration_budget_bytes=2 * R * PAGE_SIZE))
        reports = [
            RegionReport(start=i * R, npages=R, score=3.0, node=2) for i in range(8)
        ]
        orders = policy.decide(snap(reports), state_of(machine))
        assert sum(o.npages for o in orders) <= 2 * R

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            DamosConfig(hot_threshold=0.0, cold_threshold=1.0)

    def test_end_to_end_solution(self):
        result = make_engine("damon", "gups", SCALE, seed=2).run(10)
        assert result.total_time > 0
        assert result.migration_log.promoted_pages >= 0
