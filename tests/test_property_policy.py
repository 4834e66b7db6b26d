"""Property-based tests for the migrating policies' safety invariants.

Every migrating policy (tiered-AutoNUMA in both its patched and vanilla
configs) plans on random regions of a two-socket machine whose DRAM
nodes unreported filler keeps nearly full, so promotions have to demote.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.hw.frames import FrameAccountant
from repro.hw.tier import MemoryKind
from repro.hw.topology import optane_4tier
from repro.migrate.move_pages import MovePagesMechanism
from repro.migrate.planner import MigrationPlanner
from repro.mm.pagetable import PageTable
from repro.policy.autotiering import AutoTieringConfig, AutoTieringPolicy
from repro.policy.base import PlacementState
from repro.policy.damos import DamosConfig, DamosPolicy
from repro.policy.hemem_policy import HeMemPolicy, HeMemPolicyConfig
from repro.policy.mtm_policy import MtmPolicy, MtmPolicyConfig
from repro.policy.thermostat_policy import ThermostatPolicy, ThermostatPolicyConfig
from repro.policy.tiered_autonuma import TieredAutoNumaConfig, TieredAutoNumaPolicy
from repro.profile.base import ProfileSnapshot, RegionReport
from repro.sim.costmodel import CostModel, CostParams
from repro.units import MiB, PAGE_SIZE, PAGES_PER_HUGE_PAGE

SCALE = 1.0 / 512.0
R = PAGES_PER_HUGE_PAGE

#: name -> (policy class, config class, config overrides)
POLICIES = {
    "mtm": (MtmPolicy, MtmPolicyConfig, {}),
    "tiered-autonuma": (TieredAutoNumaPolicy, TieredAutoNumaConfig, {}),
    "vanilla-tiered-autonuma": (TieredAutoNumaPolicy, TieredAutoNumaConfig,
                                {"auto_threshold": False}),
    "autotiering": (AutoTieringPolicy, AutoTieringConfig, {}),
    "hemem": (HeMemPolicy, HeMemPolicyConfig, {}),
    "thermostat": (ThermostatPolicy, ThermostatPolicyConfig, {}),
    "damos": (DamosPolicy, DamosConfig, {}),
}
#: Policies whose budget counts every move; the rest count promotions.
COUNTS_DEMOTIONS = {"thermostat", "damos"}
#: Policies that cut the last promotion at a huge-page boundary, so their
#: promotions fit the budget exactly; the rest stop once it is spent.
EXACT = {"mtm", "damos"}

every_policy = pytest.mark.parametrize("name", list(POLICIES))


def make_policy(name, budget_bytes=None):
    policy_cls, config_cls, overrides = POLICIES[name]
    return policy_cls(config_cls(scale=SCALE, migration_budget_bytes=budget_bytes,
                                 **overrides))


@st.composite
def placements(draw):
    """Random contiguous regions spread across the four components, and
    the huge pages left free on each DRAM node."""
    n = draw(st.integers(min_value=1, max_value=16))
    reports = []
    start = 0
    for _ in range(n):
        npages = draw(st.integers(min_value=1, max_value=3)) * R
        node = draw(st.integers(min_value=0, max_value=3))
        # Spans every policy's thresholds: DAMOS's and Thermostat's cold
        # 0, DAMOS's hot 1 and HeMem's hot 4.
        score = draw(st.just(0.0) | st.floats(min_value=0.0, max_value=8.0))
        socket = draw(st.sampled_from([-1, 0, 1]))
        reports.append(RegionReport(
            start=start, npages=npages, score=score, node=node,
            dominant_socket=socket,
        ))
        start += npages
    dram_free = draw(st.lists(st.integers(min_value=0, max_value=4), min_size=2, max_size=2))
    return reports, dram_free


def build_state(reports, dram_free):
    """The regions mapped, then filler on each DRAM node until only
    ``dram_free`` huge pages stay free there; the page table and the
    accountant agree."""
    topo = optane_4tier(SCALE)
    frames = FrameAccountant(topo)
    for r in reports:
        frames.allocate(r.node, r.npages)
    dram = [c.node_id for c in topo.components if c.kind == MemoryKind.DRAM]
    filler = {node: frames.free_pages(node) - free * R for node, free in zip(dram, dram_free)}
    end = max(r.end for r in reports)
    pt = PageTable(end + sum(filler.values()) + R)
    for r in reports:
        pt.map_range(r.start, r.npages, node=r.node)
    for node, npages in filler.items():
        pt.map_range(end, npages, node=node)
        frames.allocate(node, npages)
        end += npages
    return PlacementState(page_table=pt, frames=frames, topology=topo)


def decide(name, reports, state, budget_bytes=None):
    snapshot = ProfileSnapshot(interval=0, reports=reports, profiling_time=0.0)
    return make_policy(name, budget_bytes).decide(snapshot, state)


class TestPolicyInvariants:
    @every_policy
    @given(placement=placements(), budget_mb=st.integers(min_value=2, max_value=64))
    @settings(max_examples=60, deadline=None)
    def test_orders_are_safe_and_budgeted(self, name, placement, budget_mb):
        reports, dram_free = placement
        state = build_state(reports, dram_free)
        orders = decide(name, reports, state, budget_mb * MiB)

        budget = budget_mb * MiB // PAGE_SIZE
        promoted = counted = 0
        for order in orders:
            # Every ordered page really lives on the claimed source node.
            assert np.all(state.page_table.node[order.pages] == order.src_node)
            if order.reason == "promotion":
                promoted += order.npages
            if order.reason == "promotion" or name in COUNTS_DEMOTIONS:
                counted += order.npages
        if name in EXACT:
            assert promoted <= budget
        # The last move may start just before the budget runs out.
        assert counted < budget + max(r.npages for r in reports)

    @every_policy
    @given(placement=placements())
    @settings(max_examples=40, deadline=None)
    def test_promotions_move_strictly_up(self, name, placement):
        reports, dram_free = placement
        state = build_state(reports, dram_free)
        topo = state.topology
        for order in decide(name, reports, state):
            if order.reason != "promotion":
                continue
            # Under at least one socket's view the move goes to a strictly
            # faster tier (the region's dominant accessor decided which).
            improvements = [
                topo.view(s).tier_of(order.dst_node) < topo.view(s).tier_of(order.src_node)
                for s in range(topo.num_sockets)
            ]
            assert any(improvements)

    @every_policy
    @given(placement=placements())
    @settings(max_examples=40, deadline=None)
    def test_executing_orders_keeps_accounting_exact(self, name, placement):
        reports, dram_free = placement
        state = build_state(reports, dram_free)
        planner = MigrationPlanner(
            state.page_table, state.frames,
            MovePagesMechanism(CostModel(state.topology, CostParams())),
        )
        planner.execute(decide(name, reports, state))
        planner.sanity_check()
        for node in state.topology.node_ids:
            assert state.frames.used_pages(node) <= state.frames.capacity_pages(node)

    @every_policy
    @given(placement=placements())
    @settings(max_examples=30, deadline=None)
    def test_decide_is_deterministic(self, name, placement):
        reports, dram_free = placement
        state = build_state(reports, dram_free)
        a = decide(name, reports, state)
        b = decide(name, reports, state)
        assert len(a) == len(b)
        for x, y in zip(a, b):
            assert np.array_equal(x.pages, y.pages)
            assert (x.src_node, x.dst_node, x.reason) == (y.src_node, y.dst_node, y.reason)
