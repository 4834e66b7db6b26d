"""Property-based tests for the migrating policies.

Every migrating policy (tiered-AutoNUMA in both its patched and vanilla
configs) plans on random regions of a two-socket machine whose DRAM
nodes unreported filler keeps nearly full, so promotions have to demote.
The policies plan on snapshot columns; :class:`TestColumnsMatchReference`
holds them to their object-based bodies (``tests/reference_policies.py``)
on one- and two-socket machines, tied scores, regions straddling nodes
and unmapped holes.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.hw.frames import FrameAccountant
from repro.hw.tier import MemoryKind
from repro.hw.topology import optane_2tier, optane_4tier
from repro.migrate.move_pages import MovePagesMechanism
from repro.migrate.planner import MigrationPlanner
from repro.mm.pagetable import PageTable
from repro.policy.autotiering import AutoTieringConfig, AutoTieringPolicy
from repro.policy.base import PlacementLedger, PlacementState
from repro.policy.damos import DamosConfig, DamosPolicy
from repro.policy.hemem_policy import HeMemPolicy, HeMemPolicyConfig
from repro.policy.mtm_policy import MtmPolicy, MtmPolicyConfig
from repro.policy.thermostat_policy import ThermostatPolicy, ThermostatPolicyConfig
from repro.policy.tiered_autonuma import TieredAutoNumaConfig, TieredAutoNumaPolicy
from repro.profile.base import ProfileSnapshot, RegionReport
from repro.sim.costmodel import CostModel, CostParams
from repro.units import MiB, PAGE_SIZE, PAGES_PER_HUGE_PAGE
from tests.reference_policies import RefLedger, reference_decide

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
    snapshot = ProfileSnapshot.from_reports(0, reports, profiling_time=0.0)
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


@st.composite
def layouts(draw):
    """A one- or two-socket machine and regions over it.

    Regions may leave gaps between them, straddle two nodes or hold an
    unmapped hole, and often tie on score; filler keeps each DRAM node
    full but for a few huge pages.  Returns ``(topology, regions,
    dram_free)``, a region being ``(start, npages, score, socket,
    pieces)`` with each piece ``(start, end, node)`` and node -1 for a
    hole.
    """
    topo = optane_4tier(SCALE) if draw(st.booleans()) else optane_2tier(SCALE)
    nodes = st.sampled_from(list(topo.node_ids) + [-1])
    regions = []
    start = 0
    for _ in range(draw(st.integers(min_value=1, max_value=16))):
        start += draw(st.sampled_from([0, 0, R // 2, R]))
        npages = draw(st.sampled_from([R // 2, R, 3 * R // 2, 2 * R, 3 * R]))
        cut = start + draw(st.sampled_from([npages, npages // 2, npages // 3]))
        pieces = [(lo, hi, draw(nodes))
                  for lo, hi in ((start, cut), (cut, start + npages)) if lo < hi]
        score = draw(st.sampled_from([0.0, 1.0, 2.0, 4.0])
                     | st.floats(min_value=0.0, max_value=8.0))
        socket = draw(st.sampled_from([-1] + list(range(topo.num_sockets))))
        regions.append((start, npages, score, socket, pieces))
        start += npages
    n_dram = sum(c.kind == MemoryKind.DRAM for c in topo.components)
    dram_free = draw(st.lists(st.integers(min_value=0, max_value=4),
                              min_size=n_dram, max_size=n_dram))
    return topo, regions, dram_free


def build_layout(layout):
    """The regions' pieces and the DRAM filler mapped, and the profiler's
    view of them: a snapshot whose nodes are the regions' majorities."""
    topo, regions, dram_free = layout
    frames = FrameAccountant(topo)
    dram = [c.node_id for c in topo.components if c.kind == MemoryKind.DRAM]
    end = regions[-1][0] + regions[-1][1]
    pieces = [piece for region in regions for piece in region[4]]
    for lo, hi, node in pieces:
        if node >= 0:
            frames.allocate(node, hi - lo)
    filler = {node: frames.free_pages(node) - free * R for node, free in zip(dram, dram_free)}
    pt = PageTable(end + sum(filler.values()) + R)
    for lo, hi, node in pieces:
        if node >= 0:
            pt.map_range(lo, hi - lo, node=node)
    for node, npages in filler.items():
        pt.map_range(end, npages, node=node)
        frames.allocate(node, npages)
        end += npages
    start, npages, score, socket = (np.array(col) for col in zip(*(r[:4] for r in regions)))
    snapshot = ProfileSnapshot.from_regions(0, pt, start, npages, score, socket,
                                            profiling_time=0.0)
    return PlacementState(page_table=pt, frames=frames, topology=topo), snapshot


def order_fields(order):
    return (order.pages.tolist(), order.pages.dtype, order.src_node, order.dst_node,
            order.reason, order.score)


def policy_state(policy):
    """Everything a policy carries from one interval to the next."""
    state = dict(vars(policy))
    if "rng" in state:
        state["rng"] = state["rng"].bit_generator.state
    return state


def ref_top_hot_pages(reports, volume_pages):
    """Hottest regions first by Python's stable ``sorted``, the last one
    cut to the volume."""
    chosen, taken = [], 0
    for report in sorted(reports, key=lambda r: r.score, reverse=True):
        if report.score <= 0 or taken >= volume_pages:
            break
        pages = np.arange(report.start, report.end, dtype=np.int64)[: volume_pages - taken]
        chosen.append(pages)
        taken += pages.size
    return np.sort(np.concatenate(chosen)) if chosen else np.empty(0, dtype=np.int64)


class TestColumnsMatchReference:
    """The column policies and snapshot helpers against the row bodies
    they replaced."""

    @every_policy
    @given(layout=layouts(), budget_mb=st.integers(min_value=2, max_value=64))
    @settings(max_examples=60, deadline=None)
    def test_orders_and_state_equal_reference(self, name, layout, budget_mb):
        state, snapshot = build_layout(layout)
        policy = make_policy(name, budget_mb * MiB)
        reference = make_policy(name, budget_mb * MiB)
        # The second round starts from the state the first left: the
        # threshold of tiered-AutoNUMA, the generator of AutoTiering.
        for _ in range(2):
            got = policy.decide(snapshot, state)
            want = reference_decide(reference, snapshot.reports, state)
            assert [order_fields(o) for o in got] == [order_fields(o) for o in want]
            assert policy_state(policy) == policy_state(reference)

    @given(layout=layouts())
    @settings(max_examples=60, deadline=None)
    def test_region_pages_equal_page_gather(self, layout):
        state, snapshot = build_layout(layout)
        ledger, reference = PlacementLedger(state, snapshot), RefLedger(state)
        for i, report in enumerate(snapshot.reports):
            pages = np.arange(report.start, report.end)
            held = [int(n) for n in np.unique(state.page_table.node[pages]) if n >= 0]
            assert ledger.nodes_of(i) == held
            for node in [-1, *state.topology.node_ids]:
                got = ledger.pages_on(i, node)
                want = reference.pages_on(report, node)
                assert got.dtype == want.dtype
                np.testing.assert_array_equal(got, want)

    @given(layout=layouts(), volume=st.integers(min_value=0, max_value=40 * R))
    @settings(max_examples=60, deadline=None)
    def test_top_hot_pages_equal_stable_sorted(self, layout, volume):
        _, snapshot = build_layout(layout)
        reports = list(snapshot.reports)
        got = snapshot.top_hot_pages(volume)
        want = ref_top_hot_pages(reports, volume)
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)
        assert snapshot.hot_volume_pages() == sum(r.npages for r in reports if r.score > 0)
