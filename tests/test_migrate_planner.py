"""Unit tests for the migration planner."""

from dataclasses import asdict

import numpy as np
import pytest

from repro.errors import MigrationError
from repro.faults.injector import FaultConfig, FaultInjector
from repro.hw.frames import FrameAccountant
from repro.hw.topology import optane_4tier
from repro.migrate.mechanism import MigrationTiming, StepTimes
from repro.migrate.move_pages import MovePagesMechanism
from repro.migrate.mtm_mechanism import MoveMemoryRegionsMechanism
from repro.migrate.nimble import NimbleMechanism
from repro.migrate.planner import MigrationPlanner
from repro.mm.mmu import Mmu
from repro.mm.pagetable import PageTable
from repro.obs.context import ObsContext
from repro.obs.events import EV_MECH_SYNC_SWITCH, EV_MIG_ISSUED
from repro.obs.provenance import STAGE_COMMITTED
from repro.policy.base import MigrationOrder
from repro.sim.costmodel import CostModel, CostParams
from repro.sim.trace import AccessBatch
from repro.units import PAGE_SIZE, PAGES_PER_HUGE_PAGE

R = PAGES_PER_HUGE_PAGE


@pytest.fixture
def env():
    topo = optane_4tier(1 / 512)
    cm = CostModel(topo, CostParams())
    frames = FrameAccountant(topo)
    pt = PageTable(topo.total_capacity() // PAGE_SIZE)
    planner = MigrationPlanner(pt, frames, MovePagesMechanism(cm))
    return pt, frames, planner


def order(start, npages, src, dst, reason="promotion"):
    return MigrationOrder(
        pages=np.arange(start, start + npages, dtype=np.int64),
        src_node=src,
        dst_node=dst,
        reason=reason,
    )


class TestExecute:
    def test_moves_pages_and_accounting(self, env):
        pt, frames, planner = env
        pt.map_range(0, R, node=2)
        frames.allocate(2, R)
        planner.execute([order(0, R, 2, 0)])
        assert pt.node_of(0) == 0
        assert frames.used_pages(0) == R
        assert frames.used_pages(2) == 0
        planner.sanity_check()

    def test_skips_stale_orders(self, env):
        pt, frames, planner = env
        pt.map_range(0, R, node=1)
        frames.allocate(1, R)
        planner.execute([order(0, R, 2, 0)])  # claims src=2, actually on 1
        assert planner.log.orders_skipped == 1
        assert pt.node_of(0) == 1

    def test_partial_stale_moves_remainder(self, env):
        pt, frames, planner = env
        pt.map_range(0, R, node=2)
        frames.allocate(2, R)
        pt.move_pages(np.arange(0, 100), 0)
        frames.move(2, 0, 100)
        planner.execute([order(0, R, 2, 3)])
        assert pt.node_of(0) == 0  # already moved pages untouched
        assert pt.node_of(200) == 3

    def test_capacity_shortfall_skips(self, env):
        pt, frames, planner = env
        pt.map_range(0, R, node=2)
        frames.allocate(2, R)
        frames.allocate(0, frames.free_pages(0))  # tier 1 full
        planner.execute([order(0, R, 2, 0)])
        assert planner.log.orders_skipped == 1

    def test_promotion_demotion_accounting(self, env):
        pt, frames, planner = env
        pt.map_range(0, R, node=2)
        pt.map_range(R, R, node=0)
        frames.allocate(2, R)
        frames.allocate(0, R)
        planner.execute([
            order(R, R, 0, 2, reason="demotion"),
            order(0, R, 2, 0, reason="promotion"),
        ])
        assert planner.log.promoted_pages == R
        assert planner.log.demoted_pages == R

    def test_timing_accumulates(self, env):
        pt, frames, planner = env
        pt.map_range(0, 2 * R, node=2)
        frames.allocate(2, 2 * R)
        timing = planner.execute([order(0, R, 2, 0), order(R, R, 2, 0)])
        single = MovePagesMechanism(planner.mechanism.cost_model).timing(R, 2, 0)
        assert timing.critical_time == pytest.approx(2 * single.critical_time)


class TestHugePageTearing:
    def test_partial_huge_order_splits_page(self, env):
        pt, frames, planner = env
        pt.map_range(0, R, node=2, huge=True)
        frames.allocate(2, R)
        half = MigrationOrder(
            pages=np.arange(0, R // 2, dtype=np.int64), src_node=2, dst_node=0
        )
        planner.execute([half])
        assert planner.log.huge_pages_torn == 1
        assert not pt.is_huge(0)
        assert pt.node_of(0) == 0
        assert pt.node_of(R - 1) == 2

    def test_whole_huge_order_keeps_thp(self, env):
        pt, frames, planner = env
        pt.map_range(0, R, node=2, huge=True)
        frames.allocate(2, R)
        planner.execute([order(0, R, 2, 0)])
        assert planner.log.huge_pages_torn == 0
        assert pt.is_huge(0)
        assert pt.node_of(0) == 0


def loop_tear_partial_huge_pages(page_table, pages) -> int:
    """Split every huge page the order covers only partly, by set
    membership: the reference semantics of the planner's tearing."""
    huge = page_table.is_huge(pages)
    page_set = set(pages.tolist())
    torn = 0
    for head in np.unique(pages[huge] - pages[huge] % R).tolist():
        if not all(p in page_set for p in range(head, head + R)):
            page_table.split_huge(head)
            torn += 1
    return torn


def loop_write_rates(page_table, mmu, pages, interval) -> list[float]:
    """Per 2 MB chunk of the order, the writes over its distinct entries
    per second: the reference semantics of the planner's write rate."""
    rates = []
    for lo in range(0, pages.size, R):
        entries = np.unique(page_table.entry_index(pages[lo:lo + R]))
        rates.append(int(mmu.entry_write_count(entries).sum()) / interval)
    return rates


class TestCommitMoveReferences:
    """Per-chunk write rates and huge-page tearing against
    :func:`loop_write_rates` and :func:`loop_tear_partial_huge_pages`.

    The space holds huge pages 0-3 and base pages after them.  The order
    covers huge page 0 fully, huge page 1 partly, huge page 2 fully in
    reverse, huge page 3 not at all, and some base pages, so its 2 MB
    chunks straddle every kind of entry.
    """

    PAGES = np.concatenate([
        np.arange(0, R), np.arange(R, R + 100), np.arange(3 * R - 1, 2 * R - 1, -1),
        np.arange(4 * R + 7, 5 * R + 300),
    ]).astype(np.int64)

    @staticmethod
    def _env():
        topo = optane_4tier(1 / 512)
        frames = FrameAccountant(topo)
        pt = PageTable(topo.total_capacity() // PAGE_SIZE)
        pt.map_range(0, 4 * R, node=2, huge=True)
        pt.map_range(4 * R, 2 * R, node=2)
        frames.allocate(2, 6 * R)
        mmu = Mmu(pt, num_sockets=1)
        rng = np.random.default_rng(4)
        touched = np.sort(rng.choice(6 * R, size=1500, replace=False))
        counts = rng.integers(1, 9, touched.size)
        mmu.begin_interval(AccessBatch(
            pages=touched, counts=counts, writes=rng.integers(0, counts + 1),
            sockets=np.zeros(touched.size, dtype=np.int8)))
        mechanism = MovePagesMechanism(CostModel(topo, CostParams()))
        rates: list[float] = []
        timing = mechanism.timing

        def spy(npages, src, dst, write_rate=0.0):
            rates.extend(write_rate)  # one rate per 2 MB region move
            return timing(npages, src, dst, write_rate=write_rate)

        mechanism.timing = spy
        return pt, mmu, MigrationPlanner(pt, frames, mechanism), rates

    def test_tearing_equals_set_loop(self):
        # As given, and sorted: the sort-free branch for ascending orders.
        for pages, ascending in ((self.PAGES, False), (np.sort(self.PAGES), True)):
            pt, _, planner, _ = self._env()
            ref, _, _, _ = self._env()
            assert planner._tear_partial_huge_pages(pages, ascending) == \
                loop_tear_partial_huge_pages(ref, pages) == 1
            np.testing.assert_array_equal(pt.flags[:6 * R], ref.flags[:6 * R])
            everything = np.arange(6 * R, dtype=np.int64)
            np.testing.assert_array_equal(pt.entry_index(everything),
                                          ref.entry_index(everything))
            assert pt.is_huge(0) and not pt.is_huge(R) and pt.is_huge(3 * R)

    def test_write_rates_equal_per_chunk_unique(self):
        pt, mmu, planner, rates = self._env()
        ref, ref_mmu, _, _ = self._env()
        loop_tear_partial_huge_pages(ref, self.PAGES)
        want = loop_write_rates(ref, ref_mmu, self.PAGES, planner.interval)
        planner.execute([MigrationOrder(pages=self.PAGES, src_node=2, dst_node=0)], mmu)
        assert planner.log.huge_pages_torn == 1
        assert rates == want
        assert len(want) == 4 and min(want) > 0


class TestTimeScale:
    def test_time_scale_shrinks_charges(self, env):
        pt, frames, planner = env
        topo = optane_4tier(1 / 512)
        cm = CostModel(topo, CostParams())
        pt2 = PageTable(topo.total_capacity() // PAGE_SIZE)
        frames2 = FrameAccountant(topo)
        scaled = MigrationPlanner(pt2, frames2, MovePagesMechanism(cm), time_scale=0.5)
        pt.map_range(0, R, node=2)
        frames.allocate(2, R)
        pt2.map_range(0, R, node=2)
        frames2.allocate(2, R)
        full = planner.execute([order(0, R, 2, 0)])
        half = scaled.execute([order(0, R, 2, 0)])
        assert half.critical_time == pytest.approx(full.critical_time * 0.5)

    def test_invalid_time_scale(self, env):
        pt, frames, planner = env
        with pytest.raises(MigrationError):
            MigrationPlanner(pt, frames, planner.mechanism, time_scale=0)

    def test_sanity_check_detects_divergence(self, env):
        pt, frames, planner = env
        pt.map_range(0, R, node=2)  # page table has pages, accountant empty
        with pytest.raises(MigrationError):
            planner.sanity_check()


# -- the per-order timing pass against the per-chunk loop it replaced ----------

STEPS = ("allocate", "unmap_remap", "copy", "migrate_page_table", "dirtiness_tracking")


def ref_record_timing(mechanism, timing, npages, src, dst) -> None:
    """The telemetry each per-chunk ``timing()`` call recorded."""
    obs = mechanism.obs
    if obs is None:
        return
    if mechanism._obs_bound is not obs:
        mechanism._bind_obs_handles(obs)
    calls, pages, critical, background = mechanism._obs_handles
    calls()
    pages(npages)
    critical(timing.critical_time)
    background(timing.background_time)
    if timing.switched_to_sync:
        obs.emit(EV_MECH_SYNC_SWITCH, npages=npages, src=src, dst=dst)
        obs.inc("mechanism.sync_switches", mechanism=mechanism.name)


def ref_chunk_timing(mechanism, npages, src, dst, write_rate) -> MigrationTiming:
    """One 2 MB chunk through the object-building ``timing()`` bodies of
    ``move_pages()``, Nimble and ``move_memory_regions()``."""
    cm = mechanism.cost_model
    if isinstance(mechanism, MovePagesMechanism):
        timing = MigrationTiming(critical=StepTimes(
            allocate=cm.alloc_time(npages),
            unmap_remap=cm.unmap_time(npages) + cm.map_time(npages),
            copy=cm.copy_time(npages, src, dst, parallelism=1) * mechanism._stall_factor(),
        ))
    elif isinstance(mechanism, NimbleMechanism):
        timing = MigrationTiming(critical=StepTimes(
            allocate=cm.alloc_time(npages) * (0.5 if mechanism.exchange else 1.0),
            unmap_remap=cm.unmap_time(npages) + cm.map_time(npages),
            copy=cm.copy_time(npages, src, dst, parallelism=mechanism.copy_threads)
            * mechanism._stall_factor(),
        ))
    else:
        cfg = mechanism.config
        copy_time = cm.copy_time(npages, src, dst, parallelism=cfg.copy_threads)
        alloc_time = cm.alloc_time(npages)
        unmap_remap = (cm.unmap_time(npages) + cm.map_time(npages)) * cfg.remap_batch_factor
        pte_migrate = cm.pte_migrate_time(npages)
        if mechanism.force_sync:
            timing = MigrationTiming(critical=StepTimes(
                allocate=alloc_time,
                unmap_remap=cm.unmap_time(npages) + cm.map_time(npages),
                copy=copy_time * mechanism._stall_factor(),
                migrate_page_table=pte_migrate,
            ))
        else:
            tracking = cfg.tlb_flush_cost
            stall = mechanism._stall_factor()
            if not mechanism._write_lands_mid_copy(write_rate, (copy_time + alloc_time) * stall):
                timing = MigrationTiming(
                    critical=StepTimes(unmap_remap=unmap_remap,
                                       migrate_page_table=pte_migrate,
                                       dirtiness_tracking=tracking),
                    background=StepTimes(allocate=alloc_time * stall, copy=copy_time * stall),
                )
            else:
                timing = MigrationTiming(
                    critical=StepTimes(
                        allocate=alloc_time,
                        unmap_remap=cm.unmap_time(npages) + cm.map_time(npages),
                        copy=copy_time,
                        migrate_page_table=pte_migrate,
                        dirtiness_tracking=tracking + cm.params.write_protect_fault_cost,
                    ),
                    background=StepTimes(copy=copy_time * cfg.recopy_fraction),
                    switched_to_sync=True,
                    extra_copied_pages=int(npages * cfg.recopy_fraction),
                )
    ref_record_timing(mechanism, timing, npages, src, dst)
    return timing


def ref_accumulate(total: MigrationTiming, timing: MigrationTiming) -> None:
    """Fold ``timing`` into ``total`` field by field."""
    for step in STEPS:
        setattr(total.critical, step, getattr(total.critical, step) + getattr(timing.critical, step))
        setattr(total.background, step,
                getattr(total.background, step) + getattr(timing.background, step))
    total.switched_to_sync = total.switched_to_sync or timing.switched_to_sync
    total.extra_copied_pages += timing.extra_copied_pages


class ReferencePlanner(MigrationPlanner):
    """The planner before the per-order timing pass: every 2 MB chunk is
    one :func:`ref_chunk_timing` call, folded in by :func:`ref_accumulate`
    and then scaled, with tearing and write rates from the loop
    references above."""

    _accumulate = staticmethod(ref_accumulate)

    def _commit_move(self, pages, src_node, dst_node, reason, mmu, mechanism):
        torn = loop_tear_partial_huge_pages(self.page_table, pages)
        self.log.huge_pages_torn += torn
        rates = None
        if mmu is not None and self.interval > 0:
            rates = loop_write_rates(self.page_table, mmu, pages, self.interval)
        timing = MigrationTiming()
        for k, lo in enumerate(range(0, int(pages.size), R)):
            chunk = pages[lo:lo + R]
            rate = rates[k] if rates is not None else 0.0
            ref_accumulate(timing, ref_chunk_timing(
                mechanism, int(chunk.size), src_node, dst_node, rate))
        if self.time_scale != 1.0:
            for step in STEPS:
                setattr(timing.critical, step, getattr(timing.critical, step) * self.time_scale)
                setattr(timing.background, step,
                        getattr(timing.background, step) * self.time_scale)
        self.page_table.move_pages(pages, dst_node)
        self.frames.move(src_node, dst_node, int(pages.size))
        self.log.orders_executed += 1
        if reason == "promotion":
            self.log.promoted_pages += int(pages.size)
        else:
            self.log.demoted_pages += int(pages.size)
        if timing.switched_to_sync:
            self.log.sync_switches += 1
        self.log.extra_copied_pages += timing.extra_copied_pages
        if self.obs is not None:
            self.obs.emit(
                EV_MIG_ISSUED, interval=self._interval_index,
                pages=int(pages.size), src=src_node, dst=dst_node,
                reason=reason, mechanism=mechanism.name,
                critical_time=timing.critical_time,
                background_time=timing.background_time, torn=torn,
            )
            self._prov(STAGE_COMMITTED, int(pages[0]), int(pages.size),
                       src_node, dst_node, reason, detail=mechanism.name)
        return timing


MECHANISMS = {
    "move_pages": lambda cm: MovePagesMechanism(cm),
    "nimble": lambda cm: NimbleMechanism(cm),
    "mtm-async": lambda cm: MoveMemoryRegionsMechanism(cm, rng=np.random.default_rng(5)),
    "mtm-sync": lambda cm: MoveMemoryRegionsMechanism(
        cm, rng=np.random.default_rng(5), force_sync=True),
}

#: Node 0's residents: all but the last 100 are touched, so the victims
#: of a demotion for room put untouched pages before lower, touched ones
#: and do not ascend.
RESIDENTS = 40 * R


def _timing_env(planner_cls, mechanism, fault_rate, time_scale):
    """Huge pages on node 2, base pages on node 3, node 0 full but for
    two huge pages, and a written batch; the planner runs with obs, a
    fallback mechanism and (for ``fault_rate`` > 0) an injector."""
    topo = optane_4tier(1 / 512)
    cm = CostModel(topo, CostParams())
    frames = FrameAccountant(topo)
    pt = PageTable(topo.total_capacity() // PAGE_SIZE)
    pt.map_range(0, 8 * R, node=2, huge=True)
    pt.map_range(8 * R, 32 * R, node=3)
    fill = frames.capacity_pages(0) - 2 * R
    pt.map_range(RESIDENTS, fill, node=0)
    frames.allocate(2, 8 * R)
    frames.allocate(3, 32 * R)
    frames.allocate(0, fill)
    # Per 2 MB chunk: none, some or many writes, so rates hit and miss.
    rng = np.random.default_rng(9)
    touched = np.concatenate([
        np.sort(rng.choice(40 * R, size=10000, replace=False)),
        np.arange(RESIDENTS, RESIDENTS + fill - 100),
    ]).astype(np.int64)
    counts = rng.integers(1, 4, touched.size)
    writes = np.where(touched // R % 3 == 0, 0, rng.integers(0, counts + 1))
    mmu = Mmu(pt, num_sockets=1)
    mmu.begin_interval(AccessBatch(pages=touched, counts=counts, writes=writes,
                                   sockets=np.zeros(touched.size, dtype=np.int8)))
    obs = ObsContext()
    injector = None
    if fault_rate:
        injector = FaultInjector(FaultConfig.uniform(fault_rate), seed=11)
        injector.obs = obs
    primary, fallback = MECHANISMS[mechanism](cm), MovePagesMechanism(cm)
    for m in (primary, fallback):
        m.attach_injector(injector)
        m.attach_obs(obs)
    planner = planner_cls(pt, frames, primary, interval=0.05, time_scale=time_scale,
                          injector=injector, fallback_mechanism=fallback, topology=topo)
    planner.obs = obs
    return planner, mmu, obs


def _timing_orders(interval):
    """Orders of one interval: a full-chunk promotion that needs room, a
    partial last chunk, a descending order, a demotion, and 24 chunks
    in one order (sums of that many terms tell chunk-order adds from
    pairwise or compensated summation)."""
    def pages(lo, hi):
        return np.arange(lo, hi, dtype=np.int64)

    if interval == 0:
        return [
            MigrationOrder(pages(0, 3 * R), src_node=2, dst_node=0, score=3.0),
            MigrationOrder(pages(8 * R, 10 * R + 100), src_node=3, dst_node=1, score=2.0),
            MigrationOrder(pages(3 * R, 5 * R)[::-1].copy(), src_node=2, dst_node=1),
            MigrationOrder(pages(5 * R, 6 * R), src_node=2, dst_node=3, reason="demotion"),
            MigrationOrder(pages(12 * R, 36 * R), src_node=3, dst_node=1, score=1.5),
        ]
    return [
        MigrationOrder(pages(6 * R, 8 * R), src_node=2, dst_node=0, score=1.0),
        MigrationOrder(pages(10 * R + 100, 12 * R), src_node=3, dst_node=0),
    ]


def _timing_fields(timing):
    return (timing.critical.as_dict(), timing.background.as_dict(),
            timing.switched_to_sync, timing.extra_copied_pages)


def _events(obs):
    return [(e.name, e.sim_time, e.interval, e.fields) for e in obs.bus.events]


class TestPerOrderTimingPass:
    """The planner's one timing pass per order leaves everything exactly
    as :class:`ReferencePlanner`'s per-chunk loop does: every timing field,
    the log, both generators, the obs registry and the event order."""

    @pytest.mark.parametrize("mechanism", list(MECHANISMS))
    @pytest.mark.parametrize("fault_rate", [0.0, 0.3])
    @pytest.mark.parametrize("time_scale", [1.0, 0.37])
    def test_equals_per_chunk_loop(self, mechanism, fault_rate, time_scale):
        runs = []
        for planner_cls in (MigrationPlanner, ReferencePlanner):
            planner, mmu, obs = _timing_env(planner_cls, mechanism, fault_rate, time_scale)
            timings = [_timing_fields(planner.execute(_timing_orders(i), mmu))
                       for i in range(3)]
            runs.append((planner, obs, timings))
        (new, new_obs, new_timings), (ref, ref_obs, ref_timings) = runs
        assert new_timings == ref_timings
        assert asdict(new.log) == asdict(ref.log)
        assert new.log.demoted_for_room_pages > 0
        for a, b in ((new.mechanism, ref.mechanism), (new.injector, ref.injector)):
            if hasattr(a, "rng"):
                assert a.rng.bit_generator.state == b.rng.bit_generator.state
        if fault_rate:
            assert asdict(new.injector.log) == asdict(ref.injector.log)
            assert new.injector.log.helper_stalls > 0
        assert new_obs.registry.data() == ref_obs.registry.data()
        assert _events(new_obs) == _events(ref_obs)
        assert new_obs.provenance.records == ref_obs.provenance.records
        np.testing.assert_array_equal(new.page_table.node, ref.page_table.node)
        np.testing.assert_array_equal(new.page_table.flags, ref.page_table.flags)
        if mechanism == "mtm-async":
            assert 0 < new.log.sync_switches < new.log.orders_executed
