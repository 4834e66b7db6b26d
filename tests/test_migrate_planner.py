"""Unit tests for the migration planner."""

import numpy as np
import pytest

from repro.errors import MigrationError
from repro.hw.frames import FrameAccountant
from repro.hw.topology import optane_4tier
from repro.migrate.move_pages import MovePagesMechanism
from repro.migrate.planner import MigrationPlanner
from repro.mm.mmu import Mmu
from repro.mm.pagetable import PageTable
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
            rates.append(write_rate)
            return timing(npages, src, dst, write_rate=write_rate)

        mechanism.timing = spy
        return pt, mmu, MigrationPlanner(pt, frames, mechanism), rates

    def test_tearing_equals_set_loop(self):
        pt, _, planner, _ = self._env()
        ref, _, _, _ = self._env()
        assert planner._tear_partial_huge_pages(self.PAGES) == \
            loop_tear_partial_huge_pages(ref, self.PAGES) == 1
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
