"""Unit tests for the baseline profilers: DAMON, Thermostat, random-window,
PEBS-only (HeMem)."""

import numpy as np
import pytest

from repro.core.baselines import make_engine
from repro.errors import ConfigError
from repro.mm.hugepage import ThpManager
from repro.mm.mmu import Mmu
from repro.mm.vma import AddressSpace
from repro.obs.context import ObsContext
from repro.perf.pebs import PebsSampler
from repro.profile.autonuma import RandomWindowConfig, RandomWindowProfiler
from repro.profile.damon import DamonConfig, DamonProfiler
from repro.profile.hemem import PebsOnlyConfig, PebsOnlyProfiler
from repro.profile.quality import evaluate_quality
from repro.profile.thermostat import ThermostatConfig, ThermostatProfiler
from repro.hw.topology import optane_4tier
from repro.sim.costmodel import CostModel, CostParams
from repro.sim.trace import AccessBatch
from repro.units import PAGES_PER_HUGE_PAGE

SCALE = 1.0 / 512.0
INTERVAL = 10.0 * SCALE


@pytest.fixture
def env():
    topo = optane_4tier(SCALE)
    cm = CostModel(topo, CostParams().with_scale(SCALE))
    space = AddressSpace(64 * PAGES_PER_HUGE_PAGE)
    vma = space.allocate_vma(32 * PAGES_PER_HUGE_PAGE, "data")
    ThpManager().populate(space.page_table, vma, node=2)
    mmu = Mmu(space.page_table, num_sockets=2)
    rng = np.random.default_rng(11)
    pebs = PebsSampler(topo, period=3, rng=rng)
    return cm, space, vma, mmu, pebs, rng


def hot_cold_batch(vma, rng, hot_hugepages=8, hot_rate=0.2, cold_rate=0.015,
                   hot_offset_hugepages=0):
    hot_lo = hot_offset_hugepages * PAGES_PER_HUGE_PAGE
    hot_hi = hot_lo + hot_hugepages * PAGES_PER_HUGE_PAGE
    counts = rng.poisson(cold_rate, vma.npages)
    counts[hot_lo:hot_hi] = rng.poisson(hot_rate, hot_hi - hot_lo)
    touched = np.nonzero(counts)[0]
    return AccessBatch(
        pages=vma.start + touched.astype(np.int64),
        counts=counts[touched].astype(np.int64),
        writes=np.zeros(touched.size, dtype=np.int64),
    )


def truth(vma, hot_hugepages=8, hot_offset_hugepages=0):
    lo = vma.start + hot_offset_hugepages * PAGES_PER_HUGE_PAGE
    return np.arange(lo, lo + hot_hugepages * PAGES_PER_HUGE_PAGE)


class TestDamon:
    def test_starts_from_vma_regions(self, env):
        cm, space, vma, mmu, pebs, rng = env
        damon = DamonProfiler(cm, DamonConfig(interval=INTERVAL), rng=rng)
        damon.setup(space.page_table, [(vma.start, vma.npages)])
        assert len(damon.regions) == 1

    def test_splits_toward_max_regions(self, env):
        cm, space, vma, mmu, pebs, rng = env
        damon = DamonProfiler(cm, DamonConfig(interval=INTERVAL, max_regions=16), rng=rng)
        damon.setup(space.page_table, [(vma.start, vma.npages)])
        for _ in range(6):
            mmu.begin_interval(hot_cold_batch(vma, rng))
            damon.profile(mmu)
        assert 1 < len(damon.regions) <= 16

    def test_accuracy_suffers_from_saturation(self, env):
        """DAMON's evenly-spread checks saturate on 2 MB entries: with the
        hot window away from the address-order tie-break, its hot-page
        precision stays well below MTM-style burst scanning."""
        cm, space, vma, mmu, pebs, rng = env
        damon = DamonProfiler(cm, DamonConfig(interval=INTERVAL, max_regions=32), rng=rng)
        damon.setup(space.page_table, [(vma.start, vma.npages)])
        accuracies = []
        for _ in range(12):
            mmu.begin_interval(hot_cold_batch(vma, rng, hot_offset_hugepages=20))
            snap = damon.profile(mmu)
            accuracies.append(
                evaluate_quality(snap, truth(vma, hot_offset_hugepages=20)).accuracy
            )
        assert np.mean(accuracies[-6:]) < 0.9

    def test_profiling_time_is_interval_fraction(self, env):
        cm, space, vma, mmu, pebs, rng = env
        damon = DamonProfiler(cm, DamonConfig(interval=INTERVAL), rng=rng)
        damon.setup(space.page_table, [(vma.start, vma.npages)])
        mmu.begin_interval(hot_cold_batch(vma, rng))
        snap = damon.profile(mmu)
        # DAMON's wall-clock cadence represents the paper's 10 s interval;
        # the charge is the same fraction of the simulated interval.
        from repro.sim.costmodel import PAPER_INTERVAL

        expected = cm.scan_time(snap.scans_performed) * (INTERVAL / PAPER_INTERVAL)
        assert snap.profiling_time == pytest.approx(expected)
        assert snap.profiling_time <= 0.08 * INTERVAL

    def test_formation_stats_survive_splits(self):
        """A splitting interval rebuilds DAMON's region set; its merge,
        split and interval stats carry over and equal the run's obs
        counters."""
        obs = ObsContext()
        engine = make_engine("damon", "gups", scale=SCALE, seed=3, obs=obs)
        engine.run(20)
        stats = engine.profiler.regions.stats
        counters = [obs.registry.counter_value(f"profile.{name}", profiler="damon")
                    for name in ("merges", "splits", "intervals")]
        assert [stats.merges, stats.splits, stats.intervals] == counters
        assert stats.intervals == 20 and stats.merges > 0

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            DamonConfig(min_regions=0)
        with pytest.raises(ConfigError):
            DamonConfig(min_regions=10, max_regions=5)


class TestThermostat:
    def test_fixed_regions_never_merge(self, env):
        cm, space, vma, mmu, pebs, rng = env
        thermo = ThermostatProfiler(cm, ThermostatConfig(interval=INTERVAL), rng=rng)
        thermo.setup(space.page_table, [(vma.start, vma.npages)])
        n0 = len(thermo.regions)
        for _ in range(4):
            mmu.begin_interval(hot_cold_batch(vma, rng))
            thermo.profile(mmu)
        assert len(thermo.regions) == n0

    def test_budget_limits_sampled_regions(self, env):
        cm, space, vma, mmu, pebs, rng = env
        cfg = ThermostatConfig(interval=INTERVAL, overhead_constraint=0.05)
        thermo = ThermostatProfiler(cm, cfg, rng=rng)
        assert thermo.budget_regions > 0
        fault_cost = thermo.fault_cost
        assert fault_cost == pytest.approx(2.5 * cm.params.scan_overhead)

    def test_profiles_subset_under_budget(self, env):
        cm, space, vma, mmu, pebs, rng = env
        cfg = ThermostatConfig(interval=INTERVAL, overhead_constraint=0.001)
        thermo = ThermostatProfiler(cm, cfg, rng=rng)
        thermo.setup(space.page_table, [(vma.start, vma.npages)])
        mmu.begin_interval(hot_cold_batch(vma, rng))
        snap = thermo.profile(mmu)
        assert snap.scans_performed <= thermo.budget_regions * cfg.polls_per_interval

    def test_validation(self):
        with pytest.raises(ConfigError):
            ThermostatConfig(polls_per_interval=0)
        with pytest.raises(ConfigError):
            ThermostatConfig(poison_exposure=0.0)


class TestRandomWindow:
    def test_window_scales_with_machine(self, env):
        cm, space, vma, mmu, pebs, rng = env
        profiler = RandomWindowProfiler(cm, RandomWindowConfig(interval=INTERVAL), rng=rng)
        from repro.units import MiB, PAGE_SIZE

        assert profiler.window_pages == max(1, int(256 * MiB * SCALE) // PAGE_SIZE)

    def test_mfu_accumulates_vanilla_does_not(self, env):
        cm, space, vma, mmu, pebs, rng = env
        mfu = RandomWindowProfiler(
            cm, RandomWindowConfig(interval=INTERVAL, mfu=True), rng=np.random.default_rng(1)
        )
        vanilla = RandomWindowProfiler(
            cm, RandomWindowConfig(interval=INTERVAL, mfu=False), rng=np.random.default_rng(1)
        )
        for profiler in (mfu, vanilla):
            profiler.setup(space.page_table, [(vma.start, vma.npages)])
        for _ in range(8):
            batch = hot_cold_batch(vma, rng)
            mmu.begin_interval(batch)
            snap_m = mfu.profile(mmu)
            snap_v = vanilla.profile(mmu)
        hot_m = sum(1 for r in snap_m.reports if r.score > 0)
        hot_v = sum(1 for r in snap_v.reports if r.score > 0)
        assert hot_m >= hot_v  # MFU remembers previous windows

    def test_charges_scan_plus_hint_fault_time(self, env):
        cm, space, vma, mmu, pebs, rng = env
        profiler = RandomWindowProfiler(
            cm, RandomWindowConfig(interval=INTERVAL, mfu=False), rng=rng
        )
        profiler.setup(space.page_table, [(vma.start, vma.npages)])
        mmu.begin_interval(hot_cold_batch(vma, rng, hot_rate=30.0))
        snap = profiler.profile(mmu)
        assert snap.profiling_time >= cm.scan_time(snap.scans_performed)

    def test_validation(self):
        with pytest.raises(ConfigError):
            RandomWindowConfig(window_bytes=100)
        with pytest.raises(ConfigError):
            RandomWindowConfig(decay=1.0)


class TestPebsOnly:
    def test_requires_pebs(self, env):
        cm, space, vma, mmu, pebs, rng = env
        profiler = PebsOnlyProfiler(cm, rng=rng)
        profiler.setup(space.page_table, [(vma.start, vma.npages)])
        mmu.begin_interval(hot_cold_batch(vma, rng))
        with pytest.raises(ConfigError):
            profiler.profile(mmu, pebs=None)

    def test_scores_track_hot_chunks(self, env):
        cm, space, vma, mmu, pebs, rng = env
        profiler = PebsOnlyProfiler(cm, rng=rng)
        profiler.setup(space.page_table, [(vma.start, vma.npages)])
        snap = None
        for _ in range(6):
            mmu.begin_interval(hot_cold_batch(vma, rng, hot_rate=0.4))
            snap = profiler.profile(mmu, pebs=pebs)
        quality = evaluate_quality(snap, truth(vma))
        assert quality.recall > 0.5

    def test_cooling_halves_scores(self, env):
        cm, space, vma, mmu, pebs, rng = env
        cfg = PebsOnlyConfig(cooling_interval=2)
        profiler = PebsOnlyProfiler(cm, cfg, rng=rng)
        profiler.setup(space.page_table, [(vma.start, vma.npages)])
        mmu.begin_interval(hot_cold_batch(vma, rng, hot_rate=0.4))
        profiler.profile(mmu, pebs=pebs)
        peak = profiler._scores.max()
        # Quiet intervals: cooling halves accumulated scores.
        quiet = AccessBatch.from_accesses(np.array([vma.start]))
        mmu.begin_interval(quiet)
        profiler.profile(mmu, pebs=pebs)
        mmu.begin_interval(quiet)
        profiler.profile(mmu, pebs=pebs)
        assert profiler._scores.max() <= peak

    def test_misses_write_only_pages(self, env):
        """PEBS samples loads; pure writers are invisible (Sec. 5.5)."""
        cm, space, vma, mmu, pebs, rng = env
        profiler = PebsOnlyProfiler(cm, rng=rng)
        profiler.setup(space.page_table, [(vma.start, vma.npages)])
        counts = np.full(512, 4, dtype=np.int64)
        batch = AccessBatch(
            pages=np.arange(vma.start, vma.start + 512),
            counts=counts,
            writes=counts.copy(),  # 100% writes
        )
        mmu.begin_interval(batch)
        snap = profiler.profile(mmu, pebs=pebs)
        assert snap.pebs_samples == 0
