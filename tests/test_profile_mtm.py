"""Unit tests for the MTM adaptive profiler."""

import copy

import numpy as np
import pytest

from repro import nputil
from repro.core.baselines import make_engine
from repro.errors import ConfigError
from repro.faults.injector import FaultConfig, FaultInjector
from repro.mm.hugepage import ThpManager
from repro.mm.mmu import Mmu
from repro.mm.vma import AddressSpace
from repro.perf.pebs import PebsSampler
from repro.profile.mtm import MtmProfiler, MtmProfilerConfig
from repro.profile.quality import evaluate_quality
from repro.sim.costmodel import CostModel, CostParams
from repro.sim.trace import AccessBatch
from repro.hw.topology import optane_4tier
from repro.units import PAGES_PER_HUGE_PAGE
from repro.workloads.registry import build_workload
from tests.test_property_regions import loop_record_interval

SCALE = 1.0 / 512.0


@pytest.fixture
def setup():
    """A small machine with a hot window living on the local PM node."""
    topo = optane_4tier(SCALE)
    cm = CostModel(topo, CostParams().with_scale(SCALE))
    space = AddressSpace(64 * PAGES_PER_HUGE_PAGE)
    vma = space.allocate_vma(32 * PAGES_PER_HUGE_PAGE, "data")
    ThpManager().populate(space.page_table, vma, node=2)
    mmu = Mmu(space.page_table, num_sockets=2)
    rng = np.random.default_rng(3)
    pebs = PebsSampler(topo, period=3, rng=rng)
    return topo, cm, space, vma, mmu, pebs, rng


def hot_cold_batch(vma, rng, hot_hugepages=8, hot_rate=0.2, cold_rate=0.015):
    """First ``hot_hugepages`` spans hot, the rest cold."""
    hot_pages = hot_hugepages * PAGES_PER_HUGE_PAGE
    counts_hot = rng.poisson(hot_rate, hot_pages)
    counts_cold = rng.poisson(cold_rate, vma.npages - hot_pages)
    counts = np.concatenate([counts_hot, counts_cold])
    touched = np.nonzero(counts)[0]
    return AccessBatch(
        pages=vma.start + touched.astype(np.int64),
        counts=counts[touched].astype(np.int64),
        writes=np.zeros(touched.size, dtype=np.int64),
    )


class TestConfig:
    def test_tau_defaults_follow_num_scans(self):
        cfg = MtmProfilerConfig(num_scans=3)
        assert cfg.tau_m == pytest.approx(1.0)
        assert cfg.tau_s == pytest.approx(2.0)
        cfg6 = MtmProfilerConfig(num_scans=6)
        assert cfg6.tau_m == pytest.approx(2.0)
        assert cfg6.tau_s == pytest.approx(4.0)

    def test_scan_exposure_default(self):
        cfg = MtmProfilerConfig(overhead_constraint=0.05, num_scans=3)
        assert cfg.scan_exposure == pytest.approx(0.05 / 3)

    def test_validation(self):
        with pytest.raises(ConfigError):
            MtmProfilerConfig(num_scans=0)
        with pytest.raises(ConfigError):
            MtmProfilerConfig(tau_m=99.0)
        with pytest.raises(ConfigError):
            MtmProfilerConfig(alpha=2.0)


class TestBudget:
    def test_budget_matches_eq1(self, setup):
        topo, cm, space, vma, mmu, pebs, rng = setup
        cfg = MtmProfilerConfig(interval=10.0 * SCALE, overhead_constraint=0.05)
        profiler = MtmProfiler(cm, cfg, rng=rng)
        assert profiler.budget == cm.profiling_budget_pages(
            10.0 * SCALE, 0.05, 3, with_hint_amortization=True
        )

    def test_profiling_time_respects_constraint(self, setup):
        topo, cm, space, vma, mmu, pebs, rng = setup
        interval = 10.0 * SCALE
        cfg = MtmProfilerConfig(interval=interval, overhead_constraint=0.05)
        profiler = MtmProfiler(cm, cfg, rng=rng)
        profiler.setup(space.page_table, [(vma.start, vma.npages)])
        for _ in range(5):
            mmu.begin_interval(hot_cold_batch(vma, rng))
            snap = profiler.profile(mmu, pebs=pebs)
            # PEBS processing rides on top; PTE scans must fit the budget.
            scan_time = cm.scan_time(snap.scans_performed, with_hint_amortization=True)
            assert scan_time <= 0.05 * interval * 1.01


class TestProfiling:
    def test_finds_hot_window(self, setup):
        topo, cm, space, vma, mmu, pebs, rng = setup
        profiler = MtmProfiler(cm, MtmProfilerConfig(interval=10 * SCALE), rng=rng)
        profiler.setup(space.page_table, [(vma.start, vma.npages)])
        truth = np.arange(vma.start, vma.start + 8 * PAGES_PER_HUGE_PAGE)
        quality = None
        for _ in range(10):
            mmu.begin_interval(hot_cold_batch(vma, rng))
            snap = profiler.profile(mmu, pebs=pebs)
            quality = evaluate_quality(snap, truth)
        assert quality.recall > 0.6
        assert quality.accuracy > 0.6

    def test_sample_conservation_when_within_budget(self, setup):
        topo, cm, space, vma, mmu, pebs, rng = setup
        profiler = MtmProfiler(cm, MtmProfilerConfig(interval=10 * SCALE), rng=rng)
        profiler.setup(space.page_table, [(vma.start, vma.npages)])
        for _ in range(4):
            mmu.begin_interval(hot_cold_batch(vma, rng))
            profiler.profile(mmu, pebs=pebs)
        if len(profiler.regions) <= profiler.budget:
            assert profiler.regions.total_samples() == profiler.budget

    def test_profile_before_setup_rejected(self, setup):
        topo, cm, space, vma, mmu, pebs, rng = setup
        profiler = MtmProfiler(cm, rng=rng)
        with pytest.raises(ConfigError):
            profiler.profile(mmu)

    def test_memory_overhead_scales_with_footprint(self, setup):
        topo, cm, space, vma, mmu, pebs, rng = setup
        profiler = MtmProfiler(cm, rng=rng)
        profiler.setup(space.page_table, [(vma.start, vma.npages)])
        overhead = profiler.memory_overhead_bytes()
        assert overhead == (vma.npages // PAGES_PER_HUGE_PAGE) * 960

    def test_without_pebs_still_profiles(self, setup):
        topo, cm, space, vma, mmu, pebs, rng = setup
        cfg = MtmProfilerConfig(interval=10 * SCALE, use_pebs=False)
        profiler = MtmProfiler(cm, cfg, rng=rng)
        profiler.setup(space.page_table, [(vma.start, vma.npages)])
        mmu.begin_interval(hot_cold_batch(vma, rng))
        snap = profiler.profile(mmu, pebs=pebs)
        assert snap.scans_performed > 0
        assert snap.pebs_samples == 0

    def test_region_size_cap_derived_from_topology(self, setup):
        topo, cm, space, vma, mmu, pebs, rng = setup
        profiler = MtmProfiler(cm, rng=rng)
        smallest = min(c.capacity_pages for c in topo.components)
        assert profiler.config.max_region_pages == max(
            PAGES_PER_HUGE_PAGE, smallest // 8
        )

    def test_slowest_nodes_default_is_pm(self, setup):
        topo, cm, space, vma, mmu, pebs, rng = setup
        profiler = MtmProfiler(cm, rng=rng)
        assert profiler.slowest_nodes == frozenset({2, 3})


class TestAblations:
    def _run(self, setup, cfg, intervals=6):
        topo, cm, space, vma, mmu, pebs, rng = setup
        profiler = MtmProfiler(cm, cfg, rng=rng)
        profiler.setup(space.page_table, [(vma.start, vma.npages)])
        snap = None
        for _ in range(intervals):
            mmu.begin_interval(hot_cold_batch(vma, rng))
            snap = profiler.profile(mmu, pebs=pebs)
        return profiler, snap

    def test_no_amr_keeps_region_count(self, setup):
        cfg = MtmProfilerConfig(interval=10 * SCALE, adaptive_regions=False)
        profiler, _ = self._run(setup, cfg)
        # Without merge/split the initial 2MB region count persists.
        assert len(profiler.regions) == 32

    def test_no_oc_scans_more_when_budget_binds(self, setup):
        # A tight budget (0.5%) truncates scanning; without overhead
        # control all 32 regions are scanned regardless.
        on = MtmProfilerConfig(interval=10 * SCALE, overhead_constraint=0.005,
                               overhead_control=True, use_pebs=False)
        off = MtmProfilerConfig(interval=10 * SCALE, overhead_constraint=0.005,
                                overhead_control=False, adaptive_regions=False,
                                use_pebs=False)
        _, snap_on = self._run(setup, on, intervals=1)
        _, snap_off = self._run(setup, off, intervals=1)
        assert snap_off.scans_performed > snap_on.scans_performed

    def test_no_aps_randomizes_quota(self, setup):
        cfg = MtmProfilerConfig(interval=10 * SCALE, adaptive_sampling=False)
        profiler, _ = self._run(setup, cfg)
        assert profiler.regions.total_samples() >= len(profiler.regions)


def loop_scan(profiler, mmu, rows, to_profile) -> int:
    """One ``scan_detect`` per region: the reference semantics of
    :meth:`MtmProfiler._scan_batched`.  ``to_profile`` pairs a region
    index with its chosen entries; ``rows`` holds one region object per
    region, updated in place.  Returns the hint-cadence crossings."""
    cfg = profiler.config
    crossings = 0
    for i, chosen in to_profile:
        region = rows[i]
        detected = mmu.scan_detect(chosen, cfg.num_scans, profiler.rng,
                                   exposure=cfg.scan_exposure)
        max_diff = float(detected.max() - detected.min()) if detected.size > 1 else 0.0
        loop_record_interval(region, float(detected.mean()), max_diff, cfg.alpha)
        if cfg.guided_splits and detected.max() > 0:
            region.hottest_entry = int(chosen[int(np.argmax(detected))])
        else:
            region.hottest_entry = -1
        profiler._scan_counter += int(chosen.size) * cfg.num_scans
        if profiler._scan_counter >= cfg.hint_every_scans:
            profiler._scan_counter %= cfg.hint_every_scans
            crossings += 1
            accessor = int(mmu.accessor_socket(chosen[:1])[0])
            if accessor >= 0:
                region.dominant_socket = accessor
    return crossings


def loop_select(profiler, entries, offsets, pebs_active, pebs_hot_entries):
    """The per-region selection loop: the reference semantics of
    :meth:`MtmProfiler._select`.  Returns ``(to_profile, idle)``: region
    index and chosen entries per scanned region, and the idle indices."""
    to_profile, idle = [], []
    if pebs_active:
        nodes = profiler._page_table.span_majority_nodes(profiler.regions.start,
                                                         profiler.regions.npages)
    for idx, region in enumerate(profiler.regions):
        region_entries = entries[offsets[idx]:offsets[idx + 1]]
        if region_entries.size == 0:
            continue
        if pebs_active and int(nodes[idx]) in profiler.slowest_nodes:
            if pebs_hot_entries is None:
                idle.append(idx)
                continue
            lo = np.searchsorted(pebs_hot_entries, region.start)
            hi = np.searchsorted(pebs_hot_entries, region.end)
            if hi <= lo:
                idle.append(idx)
                continue
            captured = pebs_hot_entries[lo:hi]
            k = min(region.n_samples, int(region_entries.size))
            take = min(k, int(captured.size))
            if take >= captured.size:
                chosen = captured
            else:
                chosen = captured[profiler.rng.choice(captured.size, size=take, replace=False)]
            if k > chosen.size:
                pad = region_entries[profiler.rng.choice(
                    region_entries.size, size=k - int(chosen.size), replace=False)]
                chosen = nputil.unique(np.concatenate([chosen, pad]))
        else:
            k = min(region.n_samples, int(region_entries.size))
            if k >= region_entries.size:
                chosen = region_entries
            else:
                chosen = region_entries[profiler.rng.choice(
                    region_entries.size, size=k, replace=False)]
        to_profile.append((idx, chosen))
    return to_profile, idle


FIELDS = ("hi", "whi", "prev_hi", "last_max_diff", "hottest_entry", "dominant_socket")


class TestBatchedScan:
    """``_scan_batched`` against :func:`loop_scan` on a warmed engine's
    real regions and MMU histogram, each side on a clone of the
    profiler (and so of its generator)."""

    @pytest.fixture(scope="class")
    def warmed(self):
        # Half the accesses come from socket 1, so hint faults move
        # regions' dominant sockets.
        workload = build_workload("gups", SCALE, seed=3, remote_thread_fraction=0.5)
        engine = make_engine("mtm", workload, scale=SCALE, seed=3)
        for _ in range(4):
            engine.step()
        return engine

    @staticmethod
    def _sampled(profiler) -> list[np.ndarray]:
        """Each region's sampled entries, drawn as the profiler would."""
        starts, npages, _ = profiler.regions.as_arrays()
        entries, offsets = profiler._page_table.span_entries(starts, npages)
        pick = np.random.default_rng(9)
        chosen = []
        for i, region in enumerate(profiler.regions):
            span = entries[offsets[i]:offsets[i + 1]]
            k = min(region.n_samples, span.size)
            chosen.append(span[pick.choice(span.size, size=k, replace=False)])
        return chosen

    @pytest.mark.parametrize("guided_splits", [True, False], ids=["guided", "midpoint"])
    def test_batched_scan_equals_per_region_loop(self, warmed, guided_splits):
        mmu = warmed.mmu
        chosen = self._sampled(warmed.profiler)
        # Scan in a rotated order, as the overhead controller does.
        order = np.roll(np.arange(len(chosen)), -3)
        sides = []
        for scan in ("batched", "loop"):
            clone = copy.deepcopy(warmed.profiler)
            clone.config.guided_splits = guided_splits
            # Start one scan short of a hint fault: the first region crosses.
            clone._scan_counter = clone.config.hint_every_scans - 1
            if scan == "batched":
                runs = [chosen[i] for i in order]
                offsets = np.cumsum([0] + [c.size for c in runs])
                clone._scan_batched(mmu, order, np.concatenate(runs), offsets)
                sides.append((clone, list(clone.regions)))
            else:
                rows = list(clone.regions)
                crossings = loop_scan(clone, mmu, rows, [(i, chosen[i]) for i in order])
                sides.append((clone, rows))
        (batched, got), (loop, want) = sides
        assert ([tuple(getattr(r, f) for f in FIELDS) for r in got]
                == [tuple(getattr(r, f) for f in FIELDS) for r in want])
        assert batched._scan_counter == loop._scan_counter
        assert batched.rng.bit_generator.state == loop.rng.bit_generator.state
        assert crossings > 1
        assert len({r.dominant_socket for r in want}) > 1
        assert any(r.hottest_entry >= 0 for r in want) is guided_splits


class TestSelection:
    """``_select`` against :func:`loop_select` on warmed engines, each side
    on a clone of the profiler: the same entries per region, the same
    idle regions and the same generator state after."""

    @pytest.fixture(scope="class", params=["pebs", "pebs-lost", "pebs-faults", "no-pebs"])
    def warmed(self, request):
        """``(case, engine)``; ``pebs-lost`` has its PEBS window lost."""
        solution = "mtm-no-pebs" if request.param == "no-pebs" else "mtm"
        injector = None
        if request.param == "pebs-faults":
            injector = FaultInjector(FaultConfig.uniform(0.05), seed=123)
        engine = make_engine(solution, "gups", scale=SCALE, seed=3, injector=injector)
        for _ in range(5):
            engine.step()
        # Open the next interval as the engine would, so the MMU holds a
        # batch for PEBS to sample.
        engine.mmu.begin_interval(engine._next_batch())
        return request.param, engine

    def test_select_equals_per_region_loop(self, warmed):
        case, engine = warmed
        profiler = engine.profiler
        page_table = profiler._page_table
        pebs_hot = None
        if case in ("pebs", "pebs-faults"):
            sample = copy.deepcopy(engine.pebs).sample(
                engine.mmu.current_batch, page_table,
                duty_cycle=profiler.config.pebs_duty_cycle)
            pebs_hot = nputil.unique(page_table.entry_index(sample.pages))
        entries, offsets = page_table.span_entries(profiler.regions.start,
                                                   profiler.regions.npages)
        batched, loop = copy.deepcopy(profiler), copy.deepcopy(profiler)
        use_pebs = profiler.config.use_pebs
        scan_idx, chosen, chosen_offsets, idle = batched._select(
            entries, offsets, use_pebs, pebs_hot)
        want, want_idle = loop_select(loop, entries, offsets, use_pebs, pebs_hot)
        assert scan_idx.tolist() == [i for i, _ in want]
        got = np.split(chosen, chosen_offsets[1:-1])
        assert all(np.array_equal(g, w) for g, (_, w) in zip(got, want))
        assert np.flatnonzero(idle).tolist() == want_idle
        assert batched.rng.bit_generator.state == loop.rng.bit_generator.state
        # Some region drew from the generator, some took every entry it
        # had, and with PEBS some slow-tier region was idle.
        runs = np.split(entries, offsets[1:-1])
        assert loop.rng.bit_generator.state != profiler.rng.bit_generator.state
        assert any(np.array_equal(w, runs[i]) for i, w in want)
        assert bool(want_idle) is profiler.config.use_pebs
