"""Host memory held per simulated page and per cached batch entry.

Deterministic byte counts and object lifetimes, not RSS: a dense page
table's per-page arrays, the trace cache's narrow batch storage and what
``release`` frees, that no interval's batch outlives its step, and how
many forks a serial snapshot sweep keeps alive.  Every
saving here must leave simulated values untouched, so each test also
checks the values it stores or replays.
"""

import weakref

import numpy as np
import pytest

from repro.bench.runner import SweepVariant, run_sweep
from repro.bench.scaling import BenchProfile
from repro.core.baselines import make_engine
from repro.faults.injector import FaultConfig, FaultInjector
from repro.mm.pagetable import PageTable
from repro.sim.engine import SimulationEngine
from repro.sim.tracecache import TraceCache
from repro.units import PAGES_PER_HUGE_PAGE
from tests.support import assert_batches_equal, sweep_fingerprint
from tests.test_snapshot import TAU_VARIANTS, set_tau

SCALE = 1 / 512
SEED = 3
KEY = ("voltdb", SCALE, SEED)


def _fresh_batches(workload: str, n: int) -> list:
    """The first ``n`` batches of an uncached engine's own synthesis."""
    engine = make_engine("first-touch", workload, scale=SCALE, seed=SEED)
    return [engine.workload.next_batch(engine.rngs["workload"]) for _ in range(n)]


class TestDensePageTable:
    @pytest.mark.parametrize("n", [1, 4096, 3 * PAGES_PER_HUGE_PAGE + 7])
    def test_six_bytes_per_page(self, n):
        """uint16 flags, int16 node and the int16 entry delta."""
        assert PageTable(n, chunked=False).storage_nbytes() == 6 * n

    def test_huge_mappings_cost_no_extra_bytes(self):
        n = 8 * PAGES_PER_HUGE_PAGE
        pt = PageTable(n, chunked=False)
        pt.map_range(0, n, node=0, huge=True)
        pt.split_huge(2 * PAGES_PER_HUGE_PAGE)
        assert pt.storage_nbytes() == 6 * n
        pages = np.arange(n, dtype=np.int64)
        heads = pages - pages % PAGES_PER_HUGE_PAGE
        split = slice(2 * PAGES_PER_HUGE_PAGE, 3 * PAGES_PER_HUGE_PAGE)
        heads[split] = pages[split]
        np.testing.assert_array_equal(pt.entry_index(pages), heads)


class TestNarrowTraceCache:
    INTERVALS = 4

    def test_voltdb_stream_holds_at_most_8_bytes_per_entry(self):
        cache = TraceCache()
        entries = sum(cache.get_batch(*KEY, i).pages.size for i in range(self.INTERVALS))
        assert entries > 0
        assert cache.cached_bytes <= 8 * entries

    def test_reads_are_fresh_int64_arrays_equal_to_synthesis(self):
        cache = TraceCache()
        fresh = _fresh_batches("voltdb", self.INTERVALS)
        for i, want in enumerate(fresh):
            got = cache.get_batch(*KEY, i)
            again = cache.get_batch(*KEY, i)
            assert_batches_equal(got, want)
            assert got.pages.dtype == got.counts.dtype == got.writes.dtype == np.int64
            for name in ("pages", "counts", "writes", "sockets"):
                assert getattr(got, name).flags.owndata
                assert not np.shares_memory(getattr(got, name), getattr(again, name))

    def test_release_frees_bytes_and_a_request_below_it_rebuilds(self):
        cache = TraceCache()
        fresh = _fresh_batches("voltdb", self.INTERVALS)
        for i in range(self.INTERVALS):
            cache.get_batch(*KEY, i)
        held = cache.cached_bytes
        cache.release(KEY, 3)
        last = cache.get_batch(*KEY, 3)  # kept: a hit
        assert cache.cached_bytes < held / 2
        assert (cache.hits, cache.misses) == (1, self.INTERVALS)
        assert_batches_equal(last, fresh[3])
        rebuilt = cache.get_batch(*KEY, 1)  # released: one miss, from interval 0
        assert (cache.hits, cache.misses) == (1, self.INTERVALS + 1)
        assert_batches_equal(rebuilt, fresh[1])
        for i in (0, 1, 2, 3):
            assert_batches_equal(cache.get_batch(*KEY, i), fresh[i])
        assert cache.cached_bytes == held

    def test_released_cursor_continues_synthesis(self):
        cache = TraceCache()
        fresh = _fresh_batches("voltdb", self.INTERVALS)
        cache.get_batch(*KEY, 1)
        cache.release(KEY, 2)  # everything materialized
        assert cache.cached_bytes == 0
        for i in (2, 3):
            assert_batches_equal(cache.get_batch(*KEY, i), fresh[i])
        assert (cache.hits, cache.misses) == (0, 3)
        # Only intervals 2 and 3 were synthesized after the release.
        probe = TraceCache()
        probe.get_batch(*KEY, 3)
        probe.release(KEY, 2)
        assert cache.cached_bytes == probe.cached_bytes > 0


class TestBatchLifetime:
    """Once ``step`` returns, nothing holds that interval's batch: peak
    RSS stays one interval's touched pages whatever the run length, and
    a component that cached the batch would add a second one."""

    @pytest.mark.parametrize("solution, workload, fault_rate", [
        ("mtm", "gups", 0.0),
        ("hemem", "gups", 0.0),
        ("tiered-autonuma", "gups", 0.0),
        ("hmc", "gups", 0.0),
        ("mtm", "voltdb", 0.1),
    ])
    def test_step_drops_its_batch(self, solution, workload, fault_rate):
        injector = (FaultInjector(FaultConfig.uniform(fault_rate), seed=1)
                    if fault_rate else None)
        engine = make_engine(solution, workload, scale=SCALE, seed=SEED,
                             injector=injector)
        synthesize = engine.workload.next_batch
        batches: list[weakref.ref] = []

        def tracked(rng):
            batch = synthesize(rng)
            batches.append(weakref.ref(batch))
            return batch

        engine.workload.next_batch = tracked
        for _ in range(5):
            engine.step()
            assert batches[-1]() is None
        assert len(batches) == 5
        if fault_rate:
            assert engine.injector.log.total_events > 0


class TestSnapshotSweep:
    def test_serial_sweep_keeps_at_most_one_fork_alive(self, monkeypatch):
        profile = BenchProfile(name="t", scale=SCALE, seed=SEED, intervals={"gups": 6})
        variants = TAU_VARIANTS + [SweepVariant(label="tau_m=2", params={"tau_m": 2.0})]
        fork = SimulationEngine.fork
        forks: list[weakref.ref] = []
        alive_at_fork: list[int] = []

        def tracked_fork(cls, snapshot, **kwargs):
            alive_at_fork.append(sum(ref() is not None for ref in forks))
            engine = fork(snapshot, **kwargs)
            forks.append(weakref.ref(engine))
            return engine

        monkeypatch.setattr(SimulationEngine, "fork", classmethod(tracked_fork))
        sweep = run_sweep("mtm", "gups", profile, variants, set_tau,
                          warmup_intervals=4, use_snapshots=True, workers=1)
        monkeypatch.undo()
        assert alive_at_fork == [0] * len(variants)
        cold = run_sweep("mtm", "gups", profile, variants, set_tau,
                         warmup_intervals=4, use_snapshots=False, workers=1)
        assert sweep_fingerprint(sweep) == sweep_fingerprint(cold)

    def test_sweep_releases_the_warmup_prefix(self):
        profile = BenchProfile(name="t", scale=SCALE, seed=SEED, intervals={"gups": 6})
        cache = TraceCache()
        run_sweep("mtm", "gups", profile, TAU_VARIANTS, set_tau, warmup_intervals=4,
                  use_snapshots=True, workers=1, trace_cache=cache)
        probe = TraceCache()
        for i in range(6):
            probe.get_batch("gups", SCALE, SEED, i)
        probe.release(("gups", SCALE, SEED), 4)
        assert 0 < cache.cached_bytes == probe.cached_bytes
