"""Tests for the snapshot/fork engine and the shared-warmup sweep runner.

The invariant throughout mirrors ``tests/test_perf_opt.py``: snapshots,
forks, the :class:`~repro.sim.snapshot.SnapshotCache`, and the
``workers=K`` sweep fan-out may change wall-clock time only — never a
simulated number.  ``fork(snapshot(k)).run(n - k)`` must be bit-identical
to ``run(n)``, and a snapshot-forked sweep must be bit-identical to the
same sweep run cold.
"""

import pickle

import numpy as np
import pytest

from repro.bench.runner import SweepVariant, run_matrix, run_sweep
from repro.bench.scaling import BenchProfile
from repro.core.baselines import make_engine
from repro.errors import ConfigError
from repro.metrics.perfstats import CacheStats
from repro.obs.context import ObsContext
from repro.sim.engine import SimulationEngine
from repro.sim.snapshot import SnapshotCache, capture_engine, fork_engine
from repro.sim.tracecache import TraceCache
from tests.support import fingerprint, matrix_fingerprint, sweep_fingerprint

SCALE = 1 / 512
SEED = 3
INTERVALS = 6
WARMUP = 4


@pytest.fixture(scope="module")
def tiny_profile():
    return BenchProfile(
        name="tiny",
        scale=SCALE,
        intervals={name: INTERVALS for name in
                   ("gups", "voltdb", "cassandra", "bfs", "sssp", "spark")},
        seed=SEED,
    )


def set_tau(engine, params: dict) -> None:
    """Sweep apply function (module-level: workers pickle it)."""
    cfg = engine.profiler.config
    cfg.tau_m = params["tau_m"]
    cfg.tau_s = 2.0 * params["tau_m"]
    engine.profiler._tau_m_current = params["tau_m"]


TAU_VARIANTS = [
    SweepVariant(label=f"tau_m={t:g}", params={"tau_m": t})
    for t in (0.5, 1.0, 1.5)
]


class TestSnapshotFork:
    def test_fork_resume_bit_identical_to_straight_run(self):
        straight = make_engine("mtm", "gups", scale=SCALE, seed=SEED)
        reference = fingerprint(straight.run(INTERVALS))

        engine = make_engine("mtm", "gups", scale=SCALE, seed=SEED)
        for _ in range(WARMUP):
            engine.step()
        snap = engine.snapshot()
        assert snap.interval == WARMUP
        forked = SimulationEngine.fork(snap)
        assert fingerprint(forked.run(INTERVALS - WARMUP)) == reference

    def test_original_continues_unperturbed_after_capture(self):
        reference = fingerprint(
            make_engine("mtm", "gups", scale=SCALE, seed=SEED).run(INTERVALS)
        )
        engine = make_engine("mtm", "gups", scale=SCALE, seed=SEED)
        for _ in range(WARMUP):
            engine.step()
        engine.snapshot()
        assert fingerprint(engine.run(INTERVALS - WARMUP)) == reference

    def test_sibling_forks_are_independent(self):
        engine = make_engine("mtm", "gups", scale=SCALE, seed=SEED)
        for _ in range(WARMUP):
            engine.step()
        snap = engine.snapshot()
        first = SimulationEngine.fork(snap)
        second = SimulationEngine.fork(snap)
        # Run the first fork to completion *before* starting the second;
        # any shared mutable state would skew the second's results.
        a = fingerprint(first.run(INTERVALS - WARMUP))
        b = fingerprint(second.run(INTERVALS - WARMUP))
        assert a == b

    def test_fork_under_fault_injection(self):
        from repro.faults.injector import FaultConfig, FaultInjector

        def engine_with_faults():
            return make_engine(
                "mtm", "gups", scale=SCALE, seed=SEED,
                injector=FaultInjector(FaultConfig.uniform(0.05), seed=123),
            )

        reference = fingerprint(engine_with_faults().run(INTERVALS))
        engine = engine_with_faults()
        for _ in range(WARMUP):
            engine.step()
        forked = SimulationEngine.fork(engine.snapshot())
        resumed = forked.run(INTERVALS - WARMUP)
        assert fingerprint(resumed) == reference
        assert resumed.fault_log is not None  # equality is not vacuous

    def test_cache_fed_fork_reattaches_or_builds_cache(self):
        cache = TraceCache()
        reference = fingerprint(
            make_engine(
                "mtm", "gups", scale=SCALE, seed=SEED, trace_cache=TraceCache()
            ).run(INTERVALS)
        )
        engine = make_engine(
            "mtm", "gups", scale=SCALE, seed=SEED, trace_cache=cache
        )
        for _ in range(WARMUP):
            engine.step()
        snap = engine.snapshot()
        assert snap.trace_key is not None
        # The payload must not embed the shared cache.
        assert pickle.loads(snap.payload).trace_cache is None
        shared = fork_engine(snap, trace_cache=cache)
        assert fingerprint(shared.run(INTERVALS - WARMUP)) == reference
        private = fork_engine(snap)  # builds its own regenerating cache
        assert private.trace_cache is not cache
        assert fingerprint(private.run(INTERVALS - WARMUP)) == reference


class TestSnapshotCache:
    @staticmethod
    def _snap(tag: str):
        engine = make_engine("mtm", "gups", scale=SCALE, seed=SEED)
        engine.step()
        return capture_engine(engine, key=(tag,))

    def test_hit_and_miss_accounting(self):
        cache = SnapshotCache()
        assert cache.get(("a",)) is None
        snap = cache.get_or_create(("a",), lambda: self._snap("a"))
        assert cache.get_or_create(("a",), lambda: self._snap("a")) is snap
        assert (cache.hits, cache.misses) == (1, 2)
        stats = cache.stats()
        assert stats.requests == 3
        assert stats.cached_bytes == cache.cached_bytes == snap.nbytes > 0

    def test_lru_eviction_at_byte_budget(self):
        first = self._snap("a")
        cache = SnapshotCache(max_bytes=first.nbytes)
        cache.put(("a",), first)
        cache.put(("b",), self._snap("b"))
        assert cache.evictions == 1
        assert cache.get(("a",)) is None  # the LRU entry went
        assert cache.get(("b",)) is not None  # the insert never self-evicts

    def test_spill_round_trip_across_cache_instances(self, tmp_path):
        writer = SnapshotCache(spill_dir=str(tmp_path))
        snap = self._snap("a")
        writer.put(("a",), snap)
        reader = SnapshotCache(spill_dir=str(tmp_path))
        loaded = reader.get(("a",))
        assert (reader.hits, reader.misses) == (1, 0)
        assert loaded.payload == snap.payload
        assert fingerprint(fork_engine(loaded).run(2)) == fingerprint(
            fork_engine(snap).run(2)
        )

    def test_rejects_bad_arguments(self):
        with pytest.raises(ConfigError):
            SnapshotCache(max_bytes=0)
        with pytest.raises(ConfigError):
            SnapshotCache().spill_path(("a",))


class TestRunSweep:
    def test_fork_sweep_bit_identical_to_cold(self, tiny_profile):
        cold = run_sweep(
            "mtm", "gups", tiny_profile, TAU_VARIANTS, set_tau,
            warmup_intervals=WARMUP, use_snapshots=False,
        )
        fork = run_sweep(
            "mtm", "gups", tiny_profile, TAU_VARIANTS, set_tau,
            warmup_intervals=WARMUP, use_snapshots=True,
        )
        assert sweep_fingerprint(cold) == sweep_fingerprint(fork)
        # The variants genuinely diverge after the branch point, so the
        # equality above compares three distinct trajectories.
        prints = list(sweep_fingerprint(fork).values())
        assert any(p != prints[0] for p in prints[1:])

    def test_workers_bit_identical_to_serial_both_modes(self, tiny_profile):
        serial = {}
        for use_snapshots in (False, True):
            serial[use_snapshots] = run_sweep(
                "mtm", "gups", tiny_profile, TAU_VARIANTS, set_tau,
                warmup_intervals=WARMUP, use_snapshots=use_snapshots,
            )
            pooled = run_sweep(
                "mtm", "gups", tiny_profile, TAU_VARIANTS, set_tau,
                warmup_intervals=WARMUP, use_snapshots=use_snapshots,
                workers=2,
            )
            assert sweep_fingerprint(serial[use_snapshots]) == sweep_fingerprint(pooled)
        assert sweep_fingerprint(serial[False]) == sweep_fingerprint(serial[True])

    def test_fork_sweep_under_fault_injection(self, tiny_profile):
        kwargs = dict(fault_rate=0.05, fault_seed=123)
        cold = run_sweep(
            "mtm", "gups", tiny_profile, TAU_VARIANTS, set_tau,
            warmup_intervals=WARMUP, use_snapshots=False, **kwargs,
        )
        fork = run_sweep(
            "mtm", "gups", tiny_profile, TAU_VARIANTS, set_tau,
            warmup_intervals=WARMUP, use_snapshots=True, **kwargs,
        )
        assert sweep_fingerprint(cold) == sweep_fingerprint(fork)
        assert cold.results[TAU_VARIANTS[0].label].fault_log is not None

    def test_snapshot_stats_and_cross_sweep_reuse(self, tiny_profile):
        cache = SnapshotCache()
        first = run_sweep(
            "mtm", "gups", tiny_profile, TAU_VARIANTS, set_tau,
            warmup_intervals=WARMUP, use_snapshots=True, snapshot_cache=cache,
        )
        # One warmup computed, then reused by every later lookup.
        assert first.perf.snapshots.misses == 1
        again = run_sweep(
            "mtm", "gups", tiny_profile, TAU_VARIANTS, set_tau,
            warmup_intervals=WARMUP, use_snapshots=True, snapshot_cache=cache,
        )
        assert again.perf.snapshots.misses == 0
        assert again.perf.snapshots.hits >= 1
        assert sweep_fingerprint(first) == sweep_fingerprint(again)

    def test_validation(self, tiny_profile):
        with pytest.raises(ConfigError):
            run_sweep("mtm", "gups", tiny_profile, TAU_VARIANTS, set_tau,
                      warmup_intervals=0)
        with pytest.raises(ConfigError):
            run_sweep("mtm", "gups", tiny_profile, TAU_VARIANTS, set_tau,
                      warmup_intervals=INTERVALS)
        with pytest.raises(ConfigError):
            run_sweep("mtm", "gups", tiny_profile,
                      [TAU_VARIANTS[0], TAU_VARIANTS[0]], set_tau,
                      warmup_intervals=WARMUP)
        with pytest.raises(ConfigError):
            run_sweep("mtm", "gups", tiny_profile, TAU_VARIANTS, set_tau,
                      warmup_intervals=WARMUP, workers=0)


class TestPerfAggregation:
    def test_matrix_aggregates_worker_cache_stats(self, tiny_profile):
        matrix = run_matrix(["gups", "voltdb"], ["first-touch", "mtm"],
                            tiny_profile, workers=2)
        perf = matrix.perf
        assert perf is not None
        assert perf.intervals == 4 * INTERVALS
        # Per-cell deltas sum to the total request volume: one batch per
        # interval per cell, regardless of which worker ran the cell.
        assert perf.cache is not None
        assert perf.cache.requests == 4 * INTERVALS
        assert perf.cache.hits + perf.cache.misses == perf.cache.requests

    def test_matrix_serial_matches_worker_aggregation(self, tiny_profile):
        serial = run_matrix(["gups"], ["first-touch", "mtm"], tiny_profile)
        assert serial.perf is not None
        assert serial.perf.cache.requests == 2 * INTERVALS
        pooled = run_matrix(["gups"], ["first-touch", "mtm"], tiny_profile,
                            workers=2)
        assert pooled.perf.cache.requests == serial.perf.cache.requests
        assert matrix_fingerprint(serial) == matrix_fingerprint(pooled)

    def test_engine_records_phase_samples(self):
        """Per-phase host timing is the obs spans: one sample per phase
        per interval, next to the run-level interval count."""
        obs = ObsContext(label="phases")
        engine = make_engine("mtm", "gups", scale=SCALE, seed=SEED, obs=obs)
        result = engine.run(INTERVALS)
        assert result.perf.intervals == INTERVALS
        samples: dict[str, list[float]] = {}
        for span in obs.tracer.spans:
            samples.setdefault(span.name, []).append(span.dur)
        assert set(samples) >= {"workload", "profile", "migrate", "interval"}
        assert all(len(v) == INTERVALS for v in samples.values())
        p50, p95 = np.quantile(samples["interval"], [0.5, 0.95])
        assert p50 <= p95
        assert "intervals" in result.perf.as_dict()

    def test_cache_stats_delta(self):
        before = CacheStats(hits=2, misses=3, evictions=1, cached_bytes=100)
        after = CacheStats(hits=5, misses=4, evictions=1, cached_bytes=80)
        d = after.delta(before)
        assert (d.hits, d.misses, d.evictions) == (3, 1, 0)
        assert d.cached_bytes == 80  # gauge: current value, not a diff
        assert after.delta(None) == after


class TestBatchRelease:
    def test_engine_releases_interval_batch(self):
        engine = make_engine("mtm", "gups", scale=SCALE, seed=SEED)
        engine.run(4)
        assert engine.mmu._current_batch is None

    def test_payload_is_page_table_plus_interval_state(self):
        # The MMU keeps one compact histogram of the last interval, so a
        # captured engine is its page table plus well under a megabyte
        # (per-page MMU arrays made this payload 39.4 MB against a
        # 10.5 MB table).
        engine = make_engine("mtm", "gups", scale=SCALE, seed=SEED)
        engine.run(4)
        snap = capture_engine(engine)
        assert snap.nbytes <= engine.space.page_table.storage_nbytes() + (1 << 20)
