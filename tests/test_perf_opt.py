"""Tests for the performance work: vectorized hot paths, the trace
cache, the parallel matrix runner, and the geomean fix.

The load-bearing property throughout is *bit-identity*: every
acceleration switch (``repro.perfflags``, ``TraceCache``, ``workers=K``)
must change wall-clock time only, never a single simulated number.
"""

import numpy as np
import pytest

from repro import perfflags
from repro.bench.runner import (
    MatrixResult,
    SweepVariant,
    _row_tasks,
    run_matrix,
    run_solution,
    run_sweep,
)
from repro.bench.scaling import BenchProfile
from repro.core.baselines import make_engine
from repro.errors import ConfigError
from repro.faults.injector import FaultConfig, FaultInjector
from repro.metrics.perfstats import CacheStats, PerfStats
from repro.sim.tracecache import TraceCache
from repro.workloads.registry import build_workload
from tests.support import fingerprint, matrix_fingerprint, sweep_fingerprint
from tests.test_snapshot import TAU_VARIANTS, set_tau

SCALE = 1 / 512


@pytest.fixture(scope="module")
def tiny_profile():
    return BenchProfile(
        name="tiny",
        scale=SCALE,
        intervals={name: 4 for name in
                   ("gups", "voltdb", "cassandra", "bfs", "sssp", "spark")},
        seed=3,
    )


class TestVectorizedBitIdentity:
    @pytest.mark.parametrize("solution", ["mtm", "tiered-autonuma", "thermostat",
                                          "first-touch", "hmc", "hemem"])
    @pytest.mark.parametrize("workload", ["gups", "bfs", "voltdb", "cassandra"])
    def test_vectorized_equals_legacy(self, tiny_profile, workload, solution):
        with perfflags.legacy_mode():
            legacy = fingerprint(run_solution(solution, workload, tiny_profile))
        assert perfflags.vectorized()
        fast = fingerprint(run_solution(solution, workload, tiny_profile))
        assert legacy == fast

    def test_faults_fork_and_workers_equal_legacy(self, tiny_profile):
        # One comparison through fault injection, snapshot fork and a
        # two-process pool: forked cells on two workers against cold
        # serial cells on the legacy paths.
        kwargs = dict(fault_rate=0.05, fault_seed=123)
        with perfflags.legacy_mode():
            legacy = run_sweep(
                "mtm", "gups", tiny_profile, TAU_VARIANTS, set_tau,
                warmup_intervals=2, use_snapshots=False, workers=1, **kwargs,
            )
        fast = run_sweep(
            "mtm", "gups", tiny_profile, TAU_VARIANTS, set_tau,
            warmup_intervals=2, use_snapshots=True, workers=2, **kwargs,
        )
        assert sweep_fingerprint(fast) == sweep_fingerprint(legacy)
        assert fast.results[TAU_VARIANTS[0].label].fault_log is not None

    def test_two_socket_mtm_under_faults_equals_legacy(self):
        # The vectorized MTM pass scans every region in one call and
        # gathers hint-fault sockets in one lookup.  Half the accesses
        # come from socket 1, so that gather picks real sockets, and
        # injected scan truncation shortens the chosen sets.
        def run():
            workload = build_workload("gups", SCALE, seed=3,
                                      remote_thread_fraction=0.5)
            engine = make_engine(
                "mtm", workload, scale=SCALE, seed=3,
                injector=FaultInjector(FaultConfig.uniform(0.05), seed=123),
            )
            result = fingerprint(engine.run(8))
            regions = [(r.start, r.npages, r.whi, r.dominant_socket, r.hottest_entry)
                       for r in engine.profiler.regions]
            return engine, result, regions

        with perfflags.legacy_mode():
            _, legacy, legacy_regions = run()
        engine, fast, regions = run()
        assert fast == legacy
        assert regions == legacy_regions
        assert engine.injector.log.truncated_scans > 0
        assert {r[3] for r in regions} >= {0, 1}

    def test_legacy_mode_restores_flag(self):
        assert perfflags.vectorized()
        with perfflags.legacy_mode():
            assert not perfflags.vectorized()
        assert perfflags.vectorized()


class TestTraceCache:
    def test_hit_and_miss_accounting(self):
        cache = TraceCache()
        cache.get_batch("gups", SCALE, 3, 0)
        assert (cache.hits, cache.misses) == (0, 1)
        cache.get_batch("gups", SCALE, 3, 0)
        assert (cache.hits, cache.misses) == (1, 1)
        # A cold jump to interval 2 synthesizes intervals 1 and 2, but it
        # is one request, so it counts one miss.
        cache.get_batch("gups", SCALE, 3, 2)
        assert (cache.hits, cache.misses) == (1, 2)
        stats = cache.stats()
        assert stats.requests == 3
        assert stats.hit_rate == pytest.approx(1 / 3)
        assert stats.cached_bytes == cache.cached_bytes > 0

    def test_pooled_sweep_counts_one_outcome_per_request(self):
        # Each pool worker forks onto a fresh cache, so its first request
        # synthesizes the whole warmup prefix; that is still one miss.
        profile = BenchProfile(name="t", scale=SCALE, seed=3, intervals={"gups": 12})
        variants = TAU_VARIANTS + [SweepVariant(label="tau_m=2", params={"tau_m": 2.0})]
        sweep = run_sweep("mtm", "gups", profile, variants, set_tau,
                          warmup_intervals=8, use_snapshots=True, workers=2)
        cache = sweep.perf.cache
        assert cache.hits + cache.misses == len(variants) * (12 - 8)

    def test_cached_batches_are_immutable(self):
        cache = TraceCache()
        first = cache.get_batch("gups", SCALE, 3, 0)
        vandalized = first.pages.copy()
        first.pages += 17
        first.counts[:] = -5
        again = cache.get_batch("gups", SCALE, 3, 0)
        assert not np.array_equal(again.pages, first.pages)
        assert np.array_equal(again.pages, vandalized - 0)
        assert again.counts.min() >= 0

    def test_replay_equals_fresh_synthesis(self):
        cached = TraceCache().get_batch("voltdb", SCALE, 3, 1)
        fresh_stream = TraceCache()
        fresh_stream.get_batch("voltdb", SCALE, 3, 0)
        fresh = fresh_stream.get_batch("voltdb", SCALE, 3, 1)
        assert np.array_equal(cached.pages, fresh.pages)
        assert np.array_equal(cached.counts, fresh.counts)
        assert np.array_equal(cached.writes, fresh.writes)
        assert np.array_equal(cached.sockets, fresh.sockets)

    def test_lru_eviction_at_byte_budget(self):
        probe = TraceCache()
        probe.get_batch("gups", SCALE, 3, 1)
        one_stream = probe.cached_bytes
        # Budget fits one stream, not two: caching a second workload must
        # evict the least-recently-used stream whole.
        cache = TraceCache(max_bytes=int(one_stream))
        cache.get_batch("gups", SCALE, 3, 1)
        cache.get_batch("voltdb", SCALE, 3, 1)
        assert cache.evictions >= 1
        assert len(cache._streams) == 1
        # The evicted stream regenerates deterministically: all misses.
        hits_before = cache.hits
        cache.get_batch("gups", SCALE, 3, 1)
        assert cache.hits == hits_before

    def test_active_stream_never_evicted_by_own_growth(self):
        cache = TraceCache(max_bytes=1)
        for interval in range(3):
            batch = cache.get_batch("gups", SCALE, 3, interval)
            assert batch.pages.size > 0
        assert len(cache._streams) == 1

    def test_rejects_bad_arguments(self):
        with pytest.raises(ConfigError):
            TraceCache(max_bytes=0)
        with pytest.raises(ConfigError):
            TraceCache().get_batch("gups", SCALE, 3, -1)

    def test_cached_run_equals_uncached_run(self, tiny_profile):
        plain = fingerprint(run_solution("mtm", "gups", tiny_profile))
        cached = fingerprint(
            run_solution("mtm", "gups", tiny_profile, trace_cache=TraceCache())
        )
        assert plain == cached


class TestParallelDeterminism:
    WORKLOADS = ["gups", "voltdb"]
    SOLUTIONS = ["first-touch", "mtm"]

    def test_workers4_bit_identical_to_serial(self, tiny_profile):
        serial = run_matrix(self.WORKLOADS, self.SOLUTIONS, tiny_profile, workers=1)
        parallel = run_matrix(self.WORKLOADS, self.SOLUTIONS, tiny_profile, workers=4)
        assert matrix_fingerprint(serial) == matrix_fingerprint(parallel)

    def test_workers4_bit_identical_under_fault_injection(self, tiny_profile):
        kwargs = dict(fault_rate=0.05, fault_seed=123)
        serial = run_matrix(
            self.WORKLOADS, self.SOLUTIONS, tiny_profile, workers=1, **kwargs
        )
        parallel = run_matrix(
            self.WORKLOADS, self.SOLUTIONS, tiny_profile, workers=4, **kwargs
        )
        assert matrix_fingerprint(serial) == matrix_fingerprint(parallel)
        # Faults actually fired, so the equality is not vacuous.
        some_run = serial.results["gups"]["mtm"]
        assert some_run.fault_log is not None

    def test_workers_validation(self, tiny_profile):
        with pytest.raises(ConfigError):
            run_matrix(["gups"], ["first-touch", "mtm"], tiny_profile, workers=0)

    def test_pooled_rows_synthesize_each_stream_once(self, tiny_profile):
        """A pool runs each workload row in one worker, so its cache
        misses once per interval of each stream, cell for cell as the
        serial run's one cache does."""
        serial = run_matrix(self.WORKLOADS, self.SOLUTIONS, tiny_profile, workers=1)
        pooled = run_matrix(self.WORKLOADS, self.SOLUTIONS, tiny_profile, workers=2)
        intervals = tiny_profile.intervals_for("gups")
        assert pooled.perf.cache.misses == len(self.WORKLOADS) * intervals
        assert pooled.perf.cache.hits == serial.perf.cache.hits

        def counts(result):
            cache = result.perf.cache
            return cache.hits, cache.misses, cache.evictions

        for workload in self.WORKLOADS:
            for solution in self.SOLUTIONS:
                assert (counts(pooled.results[workload][solution])
                        == counts(serial.results[workload][solution]))

    def test_row_tasks_heaviest_first_each_cell_once(self, tiny_profile):
        workloads = ["voltdb", "bfs", "gups"]  # 300, 525 and 512 GB
        solutions = ["first-touch", "hmc", "mtm"]
        every_cell = sorted((w, s) for w in workloads for s in solutions)
        for workers, chunks_per_row in ((1, 1), (2, 1), (3, 1), (4, 2),
                                        (7, 3), (10, 3)):
            tasks = _row_tasks(workloads, solutions, frozenset(),
                               tiny_profile, None, workers)
            assert sorted((w, s) for w, chunk in tasks for s in chunk) == every_cell
            assert len(tasks) == len(workloads) * chunks_per_row
            order = [w for w, _ in tasks]
            assert order == sorted(order, key=["bfs", "gups", "voltdb"].index)
            for workload in workloads:
                row = [s for w, chunk in tasks if w == workload for s in chunk]
                assert row == solutions

        # Intervals weigh in too, and cached cells are left out.
        long_voltdb = BenchProfile(name="t", scale=SCALE, seed=3,
                                   intervals={"voltdb": 40, "bfs": 4, "gups": 4})
        cached = frozenset({("voltdb", "first-touch"), ("gups", "first-touch"),
                            ("gups", "hmc"), ("gups", "mtm")})
        assert _row_tasks(workloads, solutions, cached, long_voltdb, None, 2) == [
            ("voltdb", ("hmc", "mtm")), ("bfs", tuple(solutions)),
        ]

    def test_split_row_bit_identical_to_serial(self, tiny_profile):
        solutions = ["first-touch", "hmc", "mtm"]
        serial = run_matrix(["gups"], solutions, tiny_profile, workers=1)
        pooled = run_matrix(["gups"], solutions, tiny_profile, workers=3)
        assert matrix_fingerprint(serial) == matrix_fingerprint(pooled)


class TestGeomean:
    @staticmethod
    def _matrix(times_by_workload, baseline="base"):
        class Stub:
            def __init__(self, t):
                self.total_time = t

        return MatrixResult(
            results={
                wl: {sol: Stub(t) for sol, t in row.items()}
                for wl, row in times_by_workload.items()
            },
            baseline=baseline,
        )

    def test_exact_value(self):
        matrix = self._matrix({
            "w1": {"base": 2.0, "s": 1.0},   # 2x speedup
            "w2": {"base": 8.0, "s": 1.0},   # 8x speedup
        })
        assert matrix.geomean_speedup("s") == pytest.approx(4.0)

    def test_no_underflow_with_many_slowdowns(self):
        # The old running-product form underflowed to exactly 0.0 here:
        # 0.5 ** 400 == 0.0.  exp(mean(log)) stays exact.
        matrix = self._matrix(
            {f"w{i}": {"base": 1.0, "s": 2.0} for i in range(400)}
        )
        assert matrix.geomean_speedup("s") == pytest.approx(0.5)

    def test_empty_matrix_is_identity(self):
        assert self._matrix({}).geomean_speedup("s") == 1.0

    def test_non_positive_time_rejected(self):
        matrix = self._matrix({"w1": {"base": 1.0, "s": 0.0}})
        with pytest.raises(ConfigError):
            matrix.geomean_speedup("s")


class TestPerfStats:
    def test_engine_reports_phase_times(self, tiny_profile):
        result = run_solution("mtm", "gups", tiny_profile)
        perf = result.perf
        assert perf is not None
        assert perf.intervals == 4
        assert perf.cache is None
        assert perf.as_dict() == {"intervals": 4}

    def test_cache_stats_attached_when_cached(self, tiny_profile):
        result = run_solution(
            "mtm", "gups", tiny_profile, trace_cache=TraceCache()
        )
        assert isinstance(result.perf.cache, CacheStats)
        assert result.perf.cache.requests == 4
        assert "cache" in result.perf.as_dict()

    def test_merge_accumulates(self):
        a = PerfStats(intervals=2)
        b = PerfStats(intervals=1, cache=CacheStats(hits=3))
        merged = a.merge(b)
        assert merged.intervals == 3
        assert merged.cache.hits == 3
