"""Bit-identity and no-double-count properties of the observability plane.

Observability must be a pure observer: enabling it — on a plain engine,
under fault injection, across snapshot capture/fork, and through every
serial/pooled runner path — may never change a simulated number.  And
aggregation must be exact: a pooled run's collector holds the same
events and counters as a serial run's, each child absorbed exactly once.

Host-side telemetry is excluded from cross-process equality where it
genuinely differs.  ``cache.*`` describes the process-private trace
caches: a pooled matrix runs each workload row in one worker, so its
cache hits and misses exactly where the serial cache does (checked
below), but a row split across workers, or a sweep forked in workers,
synthesizes its stream once per worker, and the ``cache.cached_bytes``
gauge reads each process's own cache.  ``perf.*_seconds`` are
wall-clock readings.  Everything derived from the simulation must match
exactly.
"""

from __future__ import annotations

import pytest

from repro.bench.runner import SweepVariant, run_matrix, run_sweep
from repro.bench.scaling import BenchProfile
from repro.core.baselines import make_engine
from repro.faults.injector import FaultConfig, FaultInjector
from repro.obs.context import ObsContext
from repro.sim.engine import SimulationEngine
from tests.support import fingerprint, matrix_fingerprint, sweep_fingerprint

SCALE = 1 / 512
SEED = 3
INTERVALS = 6
WARMUP = 4

WORKLOADS = ["gups", "voltdb"]
SOLUTIONS = ["first-touch", "mtm"]


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


def sim_event_counts(ctx: ObsContext) -> dict[str, int]:
    """Event counts minus the process-local ``cache.*`` events."""
    return {name: count for name, count in ctx.event_counts().items()
            if not name.startswith("cache.")}


def sim_counters(ctx: ObsContext) -> dict:
    """Counters minus process-local cache/wall-clock/stream-loss data.

    ``obs.*`` counters (dropped events, relay backpressure) describe the
    telemetry transport itself — a pooled run may report backpressure a
    serial run cannot — so they are host-side, not simulated.
    """
    return {
        key: value for key, value in ctx.registry.counters.items()
        if not key[0].startswith(("cache.", "perf.", "obs."))
    }


def cache_counters(ctx: ObsContext) -> dict:
    """The ``cache.*`` counters, per run label."""
    return {key: value for key, value in ctx.registry.counters.items()
            if key[0].startswith("cache.")}


def cache_events(ctx: ObsContext) -> dict[str, list]:
    """Each track's ``cache.*`` events, in emission order."""
    return {
        track.label: [(e.name, e.interval, e.fields) for e in track.events
                      if e.name.startswith("cache.")]
        for track in ctx.tracks
    }


# -- engine level --------------------------------------------------------------


class TestEngineIdentity:
    @pytest.mark.parametrize("solution", ["mtm", "tiered-autonuma"])
    def test_obs_is_bit_identity_neutral(self, solution):
        plain = make_engine(solution, "gups", scale=SCALE, seed=SEED)
        reference = fingerprint(plain.run(INTERVALS))
        traced = make_engine(solution, "gups", scale=SCALE, seed=SEED,
                             obs=ObsContext(label="t"))
        assert fingerprint(traced.run(INTERVALS)) == reference

    def test_obs_neutral_under_fault_injection(self):
        def injected(obs):
            engine = make_engine(
                "mtm", "gups", scale=SCALE, seed=SEED,
                injector=FaultInjector(FaultConfig.uniform(0.3), seed=7),
                obs=obs,
            )
            return engine.run(INTERVALS)

        reference = fingerprint(injected(None))
        obs = ObsContext(label="faulty")
        result = injected(obs)
        assert fingerprint(result) == reference
        assert result.fault_log is not None
        assert (obs.event_counts().get("fault.injected", 0)
                == obs.registry.counter_total("faults.injected"))

    def test_obs_neutral_across_snapshot_fork(self):
        reference = fingerprint(
            make_engine("mtm", "gups", scale=SCALE, seed=SEED).run(INTERVALS)
        )
        obs = ObsContext(label="forked")
        engine = make_engine("mtm", "gups", scale=SCALE, seed=SEED, obs=obs)
        for _ in range(WARMUP):
            engine.step()
        snap = engine.snapshot()
        forked = SimulationEngine.fork(snap, obs=obs)
        assert fingerprint(forked.run(INTERVALS - WARMUP)) == reference
        counts = obs.event_counts()
        assert counts["snapshot.capture"] == 1
        assert counts["snapshot.fork"] == 1

    def test_fork_emits_into_its_own_context_only(self):
        parent_obs = ObsContext(label="parent")
        engine = make_engine("mtm", "gups", scale=SCALE, seed=SEED,
                             obs=parent_obs)
        for _ in range(WARMUP):
            engine.step()
        snap = engine.snapshot()
        parent_events = parent_obs.event_count()
        child_obs = ObsContext(label="child")
        SimulationEngine.fork(snap, obs=child_obs).run(INTERVALS - WARMUP)
        assert parent_obs.event_count() == parent_events
        assert child_obs.event_counts()["interval.start"] == INTERVALS - WARMUP


# -- matrix runner -------------------------------------------------------------


class TestMatrixTelemetry:
    def test_pooled_matrix_matches_serial_exactly(self, tiny_profile):
        serial_obs = ObsContext(label="serial")
        serial = run_matrix(WORKLOADS, SOLUTIONS, tiny_profile, workers=1,
                            obs=serial_obs)
        pooled_obs = ObsContext(label="pooled")
        pooled = run_matrix(WORKLOADS, SOLUTIONS, tiny_profile, workers=2,
                            obs=pooled_obs)

        assert matrix_fingerprint(serial) == matrix_fingerprint(pooled)
        assert sim_event_counts(serial_obs) == sim_event_counts(pooled_obs)
        assert sim_counters(serial_obs) == sim_counters(pooled_obs)
        # Whole rows per worker: the trace caches agree too.
        assert cache_counters(serial_obs) == cache_counters(pooled_obs)
        assert cache_events(serial_obs) == cache_events(pooled_obs)

    def test_collector_cache_counters_are_per_run(self, tiny_profile):
        """Each run's ``cache.*`` counters are what its own requests
        added to the shared cache, so they sum to the matrix's perf."""
        obs = ObsContext(label="matrix")
        matrix = run_matrix(WORKLOADS, SOLUTIONS, tiny_profile, workers=1,
                            obs=obs)
        cache = matrix.perf.cache
        registry = obs.registry
        assert registry.counter_total("cache.hits") == cache.hits > 0
        assert registry.counter_total("cache.misses") == cache.misses > 0
        assert (registry.counter_total("cache.requests")
                == cache.hits + cache.misses)

    def test_collector_holds_one_track_per_cell(self, tiny_profile):
        obs = ObsContext(label="matrix")
        run_matrix(WORKLOADS, SOLUTIONS, tiny_profile, workers=1, obs=obs)
        expected = {f"{wl}/{sol}" for wl in WORKLOADS for sol in SOLUTIONS}
        assert {t.label for t in obs.tracks} == expected
        intervals = INTERVALS * len(expected)
        assert obs.event_counts()["interval.start"] == intervals
        assert obs.registry.counter_total("engine.intervals") == intervals

    def test_matrix_with_obs_matches_matrix_without(self, tiny_profile):
        plain = run_matrix(WORKLOADS, SOLUTIONS, tiny_profile, obs=None)
        traced = run_matrix(WORKLOADS, SOLUTIONS, tiny_profile,
                            obs=ObsContext(label="t"))
        assert matrix_fingerprint(plain) == matrix_fingerprint(traced)

    def test_matrix_obs_neutral_under_faults(self, tiny_profile):
        plain = run_matrix(WORKLOADS, SOLUTIONS, tiny_profile,
                           fault_rate=0.3, fault_seed=7, obs=None)
        traced = run_matrix(WORKLOADS, SOLUTIONS, tiny_profile,
                            fault_rate=0.3, fault_seed=7,
                            obs=ObsContext(label="t"))
        assert matrix_fingerprint(plain) == matrix_fingerprint(traced)


# -- sweep runner --------------------------------------------------------------


class TestSweepTelemetry:
    def _sweep(self, profile, *, use_snapshots, workers, obs):
        return run_sweep(
            "mtm", "gups", profile, TAU_VARIANTS, set_tau,
            warmup_intervals=WARMUP, intervals=INTERVALS,
            use_snapshots=use_snapshots, workers=workers, obs=obs,
        )

    def test_fork_sweep_counts_warmup_once(self, tiny_profile):
        obs = ObsContext(label="fork-sweep")
        sweep = self._sweep(tiny_profile, use_snapshots=True, workers=1,
                            obs=obs)
        reference = sweep_fingerprint(
            self._sweep(tiny_profile, use_snapshots=False, workers=1,
                        obs=None))
        assert sweep_fingerprint(sweep) == reference
        # warmup simulated once; each variant resumes after the branch
        expected = WARMUP + len(TAU_VARIANTS) * (INTERVALS - WARMUP)
        assert obs.registry.counter_total("engine.intervals") == expected
        assert obs.event_counts()["interval.start"] == expected
        assert obs.event_counts()["snapshot.capture"] == 1
        assert obs.event_counts()["snapshot.fork"] == len(TAU_VARIANTS)
        labels = {t.label for t in obs.tracks}
        assert "gups/mtm/warmup" in labels
        assert {f"gups/mtm/{v.label}" for v in TAU_VARIANTS} <= labels

    def test_cold_sweep_counts_every_interval(self, tiny_profile):
        obs = ObsContext(label="cold-sweep")
        self._sweep(tiny_profile, use_snapshots=False, workers=1, obs=obs)
        expected = len(TAU_VARIANTS) * INTERVALS
        assert obs.registry.counter_total("engine.intervals") == expected
        assert obs.event_counts().get("snapshot.fork", 0) == 0
        assert "gups/mtm/warmup" not in {t.label for t in obs.tracks}

    @pytest.mark.parametrize("use_snapshots", [False, True])
    def test_pooled_sweep_matches_serial_exactly(self, tiny_profile,
                                                 use_snapshots):
        serial_obs = ObsContext(label="serial")
        serial = self._sweep(tiny_profile, use_snapshots=use_snapshots,
                             workers=1, obs=serial_obs)
        pooled_obs = ObsContext(label="pooled")
        pooled = self._sweep(tiny_profile, use_snapshots=use_snapshots,
                             workers=2, obs=pooled_obs)
        assert sweep_fingerprint(serial) == sweep_fingerprint(pooled)
        assert sim_event_counts(serial_obs) == sim_event_counts(pooled_obs)
        assert sim_counters(serial_obs) == sim_counters(pooled_obs)

    def test_sweep_obs_neutral(self, tiny_profile):
        plain = self._sweep(tiny_profile, use_snapshots=True, workers=1,
                            obs=None)
        traced = self._sweep(tiny_profile, use_snapshots=True, workers=1,
                             obs=ObsContext(label="t"))
        assert sweep_fingerprint(plain) == sweep_fingerprint(traced)
