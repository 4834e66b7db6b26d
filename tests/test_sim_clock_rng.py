"""Unit tests for the clock and RNG management."""

import pytest

from repro.errors import ConfigError
from repro.sim.clock import CATEGORY_APP, CATEGORY_MIGRATION, CATEGORY_PROFILING, Clock
from repro.sim.rng import make_rng, named_rngs, spawn_rngs


class TestClock:
    def test_advance_accumulates_by_category(self):
        clock = Clock()
        clock.advance(1.0, CATEGORY_APP)
        clock.advance(0.25, CATEGORY_PROFILING)
        clock.advance(0.5, CATEGORY_MIGRATION)
        assert clock.now == pytest.approx(1.75)
        assert clock.app_time == pytest.approx(1.0)
        assert clock.profiling_time == pytest.approx(0.25)
        assert clock.migration_time == pytest.approx(0.5)

    def test_background_does_not_advance_now(self):
        clock = Clock()
        clock.record_background(3.0)
        assert clock.now == 0.0
        assert clock.background_time == pytest.approx(3.0)

    def test_negative_rejected(self):
        clock = Clock()
        with pytest.raises(ConfigError):
            clock.advance(-1.0)
        with pytest.raises(ConfigError):
            clock.record_background(-1.0)

    def test_unknown_category_rejected(self):
        with pytest.raises(ConfigError):
            Clock().advance(1.0, "coffee")

    def test_breakdown_is_copy(self):
        clock = Clock()
        clock.advance(1.0, CATEGORY_APP)
        b = clock.breakdown()
        b[CATEGORY_APP] = 99.0
        assert clock.app_time == pytest.approx(1.0)


class TestRng:
    def test_make_rng_deterministic(self):
        assert make_rng(5).integers(0, 100) == make_rng(5).integers(0, 100)

    def test_spawn_rngs_independent(self):
        a, b = spawn_rngs(7, 2)
        assert a.integers(0, 1 << 30) != b.integers(0, 1 << 30)

    def test_spawn_rejects_zero(self):
        with pytest.raises(ConfigError):
            spawn_rngs(1, 0)

    def test_named_rngs_stable_under_extension(self):
        first = named_rngs(3, ["a", "b"])
        second = named_rngs(3, ["a", "b", "c"])
        assert first["a"].integers(0, 1 << 30) == second["a"].integers(0, 1 << 30)

    def test_engine_and_trace_cache_keep_the_five_name_streams(self):
        """The engine spawns ["workload", "profiler", "pebs"] and the
        trace cache ["workload"]: each stream draws what the same name
        drew when both spawned all five names."""
        from repro.core.baselines import make_engine
        from repro.sim.tracecache import _Stream

        def draws(rngs):
            return {name: rng.integers(0, 1 << 62, 32).tolist()
                    for name, rng in rngs.items()}

        five = draws(named_rngs(7, ["workload", "profiler", "pebs",
                                    "mechanism", "thp"]))
        engine = make_engine("mtm", "gups", scale=1 / 512, seed=7)
        assert list(engine.rngs) == ["workload", "profiler", "pebs"]
        assert draws(engine.rngs) == {
            name: five[name] for name in ("workload", "profiler", "pebs")}
        stream = _Stream("gups", 1 / 512, 7)
        assert draws({"workload": stream.rng}) == {
            "workload": five["workload"]}
