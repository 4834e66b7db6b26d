"""Tests for the benchmark harness: profiles, runners, and the shared
``BENCH_perf.json`` writer."""

import json

import pytest

from repro.bench.cli import update_bench_perf
from repro.bench.runner import MatrixResult, run_matrix, run_solution
from repro.bench.scaling import FULL, QUICK, BenchProfile, profile_from_env
from repro.errors import ConfigError


class TestProfiles:
    def test_profiles_cover_all_workloads(self):
        from repro.workloads.registry import workload_names

        for profile in (FULL, QUICK):
            for name in workload_names():
                assert profile.intervals_for(name) > 0

    def test_env_selection(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_PROFILE", "full")
        assert profile_from_env().name == "full"
        monkeypatch.setenv("REPRO_BENCH_PROFILE", "quick")
        assert profile_from_env().name == "quick"

    def test_env_unknown_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_PROFILE", "huge")
        with pytest.raises(ConfigError):
            profile_from_env()

    def test_default_when_unset(self, monkeypatch):
        monkeypatch.delenv("REPRO_BENCH_PROFILE", raising=False)
        assert profile_from_env(default="quick").name == "quick"

    def test_invalid_scale_rejected(self):
        with pytest.raises(ConfigError):
            BenchProfile(name="bad", scale=0)


@pytest.fixture(scope="module")
def tiny_profile():
    return BenchProfile(
        name="tiny",
        scale=1 / 512,
        intervals={name: 4 for name in
                   ("gups", "voltdb", "cassandra", "bfs", "sssp", "spark")},
        seed=3,
    )


class TestRunners:
    def test_run_solution(self, tiny_profile):
        result = run_solution("first-touch", "gups", tiny_profile)
        assert len(result.records) == 4

    def test_run_solution_interval_override(self, tiny_profile):
        result = run_solution("first-touch", "gups", tiny_profile, intervals=2)
        assert len(result.records) == 2

    def test_matrix_normalization(self, tiny_profile):
        matrix = run_matrix(["gups"], ["first-touch", "mtm"], tiny_profile)
        norm = matrix.normalized("gups")
        assert norm["first-touch"] == pytest.approx(1.0)
        assert norm["mtm"] > 0

    def test_matrix_table_and_geomean(self, tiny_profile):
        matrix = run_matrix(["gups"], ["first-touch", "mtm"], tiny_profile)
        text = matrix.table().render()
        assert "gups" in text
        assert matrix.geomean_speedup("mtm") > 0

    def test_matrix_requires_baseline(self, tiny_profile):
        with pytest.raises(ConfigError):
            run_matrix(["gups"], ["mtm"], tiny_profile, baseline="first-touch")

    def test_empty_matrix_rejected(self):
        with pytest.raises(ConfigError):
            MatrixResult(results={}).table()


class TestStats:
    def test_series_stats(self):
        from repro.bench.stats import SeriesStats

        s = SeriesStats.from_samples([1.0, 1.0, 1.0])
        assert s.mean == 1.0 and s.ci95 == 0.0
        s2 = SeriesStats.from_samples([0.9, 1.1])
        assert s2.ci95 > 0

    def test_single_sample(self):
        from repro.bench.stats import SeriesStats

        s = SeriesStats.from_samples([2.0])
        assert s.mean == 2.0 and s.ci95 == 0.0

    def test_repeated_comparison(self, tiny_profile):
        from repro.bench.stats import repeated_comparison, stats_table

        stats = repeated_comparison(
            "gups", ["first-touch", "mtm"], tiny_profile, repeats=2, intervals=3
        )
        assert stats["first-touch"].mean == pytest.approx(1.0)
        assert len(stats["mtm"].samples) == 2
        text = stats_table("gups", stats, "first-touch").render()
        assert "mtm" in text

    def test_repeats_validation(self, tiny_profile):
        from repro.bench.stats import repeated_comparison
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            repeated_comparison("gups", ["mtm"], tiny_profile, repeats=0)
        with pytest.raises(ConfigError):
            repeated_comparison("gups", ["mtm"], tiny_profile, baseline="nope")


class TestBenchPerfFile:
    FOREIGN = {
        "service_throughput": {"speedup": 2.5, "cells": 12},
        "fleet_obs": {"overhead": 0.01},
        "analytics": {"ingest_seconds": 0.2},
    }

    def test_perf_smoke_write_keeps_foreign_blocks(self, tmp_path):
        path = tmp_path / "BENCH_perf.json"
        path.write_text(json.dumps({"speedup": 1.0, **self.FOREIGN}))
        # The perf smoke writes its top-level keys, not a single block.
        smoke = {"profile": "quick", "speedup": 3.1,
                 "tau_sweep": {"speedup": 1.9}, "results_identical": True}
        update_bench_perf(path, smoke)
        written = json.loads(path.read_text())
        assert written == {**self.FOREIGN, **smoke}

    def test_missing_or_corrupt_file_starts_empty(self, tmp_path):
        path = tmp_path / "BENCH_perf.json"
        assert update_bench_perf(path, {"analytics": {"x": 1}}) == {"analytics": {"x": 1}}
        path.write_text("{not json")
        update_bench_perf(path, {"fleet_obs": {"y": 2}})
        assert json.loads(path.read_text()) == {"fleet_obs": {"y": 2}}
