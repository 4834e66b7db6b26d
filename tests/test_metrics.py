"""Tests for the metrics package: breakdowns, heatmaps, tables."""

import numpy as np
import pytest

from repro.core.baselines import make_engine
from repro.errors import ConfigError
from repro.metrics.breakdown import TimeBreakdown, breakdown_table
from repro.metrics.counters import HotVolumeTracker, migration_summary
from repro.metrics.heatmap import AccessHeatmap
from repro.metrics.report import Table, format_series, normalize
from repro.profile.base import ProfileSnapshot, RegionReport
from repro.sim.trace import AccessBatch

SCALE = 1.0 / 512.0


class TestBreakdown:
    def test_from_result(self):
        result = make_engine("mtm", "gups", SCALE, seed=1).run(4)
        b = TimeBreakdown.from_result(result)
        assert b.total == pytest.approx(result.total_time)
        assert 0 <= b.profiling_share() <= 1
        assert 0 <= b.migration_share() <= 1

    def test_table_renders(self):
        rows = [TimeBreakdown("mtm", 10.0, 0.5, 0.2, background=1.0)]
        text = breakdown_table(rows)
        assert "mtm" in text and "profiling" in text

    def test_zero_total(self):
        b = TimeBreakdown("x", 0, 0, 0)
        assert b.profiling_share() == 0.0


class TestHeatmap:
    def test_record_batch_bins_addresses(self):
        hm = AccessHeatmap(n_pages=1000, address_bins=10)
        batch = AccessBatch.from_accesses(np.array([50, 950]))
        hm.record_batch(batch)
        grid = hm.grid()
        assert grid.shape == (1, 10)
        assert grid[0, 0] == 1 and grid[0, 9] == 1

    def test_record_snapshot_spreads_regions(self):
        hm = AccessHeatmap(n_pages=1000, address_bins=10)
        snap = ProfileSnapshot.from_reports(
            0,
            [RegionReport(start=0, npages=500, score=2.0)],
            profiling_time=0.0,
        )
        hm.record_snapshot(snap)
        grid = hm.grid()
        assert grid[0, :5].min() == 2.0
        assert grid[0, 6:].max() == 0.0

    def test_render_ascii(self):
        hm = AccessHeatmap(n_pages=100, address_bins=20)
        hm.record_batch(AccessBatch.from_accesses(np.array([10] * 5)))
        art = hm.render()
        assert art.count("\n") >= 2
        assert "+" in art

    def test_row_cap(self):
        hm = AccessHeatmap(n_pages=100, address_bins=4, max_intervals=3)
        for _ in range(5):
            hm.record_batch(AccessBatch.from_accesses(np.array([1])))
        assert hm.grid().shape[0] == 3

    def test_validation(self):
        with pytest.raises(ConfigError):
            AccessHeatmap(n_pages=0)


class TestHotVolume:
    def test_accumulates_unique(self):
        tracker = HotVolumeTracker(n_pages=1000, detect_volume=100)
        snap = ProfileSnapshot.from_reports(
            0,
            [RegionReport(start=0, npages=50, score=2.0)],
            profiling_time=0.0,
        )
        tracker.record(snap)
        tracker.record(snap)  # same pages twice
        assert tracker.volume_pages == 50

    def test_migration_summary(self):
        result = make_engine("mtm", "gups", SCALE, seed=1).run(4)
        summary = migration_summary(result)
        assert summary.promoted_bytes == result.migration_log.promoted_bytes
        assert summary.label == "mtm"


class TestReport:
    def test_table_rendering(self):
        t = Table("Demo", ["a", "b"])
        t.add_row(1, "x")
        text = t.render()
        assert "Demo" in text and "1" in text

    def test_table_row_arity_checked(self):
        t = Table("Demo", ["a", "b"])
        with pytest.raises(ConfigError):
            t.add_row(1)

    def test_normalize(self):
        norm = normalize({"ft": 2.0, "mtm": 1.5}, baseline="ft")
        assert norm["ft"] == 1.0
        assert norm["mtm"] == pytest.approx(0.75)

    def test_normalize_missing_baseline(self):
        with pytest.raises(ConfigError):
            normalize({"a": 1.0}, baseline="b")

    def test_format_series(self):
        text = format_series("recall", [0, 1], [0.5, 0.75])
        assert "recall" in text and "0.75" in text

    def test_format_series_length_mismatch(self):
        with pytest.raises(ConfigError):
            format_series("x", [1], [1, 2])
