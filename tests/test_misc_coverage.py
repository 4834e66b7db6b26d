"""Assorted edge-case coverage across small modules."""

import pytest

from repro.errors import ConfigError, ProfilingError
from repro.metrics.breakdown import TimeBreakdown
from repro.mm.pte import PteFlag
from repro.profile.base import ProfileSnapshot, RegionReport
from repro.sim.costmodel import CostModel, CostParams
from repro.hw.topology import optane_4tier
from repro.units import format_bytes, format_time


class TestPteFlags:
    def test_default_mapped(self):
        flags = PteFlag.default_mapped()
        assert flags & PteFlag.PRESENT
        assert flags & PteFlag.WRITABLE
        assert not flags & PteFlag.DIRTY

    def test_reserved_bit_position(self):
        assert PteFlag.RESERVED11 == 1 << 11


class TestSnapshotEdges:
    def test_top_hot_pages_zero_volume(self):
        snap = ProfileSnapshot.from_reports(
            0,
            [RegionReport(start=0, npages=10, score=1.0)],
            profiling_time=0.0,
        )
        assert snap.top_hot_pages(0).size == 0

    def test_top_hot_pages_negative_volume_rejected(self):
        snap = ProfileSnapshot.from_reports(0, [], profiling_time=0.0)
        with pytest.raises(ProfilingError):
            snap.top_hot_pages(-1)

    def test_hot_volume_threshold(self):
        snap = ProfileSnapshot.from_reports(
            0,
            [
                RegionReport(start=0, npages=10, score=0.5),
                RegionReport(start=10, npages=10, score=2.0),
            ],
            profiling_time=0.0,
        )
        assert snap.hot_volume_pages(1.0) == 10
        assert snap.hot_volume_pages(0.0) == 20


class TestCostModelEdges:
    def test_scan_time_negative_rejected(self):
        cm = CostModel(optane_4tier(1 / 512), CostParams())
        with pytest.raises(ConfigError):
            cm.scan_time(-1)
        with pytest.raises(ConfigError):
            cm.hint_fault_time(-1)
        with pytest.raises(ConfigError):
            cm.pebs_time(-1)

    def test_hint_amortization_helper(self):
        params = CostParams()
        amortized = params.scan_overhead_with_hint_amortization(hint_every=12)
        assert amortized == pytest.approx(
            params.scan_overhead + params.hint_fault_cost / 12
        )
        with pytest.raises(ConfigError):
            params.scan_overhead_with_hint_amortization(hint_every=0)

    def test_compute_time_scales_with_threads(self):
        few = CostModel(optane_4tier(1 / 512), CostParams(threads=1))
        many = CostModel(optane_4tier(1 / 512), CostParams(threads=8))
        assert few.compute_time(1000) == pytest.approx(8 * many.compute_time(1000))


class TestBreakdownShares:
    def test_shares_partition(self):
        b = TimeBreakdown("x", app=8.0, profiling=1.0, migration=1.0)
        assert b.profiling_share() + b.migration_share() + 8.0 / b.total == pytest.approx(1.0)


class TestFormatting:
    def test_negative_values(self):
        assert format_bytes(-2048).startswith("-")
        assert format_time(0) == "0ns"
