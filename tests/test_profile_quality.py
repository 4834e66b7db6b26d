"""Unit tests for profiling-quality metrics (Fig. 1's recall/accuracy)."""

import numpy as np
import pytest

from repro.errors import ProfilingError
from repro.profile.base import ProfileSnapshot, RegionReport
from repro.profile.quality import ProfilingQuality, evaluate_quality, quality_over_time


def snap(reports):
    return ProfileSnapshot.from_reports(0, reports, profiling_time=0.0)


class TestTopHotPages:
    def test_orders_by_score_and_truncates(self):
        reports = [
            RegionReport(start=0, npages=100, score=1.0),
            RegionReport(start=100, npages=100, score=3.0),
        ]
        pages = snap(reports).top_hot_pages(50)
        assert pages.min() >= 100  # hottest region first
        assert pages.size == 50

    def test_zero_scores_excluded(self):
        reports = [RegionReport(start=0, npages=100, score=0.0)]
        assert snap(reports).top_hot_pages(50).size == 0

    def test_page_scores_dense(self):
        reports = [RegionReport(start=10, npages=5, score=2.0)]
        scores = snap(reports).page_scores(20)
        assert scores[12] == 2.0
        assert scores[0] == 0.0


class TestEvaluateQuality:
    def test_perfect_detection(self):
        truth = np.arange(100, 200)
        reports = [
            RegionReport(start=100, npages=100, score=3.0),
            RegionReport(start=0, npages=100, score=0.1),
        ]
        q = evaluate_quality(snap(reports), truth)
        assert q.recall == 1.0
        assert q.accuracy == 1.0

    def test_half_wrong_region(self):
        truth = np.arange(0, 50)
        reports = [RegionReport(start=0, npages=100, score=3.0)]
        q = evaluate_quality(snap(reports), truth, detect_volume=100)
        assert q.recall == 1.0
        assert q.accuracy == pytest.approx(0.5)

    def test_missed_everything(self):
        truth = np.arange(500, 600)
        reports = [RegionReport(start=0, npages=100, score=3.0)]
        q = evaluate_quality(snap(reports), truth)
        assert q.recall == 0.0
        assert q.accuracy == 0.0
        assert q.f1() == 0.0

    def test_empty_truth_rejected(self):
        with pytest.raises(ProfilingError):
            evaluate_quality(snap([]), np.array([]))

    def test_no_detection_zero_quality(self):
        truth = np.arange(0, 10)
        q = evaluate_quality(snap([]), truth)
        assert q == ProfilingQuality(recall=0.0, accuracy=0.0, detected=0, truth=10)

    def test_f1_harmonic_mean(self):
        q = ProfilingQuality(recall=1.0, accuracy=0.5, detected=10, truth=5)
        assert q.f1() == pytest.approx(2 / 3)


class TestSeries:
    def test_quality_over_time_stacks(self):
        qs = [
            ProfilingQuality(recall=0.2, accuracy=0.5, detected=10, truth=10),
            ProfilingQuality(recall=0.8, accuracy=0.9, detected=10, truth=10),
        ]
        series = quality_over_time(qs)
        assert series["recall"].tolist() == [0.2, 0.8]
        assert series["accuracy"].tolist() == [0.5, 0.9]


class TestLabeledDetection:
    def test_labeled_threshold_uses_profiler_claims(self):
        import numpy as np

        truth = np.arange(0, 50)
        reports = [
            RegionReport(start=0, npages=50, score=3.0),
            RegionReport(start=50, npages=150, score=1.0),  # over-claimed
        ]
        q = evaluate_quality(snap(reports), truth, labeled_threshold=0.5)
        # All 200 labeled pages count, so precision collapses to 50/200.
        assert q.detected == 200
        assert q.accuracy == pytest.approx(0.25)
        assert q.recall == 1.0

    def test_labeled_threshold_excludes_cold(self):
        import numpy as np

        truth = np.arange(0, 50)
        reports = [
            RegionReport(start=0, npages=50, score=3.0),
            RegionReport(start=50, npages=150, score=0.1),
        ]
        q = evaluate_quality(snap(reports), truth, labeled_threshold=0.5)
        assert q.detected == 50
        assert q.accuracy == 1.0
