"""Unit tests for the WHI histogram."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.policy.histogram import WhiHistogram


def scores(*values):
    return np.array(values, dtype=np.float64)


class TestHistogram:
    def test_bucketing_spans_score_range(self):
        hist = WhiHistogram(scores(*(float(i) for i in range(8))), num_buckets=4)
        assert hist.bucket_index(0) == 0
        assert hist.bucket_index(7) == 3

    def test_hottest_first_order(self):
        values = scores(1.0, 3.0, 2.0)
        hist = WhiHistogram(values, num_buckets=4)
        ranked = values[hist.hottest_first()].tolist()
        assert ranked == sorted(ranked, reverse=True)

    def test_coldest_first_is_reverse(self):
        values = scores(1.0, 3.0)
        hist = WhiHistogram(values, num_buckets=4)
        assert values[hist.coldest_first()[0]] == 1.0
        assert hist.coldest_first().tolist() == hist.hottest_first().tolist()[::-1]

    def test_bucket_counts_sum(self):
        hist = WhiHistogram(scores(*(float(i % 3) for i in range(9))), num_buckets=4)
        assert hist.bucket_counts().sum() == 9

    def test_uniform_scores_single_bucket(self):
        hist = WhiHistogram(scores(1.0, 1.0, 1.0, 1.0), num_buckets=4)
        assert all(hist.bucket_index(i) == hist.bucket_index(0) for i in range(4))

    def test_empty_reports_ok(self):
        hist = WhiHistogram(scores(), num_buckets=4)
        assert hist.hottest_first().size == 0
        assert hist.bucket_counts().sum() == 0

    def test_bucket_bounds_checked(self):
        hist = WhiHistogram(scores(1.0), num_buckets=4)
        with pytest.raises(ConfigError):
            hist.bucket(4)

    def test_invalid_bucket_count(self):
        with pytest.raises(ConfigError):
            WhiHistogram(scores(), num_buckets=1)
