"""Histogram over regions' EMA hotness (Sec. 6.1).

MTM segments the range of WHI values into buckets and tracks which regions
fall into each.  Promotion drains the highest buckets; demotion drains the
lowest.  The histogram is rebuilt from the snapshot each interval — with a
few thousand regions this is microseconds, matching the paper's "low
overhead" claim for maintaining it incrementally.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError


class WhiHistogram:
    """Buckets regions by hotness score.

    Regions are named by their row in the score column.

    Args:
        scores: the interval's per-region scores (a snapshot's
            ``score`` column).
        num_buckets: histogram resolution.

    Attributes:
        bucket_of: each region's bucket; the highest index is the hottest.
    """

    def __init__(self, scores: np.ndarray, num_buckets: int = 16) -> None:
        if num_buckets < 2:
            raise ConfigError(f"num_buckets must be >= 2, got {num_buckets}")
        self.num_buckets = num_buckets
        scores = np.asarray(scores, dtype=np.float64)
        self._scores = scores
        if scores.size == 0:
            self._edges = np.linspace(0.0, 1.0, num_buckets + 1)
            self.bucket_of = np.empty(0, dtype=np.int64)
        else:
            lo, hi = float(scores.min()), float(scores.max())
            if hi <= lo:
                hi = lo + 1.0
            self._edges = np.linspace(lo, hi, num_buckets + 1)
            self.bucket_of = np.clip(
                np.searchsorted(self._edges, scores, side="right") - 1, 0, num_buckets - 1
            )
        self._hottest: np.ndarray | None = None

    def bucket(self, idx: int) -> np.ndarray:
        """Rows of the regions in bucket ``idx`` (0 = coldest), ascending."""
        if not 0 <= idx < self.num_buckets:
            raise ConfigError(f"bucket {idx} out of range 0..{self.num_buckets - 1}")
        return np.flatnonzero(self.bucket_of == idx)

    def hottest_first(self) -> np.ndarray:
        """All rows, hottest bucket first, score-descending within.

        The histogram is immutable after construction, so the ranking is
        computed once, memoized and read-only.
        """
        if self._hottest is None:
            self._hottest = np.lexsort((-self._scores, -self.bucket_of))
            self._hottest.setflags(write=False)
        return self._hottest

    def coldest_first(self) -> np.ndarray:
        """All rows, coldest bucket first, score-ascending within."""
        return self.hottest_first()[::-1]

    def bucket_counts(self) -> np.ndarray:
        """Regions per bucket, index 0 = coldest."""
        return np.bincount(self.bucket_of, minlength=self.num_buckets).astype(np.int64)

    def bucket_index(self, row: int) -> int:
        """Bucket of the region in row ``row``."""
        return int(self.bucket_of[row])
