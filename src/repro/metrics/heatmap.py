"""Access heatmaps over (address, time) — Fig. 6.

The paper visualizes where a profiler *believes* accesses happen versus
where they actually happen, across the virtual address space and time.
:class:`AccessHeatmap` accumulates either ground-truth batches or a
profiler's per-region scores into a 2-D grid that renders as ASCII art or
exports as a numpy array for plotting.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError
from repro.profile.base import ProfileSnapshot
from repro.sim.trace import AccessBatch

#: Glyph ramp from cold to hot for ASCII rendering.
_RAMP = " .:-=+*#%@"


class AccessHeatmap:
    """(time x address) intensity grid.

    Args:
        n_pages: size of the tracked address range in pages.
        address_bins: columns (address resolution).
        max_intervals: rows retained (grows dynamically up to this).
    """

    def __init__(self, n_pages: int, address_bins: int = 96, max_intervals: int = 512) -> None:
        if n_pages < 1:
            raise ConfigError(f"n_pages must be >= 1, got {n_pages}")
        if address_bins < 1 or max_intervals < 1:
            raise ConfigError("address_bins and max_intervals must be >= 1")
        self.n_pages = n_pages
        self.address_bins = address_bins
        self.max_intervals = max_intervals
        self._rows: list[np.ndarray] = []

    def record_batch(self, batch: AccessBatch) -> None:
        """Append one interval of ground-truth access counts."""
        row = np.zeros(self.address_bins, dtype=np.float64)
        if batch.pages.size:
            bins = (batch.pages * self.address_bins // self.n_pages).astype(np.int64)
            bins = np.clip(bins, 0, self.address_bins - 1)
            np.add.at(row, bins, batch.counts.astype(np.float64))
        self._append(row)

    def record_snapshot(self, snapshot: ProfileSnapshot) -> None:
        """Append one interval of a profiler's believed hotness."""
        row = np.zeros(self.address_bins, dtype=np.float64)
        bins = self.address_bins
        for start, end, score in zip(snapshot.start.tolist(),
                                     (snapshot.start + snapshot.npages).tolist(),
                                     snapshot.score.tolist()):
            lo = start * bins // self.n_pages
            hi = max(lo + 1, end * bins // self.n_pages)
            row[lo : min(hi, bins)] += score
        self._append(row)

    def _append(self, row: np.ndarray) -> None:
        if len(self._rows) >= self.max_intervals:
            self._rows.pop(0)
        self._rows.append(row)

    def grid(self) -> np.ndarray:
        """The (intervals x address_bins) intensity matrix."""
        if not self._rows:
            return np.zeros((0, self.address_bins))
        return np.vstack(self._rows)

    def render(self, height: int = 24) -> str:
        """ASCII heatmap, newest interval at the bottom."""
        grid = self.grid()
        if grid.size == 0:
            return "(empty heatmap)"
        # Downsample rows to the requested height.
        if grid.shape[0] > height:
            idx = np.linspace(0, grid.shape[0] - 1, height).astype(np.int64)
            grid = grid[idx]
        peak = grid.max()
        if peak <= 0:
            peak = 1.0
        levels = np.clip((grid / peak) ** 0.5 * (len(_RAMP) - 1), 0, len(_RAMP) - 1)
        lines = ["".join(_RAMP[int(v)] for v in row) for row in levels]
        border = "+" + "-" * self.address_bins + "+"
        return "\n".join([border] + ["|" + line + "|" for line in lines] + [border])
