"""MMU model: applies access batches to the page table.

The MMU is where the simulator's statistical detection model lives.  A
real MMU sets the PTE access bit on the first touch after each profiler
reset, so one scan observes "was this entry accessed since my last
reset" — a *window* of the interval.  How large that window is decides
everything about profiling quality:

* a profiler whose checks are **spread evenly** over the interval (DAMON's
  sampling) exposes each check to ``1/num_scans`` of the interval's
  accesses.  On a 2 MB huge-page entry even cold data accumulates several
  accesses per window, the bit is always set, and hot cannot be told from
  cold — the access-bit *saturation* behind DAMON's ~50% hot-page
  accuracy in the paper's Fig. 1;
* MTM's multi-scans run **back-to-back within the profiling pass**, whose
  duration is the overhead budget: each scan's window exposes only
  ``overhead_constraint / num_scans`` of the interval (~0.17 s of a 10 s
  interval at 5%).  Detection becomes rate-sensitive and a hot entry
  (tens of accesses per window) separates cleanly from a cold one.

Given an entry's interval access count ``k`` and a per-scan ``exposure``
(fraction of the interval one scan's window covers), the probability a
scan sees the bit set is ``p = 1 - exp(-k * exposure)`` (Poisson-uniform
access arrivals), and the detected count is Binomial(num_scans, p).

The MMU also maintains the PTE access/dirty bits themselves (so mechanisms
that read real bits — dirtiness tracking during migration, hint faults —
see consistent state) and cumulative per-page counters used as ground truth
by the profiling-quality metrics.
"""

from __future__ import annotations

import numpy as np

from repro import kernels, perfflags
from repro.errors import ConfigError
from repro.mm.chunked import ChunkedArray
from repro.mm.pagetable import PageTable
from repro.mm.pte import PteFlag
from repro.sim.trace import AccessBatch


def _add_at(arr, idx: np.ndarray, vals: np.ndarray) -> None:
    """``np.add.at`` over either storage layout."""
    if isinstance(arr, ChunkedArray):
        arr.add_at(idx, vals)
    else:
        np.add.at(arr, idx, vals)


class Mmu:
    """Applies workload access batches to a page table.

    Args:
        page_table: the leaf table whose bits this MMU sets.
        num_sockets: sockets in the machine (for attribution bounds checks).
    """

    def __init__(self, page_table: PageTable, num_sockets: int = 1) -> None:
        if num_sockets < 1:
            raise ConfigError(f"num_sockets must be >= 1, got {num_sockets}")
        self.page_table = page_table
        self.num_sockets = num_sockets
        n = page_table.n_pages
        # Entry-granularity interval state (huge pages aggregate onto
        # heads).  Chunked page tables get chunked MMU state too — these
        # five arrays are the other O(n_pages) allocations per space.
        if page_table.chunked:
            cp = page_table.chunk_pages
            self._entry_counts = ChunkedArray(n, np.int64, 0, cp)
            self._entry_writes = ChunkedArray(n, np.int64, 0, cp)
            self._entry_socket = ChunkedArray(n, np.int8, -1, cp)
            self.cumulative_counts = ChunkedArray(n, np.int64, 0, cp)
            self.cumulative_writes = ChunkedArray(n, np.int64, 0, cp)
        else:
            self._entry_counts = np.zeros(n, dtype=np.int64)
            self._entry_writes = np.zeros(n, dtype=np.int64)
            self._entry_socket = np.full(n, -1, dtype=np.int8)
            # Base-page-granularity ground truth.
            self.cumulative_counts = np.zeros(n, dtype=np.int64)
            self.cumulative_writes = np.zeros(n, dtype=np.int64)
        self.interval_index = -1
        self._current_batch: AccessBatch | None = None
        self._touched_entries: np.ndarray | None = None

    # -- interval lifecycle --------------------------------------------------

    def begin_interval(self, batch: AccessBatch) -> None:
        """Install ``batch`` as the current interval's activity.

        Sets PTE access/dirty bits for touched entries and refreshes the
        interval histograms that scan/sample primitives read.
        """
        if batch.pages.size and np.any(batch.sockets >= self.num_sockets):
            raise ConfigError("batch attributes accesses to a nonexistent socket")
        if perfflags.vectorized():
            # Scatter-reset: only the entries the previous interval touched
            # are non-default, so resetting just those is bit-identical to
            # (and far cheaper than) three full-array fills.
            touched = self._touched_entries
            if touched is not None and touched.size:
                kernels.mmu_scatter_reset(
                    touched,
                    self._entry_counts,
                    self._entry_writes,
                    self._entry_socket,
                )
        else:
            self._entry_counts.fill(0)
            self._entry_writes.fill(0)
            self._entry_socket.fill(-1)
        self._touched_entries = None
        self._current_batch = batch
        self.interval_index += 1
        if batch.pages.size == 0:
            return

        entries = self.page_table.entry_index(batch.pages)
        self._touched_entries = entries
        if perfflags.vectorized() and (
            batch.pages.size < 2 or np.all(batch.pages[1:] > batch.pages[:-1])
        ):
            # Strictly-ascending unique pages (the AccessBatch histogram
            # invariant): one fused pass of per-entry run sums (every slot
            # summed into is zero after the reset above, so assignment
            # equals ``np.add.at``), socket attribution, PTE access/dirty
            # bits, and cumulative ground truth.
            kernels.mmu_ingest(
                entries,
                batch.counts,
                batch.writes,
                batch.sockets,
                batch.pages,
                self._entry_counts,
                self._entry_writes,
                self._entry_socket,
                self.page_table.flags,
                self.cumulative_counts,
                self.cumulative_writes,
                int(PteFlag.ACCESSED),
                int(PteFlag.DIRTY),
            )
            return
        _add_at(self._entry_counts, entries, batch.counts)
        _add_at(self._entry_writes, entries, batch.writes)
        # Dominant socket per entry: last writer wins among equal pages is
        # acceptable because batches already carry per-page dominants.
        self._entry_socket[entries] = batch.sockets

        self.page_table.set_accessed(entries, written=batch.writes > 0)
        _add_at(self.cumulative_counts, batch.pages, batch.counts)
        _add_at(self.cumulative_writes, batch.pages, batch.writes)

    @property
    def current_batch(self) -> AccessBatch:
        """The batch installed by the last :meth:`begin_interval`."""
        if self._current_batch is None:
            raise ConfigError("no interval has begun")
        return self._current_batch

    def release_batch(self) -> None:
        """Drop the reference to the current interval's batch.

        The engine calls this once every consumer of the interval's
        activity (cost model, PCM, profilers, PEBS) has run, so the
        arrays can be reclaimed and peak RSS stays O(one interval's
        touched pages) regardless of run length or footprint.  The
        touched-entry set survives — the next :meth:`begin_interval`
        still needs it for the scatter-reset.
        """
        self._current_batch = None

    # -- profiler primitives --------------------------------------------------

    def entry_count(self, entries: np.ndarray) -> np.ndarray:
        """Exact access count of ``entries`` this interval (oracle; used by
        ground-truth metrics, not by profilers)."""
        return self._entry_counts[np.asarray(entries, dtype=np.int64)]

    def entry_write_count(self, entries: np.ndarray) -> np.ndarray:
        """Exact write count of ``entries`` this interval."""
        return self._entry_writes[np.asarray(entries, dtype=np.int64)]

    def scan_detect(
        self,
        entries: np.ndarray,
        num_scans: int,
        rng: np.random.Generator,
        exposure: float | None = None,
        count_scale: float = 1.0,
    ) -> np.ndarray:
        """Access counts a ``num_scans``-scan profiler observes on ``entries``.

        Returns integers in ``[0, num_scans]`` per entry, drawn from the
        exposure model described in the module docstring.  The scan *cost*
        is charged separately by the cost model; call this once per entry
        per interval.

        Args:
            exposure: fraction of the interval's accesses one scan window
                covers.  ``None`` means evenly spread checks
                (``1 / num_scans`` — the saturating DAMON behaviour);
                burst-scanning profilers pass their pass-duration fraction.
            count_scale: fraction of the entry's accesses visible to the
                profiler.  Thermostat estimates a 2 MB huge page's hotness
                from one of its 4 KB slices, i.e. sees ~1/512 of the
                accesses (Sec. 5.4); that information loss is this knob.
        """
        entries = np.asarray(entries, dtype=np.int64)
        if num_scans < 1:
            raise ConfigError(f"num_scans must be >= 1, got {num_scans}")
        if not 0.0 < count_scale <= 1.0:
            raise ConfigError(f"count_scale must be in (0, 1], got {count_scale}")
        if exposure is None:
            exposure = 1.0 / num_scans
        if not 0.0 < exposure <= 1.0:
            raise ConfigError(f"exposure must be in (0, 1], got {exposure}")
        k = self._entry_counts[entries].astype(np.float64)
        if count_scale < 1.0:
            k = rng.binomial(self._entry_counts[entries], count_scale).astype(np.float64)
        p_scan = 1.0 - np.exp(-k * exposure)
        return rng.binomial(num_scans, p_scan).astype(np.int64)

    def fault_detect(self, entries: np.ndarray) -> np.ndarray:
        """Single-shot fault-based detection (Thermostat / AutoNUMA style).

        A protection- or hint-fault profiler arms the entry once and learns
        only whether it was touched, i.e. the ``num_scans == 1`` semantics.
        """
        entries = np.asarray(entries, dtype=np.int64)
        return (self._entry_counts[entries] >= 1).astype(np.int64)

    def accessor_socket(self, entries: np.ndarray) -> np.ndarray:
        """Dominant accessing socket per entry this interval (-1 if untouched).

        This is what a hint fault reveals: which CPU touched the page.
        """
        return self._entry_socket[np.asarray(entries, dtype=np.int64)]

    def write_happened(self, entries: np.ndarray) -> np.ndarray:
        """Whether each entry received any write this interval.

        Used by the adaptive migration mechanism's dirtiness tracking.
        """
        entries = np.asarray(entries, dtype=np.int64)
        return self._entry_writes[entries] >= 1
