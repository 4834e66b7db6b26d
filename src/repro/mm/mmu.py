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
see consistent state).  Its interval state is a compact entry histogram:
the ascending unique leaf entries the current batch touched, their
access and write counts, and the socket of each entry's last page.
Every reader answers with one ``np.searchsorted`` lookup into it, so the
MMU holds O(touched entries), not O(address space), on dense and
chunked page tables alike.
"""

from __future__ import annotations

import numpy as np

from repro import kernels
from repro.errors import ConfigError
from repro.mm.pagetable import PageTable
from repro.mm.pte import PteFlag
from repro.sim.trace import AccessBatch

_NO_ENTRIES = np.empty(0, dtype=np.int64)
_NO_SOCKETS = np.empty(0, dtype=np.int8)


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
        # The current interval's entry histogram (huge pages aggregate
        # onto heads): ascending unique entries and, per entry, the
        # access count, write count and socket of its last page.
        self._hist_entries = _NO_ENTRIES
        self._hist_counts = _NO_ENTRIES
        self._hist_writes = _NO_ENTRIES
        self._hist_sockets = _NO_SOCKETS
        self.interval_index = -1
        self._current_batch: AccessBatch | None = None

    # -- interval lifecycle --------------------------------------------------

    def begin_interval(self, batch: AccessBatch) -> None:
        """Install ``batch`` as the current interval's activity.

        Sets PTE access/dirty bits for touched entries and replaces the
        interval histogram that scan/sample primitives read.
        """
        if batch.pages.size and np.any(batch.sockets >= self.num_sockets):
            raise ConfigError("batch attributes accesses to a nonexistent socket")
        self._current_batch = batch
        self.interval_index += 1
        entries = self.page_table.entry_index(batch.pages)
        if entries.size == 0:
            hist = (_NO_ENTRIES, _NO_ENTRIES, _NO_ENTRIES, _NO_SOCKETS)
        else:
            # Strictly-ascending unique pages (checked by AccessBatch)
            # give non-decreasing entries, so the histogram is one pass
            # of run sums, fused with the PTE access/dirty bits.
            hist = kernels.mmu_ingest(
                entries,
                batch.counts,
                batch.writes,
                batch.sockets,
                self.page_table.flags,
                int(PteFlag.ACCESSED),
                int(PteFlag.DIRTY),
            )
        (self._hist_entries, self._hist_counts,
         self._hist_writes, self._hist_sockets) = hist

    @property
    def current_batch(self) -> AccessBatch:
        """The batch installed by the last :meth:`begin_interval`."""
        if self._current_batch is None:
            raise ConfigError("no interval has begun")
        return self._current_batch

    def release_batch(self) -> None:
        """Drop the reference to the current interval's batch.

        The engine calls this once every consumer of the interval's
        activity (cost model, PCM, profilers, PEBS) has run, so peak RSS
        stays O(one interval's touched pages) regardless of run length
        or footprint.  The entry histogram stays until the next
        :meth:`begin_interval` replaces it, and readers called in
        between still see this interval.  The histogram may share the
        batch's count, write and socket arrays (the kernel path returns
        them as-is when every touched entry is distinct: THP off, or
        base pages only); those are reclaimed when the next
        :meth:`begin_interval` replaces the histogram.
        """
        self._current_batch = None

    # -- profiler primitives --------------------------------------------------

    def _lookup(self, values: np.ndarray, entries, default: int) -> np.ndarray:
        """``values`` of the histogram slot of each entry; ``default`` for
        entries this interval did not touch."""
        entries = np.asarray(entries, dtype=np.int64)
        if entries.size and (
            entries.min() < 0 or entries.max() >= self.page_table.n_pages
        ):
            raise IndexError(
                f"entry outside the address space of {self.page_table.n_pages} pages"
            )
        hist = self._hist_entries
        if hist.size == 0:
            return np.full(entries.shape, default, dtype=values.dtype)
        slot = np.searchsorted(hist, entries)
        np.minimum(slot, hist.size - 1, out=slot)
        return np.where(hist[slot] == entries, values[slot], default)

    def entry_count(self, entries: np.ndarray) -> np.ndarray:
        """Exact access count of ``entries`` this interval (oracle; used by
        ground-truth metrics, not by profilers)."""
        return self._lookup(self._hist_counts, entries, 0)

    def entry_write_count(self, entries: np.ndarray) -> np.ndarray:
        """Exact write count of ``entries`` this interval."""
        return self._lookup(self._hist_writes, entries, 0)

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
        if num_scans < 1:
            raise ConfigError(f"num_scans must be >= 1, got {num_scans}")
        if not 0.0 < count_scale <= 1.0:
            raise ConfigError(f"count_scale must be in (0, 1], got {count_scale}")
        if exposure is None:
            exposure = 1.0 / num_scans
        if not 0.0 < exposure <= 1.0:
            raise ConfigError(f"exposure must be in (0, 1], got {exposure}")
        counts = self.entry_count(entries)
        k = counts.astype(np.float64)
        if count_scale < 1.0:
            k = rng.binomial(counts, count_scale).astype(np.float64)
        p_scan = 1.0 - np.exp(-k * exposure)
        return rng.binomial(num_scans, p_scan).astype(np.int64)

    def fault_detect(self, entries: np.ndarray) -> np.ndarray:
        """Single-shot fault-based detection (Thermostat / AutoNUMA style).

        A protection- or hint-fault profiler arms the entry once and learns
        only whether it was touched, i.e. the ``num_scans == 1`` semantics.
        """
        return (self.entry_count(entries) >= 1).astype(np.int64)

    def accessor_socket(self, entries: np.ndarray) -> np.ndarray:
        """Dominant accessing socket per entry this interval (-1 if untouched).

        This is what a hint fault reveals: which CPU touched the page.
        """
        return self._lookup(self._hist_sockets, entries, -1)

    def write_happened(self, entries: np.ndarray) -> np.ndarray:
        """Whether each entry received any write this interval.

        Used by the adaptive migration mechanism's dirtiness tracking.
        """
        return self.entry_write_count(entries) >= 1
