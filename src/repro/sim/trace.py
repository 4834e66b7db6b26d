"""Access-batch representation.

A workload's activity during one profiling interval is summarised as a
page-indexed histogram: which pages were touched, how many times, how many
of those were writes, and which socket issued most of the accesses.  This
is the only interface between workloads and the rest of the simulator, so
profilers cannot cheat — they see the same PTE bits and counter samples the
real mechanisms would.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro import nputil

from repro.errors import WorkloadError
from repro.units import PAGE_SIZE


@dataclass
class AccessBatch:
    """Page-access histogram for one profiling interval.

    Attributes:
        pages: unique virtual page numbers touched (ascending).
        counts: accesses per page (>= 1 each).
        writes: write accesses per page (0 <= writes <= counts).
        sockets: dominant accessing socket per page (-1 when unattributed).
    """

    pages: np.ndarray
    counts: np.ndarray
    writes: np.ndarray
    sockets: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        self.pages = np.asarray(self.pages, dtype=np.int64)
        self.counts = np.asarray(self.counts, dtype=np.int64)
        self.writes = np.asarray(self.writes, dtype=np.int64)
        if self.sockets is None:
            self.sockets = np.zeros(self.pages.shape, dtype=np.int8)
        else:
            self.sockets = np.asarray(self.sockets, dtype=np.int8)
        if not (self.pages.shape == self.counts.shape == self.writes.shape == self.sockets.shape):
            raise WorkloadError("pages/counts/writes/sockets shapes differ")
        _check_rows(self.pages, self.counts, self.writes)

    # -- constructors --------------------------------------------------------

    @classmethod
    def empty(cls) -> "AccessBatch":
        return cls(
            pages=np.empty(0, dtype=np.int64),
            counts=np.empty(0, dtype=np.int64),
            writes=np.empty(0, dtype=np.int64),
            sockets=np.empty(0, dtype=np.int8),
        )

    @classmethod
    def from_accesses(
        cls,
        accessed_pages: np.ndarray,
        is_write: np.ndarray | None = None,
        socket: int = 0,
    ) -> "AccessBatch":
        """Build a batch from a raw (possibly repeating) access sequence.

        Args:
            accessed_pages: page number of each access, in any order.
            is_write: per-access write flag (all reads if omitted).
            socket: socket to attribute every access to.
        """
        accessed_pages = np.asarray(accessed_pages, dtype=np.int64)
        if accessed_pages.size == 0:
            return cls.empty()
        if is_write is None:
            is_write = np.zeros(accessed_pages.shape, dtype=bool)
        is_write = np.asarray(is_write, dtype=bool)
        if is_write.shape != accessed_pages.shape:
            raise WorkloadError("is_write shape mismatch")
        pages, inverse = nputil.unique_inverse(accessed_pages)
        counts = np.bincount(inverse, minlength=pages.size).astype(np.int64)
        writes = np.bincount(inverse, weights=is_write.astype(np.float64), minlength=pages.size)
        return cls(
            pages=pages,
            counts=counts,
            writes=writes.astype(np.int64),
            sockets=np.full(pages.shape, socket, dtype=np.int8),
        )

    @classmethod
    def merge(cls, batches: list["AccessBatch"]) -> "AccessBatch":
        """Combine batches (e.g. per-thread) into one histogram.

        The dominant socket of a page is the socket contributing the most
        accesses to it across the merged batches (the lowest such socket
        on ties).
        """
        batches = [b for b in batches if b.pages.size]
        if not batches:
            return cls.empty()
        return cls.merge_parts(
            np.concatenate([b.pages for b in batches]),
            np.concatenate([b.counts for b in batches]),
            np.concatenate([b.writes for b in batches]),
            np.concatenate([b.sockets for b in batches]),
            [b.pages.size for b in batches],
        )

    @classmethod
    def merge_parts(
        cls,
        pages: np.ndarray,
        counts: np.ndarray,
        writes: np.ndarray,
        sockets: np.ndarray,
        lengths: list[int],
    ) -> "AccessBatch":
        """Merge histograms laid end to end, part ``i`` being the next
        ``lengths[i]`` (>= 1) rows of the int64 columns and int8
        ``sockets``.

        Each part is checked as the constructor checks a batch; parts
        may share pages.  A page's counts and writes sum over its parts,
        and its socket is the one contributing the most accesses, the
        lowest such socket on ties.
        """
        if pages.size == 0:
            return cls.empty()
        _check_rows(pages, counts, writes, np.cumsum(lengths)[:-1])
        # One stable sort by (page, socket): sockets are int8, so
        # ``page * 256 + socket`` orders rows by page, then socket.  Each
        # part is already ascending, so the sort merges runs.
        key = pages * 256 + sockets
        order = np.argsort(key, kind="stable")
        # Sum each (page, socket) pair's rows, then each page's pairs.
        pair = _run_starts(key[order])
        rows = order[pair]
        pair_pages, pair_sockets = pages[rows], sockets[rows]
        contrib = np.add.reduceat(counts[order], pair)
        pair_writes = np.add.reduceat(writes[order], pair)
        first = _run_starts(pair_pages)
        if first.size == pair.size:
            # No page has rows from two sockets.
            return cls(pages=pair_pages, counts=contrib, writes=pair_writes,
                       sockets=pair_sockets)
        # A page's pairs ascend by socket, so its first pair at the
        # maximum holds the lowest of the tied sockets.
        best = np.maximum.reduceat(contrib, first)
        at_max = contrib == np.repeat(best, np.diff(first, append=contrib.size))
        winner = np.minimum.reduceat(
            np.where(at_max, np.arange(contrib.size), contrib.size), first
        )
        return cls(
            pages=pair_pages[first],
            counts=np.add.reduceat(contrib, first),
            writes=np.add.reduceat(pair_writes, first),
            sockets=pair_sockets[winner],
        )

    # -- queries --------------------------------------------------------------

    @property
    def total_accesses(self) -> int:
        return int(self.counts.sum())

    @property
    def total_writes(self) -> int:
        return int(self.writes.sum())

    @property
    def total_reads(self) -> int:
        return self.total_accesses - self.total_writes

    @property
    def touched_pages(self) -> int:
        return int(self.pages.size)

    @property
    def touched_bytes(self) -> int:
        return self.touched_pages * PAGE_SIZE

    def write_ratio(self) -> float:
        """Fraction of accesses that are writes (0 when batch is empty)."""
        total = self.total_accesses
        if total == 0:
            return 0.0
        return self.total_writes / total

    def restrict(self, lo: int, hi: int) -> "AccessBatch":
        """Sub-batch covering pages in [lo, hi)."""
        mask = (self.pages >= lo) & (self.pages < hi)
        return AccessBatch(
            pages=self.pages[mask],
            counts=self.counts[mask],
            writes=self.writes[mask],
            sockets=self.sockets[mask],
        )

    def hot_pages(self, top_fraction: float) -> np.ndarray:
        """The most-accessed ``top_fraction`` of touched pages.

        Utility for building ground-truth hot sets in tests; workloads
        usually provide exact hot sets instead.
        """
        if not 0.0 < top_fraction <= 1.0:
            raise WorkloadError(f"top_fraction must be in (0, 1], got {top_fraction}")
        if self.pages.size == 0:
            return np.empty(0, dtype=np.int64)
        k = max(1, int(round(self.pages.size * top_fraction)))
        order = np.argsort(self.counts, kind="stable")[::-1]
        return np.sort(self.pages[order[:k]])


def _run_starts(values: np.ndarray) -> np.ndarray:
    """Index of the first element of each run of equal ``values``."""
    starts = np.empty(values.size, dtype=bool)
    starts[0] = True
    np.not_equal(values[1:], values[:-1], out=starts[1:])
    return np.flatnonzero(starts)


def _check_rows(
    pages: np.ndarray,
    counts: np.ndarray,
    writes: np.ndarray,
    restarts: np.ndarray | None = None,
) -> None:
    """Reject columns that are not a valid histogram.

    Pages must ascend strictly, except that each index in ``restarts``
    begins a new part; every count must be >= 1 and every write count
    in ``[0, count]``.
    """
    if pages.size == 0:
        return
    ascending = np.diff(pages) > 0
    if restarts is not None:
        ascending[restarts - 1] = True
    if not np.all(ascending):
        raise WorkloadError("pages must be strictly ascending (unique)")
    if np.any(counts < 1):
        raise WorkloadError("every listed page needs >= 1 access")
    if np.any(writes < 0) or np.any(writes > counts):
        raise WorkloadError("writes must satisfy 0 <= writes <= counts")
