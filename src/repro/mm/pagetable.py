"""Array-backed leaf page table for one address space.

The table stores, for every base (4 KB) virtual page, the component (NUMA
node) holding its frame and a :class:`~repro.mm.pte.PteFlag` bitfield.  Huge
pages are spans of :data:`~repro.units.PAGES_PER_HUGE_PAGE` aligned base
pages that all carry the HUGE flag; their access/dirty bits live on the
*head* page only, mirroring how a PMD-mapped huge page has a single entry.

Everything is vectorized over numpy arrays: a profiler scanning ten
thousand PTEs performs one array operation, which is what keeps simulating
hundreds of thousands of pages tractable.

Two storage layouts back the per-page state.  Small spaces use dense
numpy arrays.  Spaces at or above :data:`AUTO_CHUNK_PAGES` pages (or any
space constructed with ``chunked=True``) use
:class:`~repro.mm.chunked.ChunkedArray` segments so a sparse
hundreds-of-GB address space only materializes the chunks it touches;
the choice is invisible above the ``PageTable`` API and bit-identical.
Both layouts store the page->entry map in one encoding, an ``int16``
delta from the identity (0 for base pages, ``-(page % 512)`` inside a
huge span, so ``entry = page + delta[page]``).  A dense table therefore
holds 6 bytes per page (``uint16`` flags, ``int16`` node, ``int16``
delta), and in a chunked table an untouched chunk of any of the three
costs nothing.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from repro import kernels
from repro.errors import ConfigError, TranslationError
from repro.mm.chunked import DEFAULT_CHUNK_PAGES, ChunkedArray
from repro.mm.layout import PageTableGeometry, X86_64_GEOMETRY
from repro.mm.pte import ACCESSED_MASK, DIRTY_MASK, HUGE_MASK, PRESENT_MASK, PteFlag
from repro.units import PAGES_PER_HUGE_PAGE

_UNMAPPED_NODE = -1

#: Spaces at least this large default to chunked storage (4 Mi pages =
#: 16 GB of 4 KB pages — past the regime where dense arrays are cheap).
AUTO_CHUNK_PAGES = 1 << 22

#: True inside :func:`chunked_mode`.
_FORCE_CHUNKED = False


@contextmanager
def chunked_mode():
    """Run a block in which every new :class:`PageTable` built with
    ``chunked=None`` is chunked, whatever its size.

    Storage layout is bit-identical either way; this is how the
    differential suites exercise chunked storage on small spaces.  The
    override is process-global, so pool workers forked inside the block
    inherit it.
    """
    global _FORCE_CHUNKED
    prev, _FORCE_CHUNKED = _FORCE_CHUNKED, True
    try:
        yield
    finally:
        _FORCE_CHUNKED = prev


#: Pages a chunked span_entries() resolves per pass (~1.5 MB of temporaries).
_SPAN_WINDOW_PAGES = 1 << 16

#: Entry deltas of 64 huge spans, ``-(page % 512)`` (64 KB): huge mappings
#: are written in pieces of this pattern, so no temporary is built.
_HUGE_ENTRY_DELTAS = np.tile(-np.arange(PAGES_PER_HUGE_PAGE, dtype=np.int16), 64)


class PageTable:
    """Leaf page-table state for ``n_pages`` of virtual address space.

    Args:
        n_pages: size of the virtual space in base pages.
        geometry: radix geometry, used for table-page counting.
        chunked: force chunked (True) or dense (False) storage; ``None``
            picks dense below :data:`AUTO_CHUNK_PAGES` pages and chunked
            at or above it (or inside :func:`chunked_mode`).
        chunk_pages: chunk length for chunked storage; must be a power
            of two and a multiple of :data:`PAGES_PER_HUGE_PAGE`.
    """

    def __init__(
        self,
        n_pages: int,
        geometry: PageTableGeometry = X86_64_GEOMETRY,
        chunked: bool | None = None,
        chunk_pages: int | None = None,
    ) -> None:
        if n_pages < 1:
            raise ConfigError(f"n_pages must be >= 1, got {n_pages}")
        self.n_pages = n_pages
        self.geometry = geometry
        if chunked is None:
            chunked = _FORCE_CHUNKED or n_pages >= AUTO_CHUNK_PAGES
        self.chunked = bool(chunked)
        self.chunk_pages = int(chunk_pages) if chunk_pages else DEFAULT_CHUNK_PAGES
        if self.chunk_pages % PAGES_PER_HUGE_PAGE:
            raise ConfigError(
                f"chunk_pages {self.chunk_pages} not a multiple of {PAGES_PER_HUGE_PAGE}"
            )
        if self.chunked:
            self.flags = ChunkedArray(n_pages, np.uint16, 0, self.chunk_pages)
            self.node = ChunkedArray(n_pages, np.int16, _UNMAPPED_NODE, self.chunk_pages)
        else:
            self.flags = np.zeros(n_pages, dtype=np.uint16)
            self.node = np.full(n_pages, _UNMAPPED_NODE, dtype=np.int16)
        # Cached run-length encoding of ``node`` and the page ranges
        # placement changed in since it was built; see node_runs().
        self._node_rle: tuple[np.ndarray, np.ndarray] | None = None
        self._node_dirty: list[tuple[int, int]] = []
        # Page -> leaf-entry map as an int16 delta from the identity (0
        # everywhere until a huge mapping appears), maintained on huge
        # collapse/split so entry_index() is one gather and one add.
        if self.chunked:
            self._entry_delta = ChunkedArray(n_pages, np.int16, 0, self.chunk_pages)
        else:
            self._entry_delta = np.zeros(n_pages, dtype=np.int16)
        # Entry-map change tracking: every mutation of the map (huge
        # map/unmap/collapse/split) bumps the version and records the
        # dirtied span, so incremental consumers (the MTM profiler's
        # per-region entry cache) invalidate exactly the regions whose
        # page->entry resolution may have changed instead of recomputing
        # the whole footprint every interval.
        self._entry_change_version = 0
        self._entry_dirty: list[tuple[int, int, int]] = []  # (version, start, end)

    # -- mapping ---------------------------------------------------------------

    def map_range(self, start: int, npages: int, node: int, huge: bool = False) -> None:
        """Map ``npages`` pages starting at ``start`` onto component ``node``.

        Args:
            start: first virtual page number.
            npages: number of base pages.
            node: destination component node id (>= 0).
            huge: map as 2 MB huge pages; requires huge alignment of both
                ``start`` and ``npages``.
        """
        self._check_range(start, npages)
        if node < 0:
            raise ConfigError(f"invalid node {node}")
        sl = slice(start, start + npages)
        if self.chunked:
            mapped = self.flags.any_and(PRESENT_MASK, start, start + npages)
        else:
            mapped = np.any(self.flags[sl] & PRESENT_MASK)
        if mapped:
            raise TranslationError(f"range [{start}, {start + npages}) already mapped")
        base = np.uint16(PteFlag.default_mapped())
        if huge:
            if start % PAGES_PER_HUGE_PAGE or npages % PAGES_PER_HUGE_PAGE:
                raise ConfigError(
                    f"huge mapping [{start}, {start + npages}) is not 2MB-aligned"
                )
            base |= HUGE_MASK
        self.flags[sl] = base
        self.node[sl] = node
        self._mark_nodes_dirty(start, start + npages)
        if huge:
            self._entry_mark_huge(start, start + npages)

    def unmap_range(self, start: int, npages: int) -> None:
        """Remove the mapping for ``npages`` pages starting at ``start``."""
        self._check_range(start, npages)
        sl = slice(start, start + npages)
        if not np.all(self.flags[sl] & PRESENT_MASK):
            raise TranslationError(f"range [{start}, {start + npages}) not fully mapped")
        heads = self._partial_huge_heads(start, npages)
        if heads.size:
            raise TranslationError(
                f"unmap [{start}, {start + npages}) would tear huge pages at {heads[:4]}"
            )
        self.flags[sl] = 0
        self.node[sl] = _UNMAPPED_NODE
        self._mark_nodes_dirty(start, start + npages)
        self._entry_mark_identity(start, start + npages)

    def is_mapped(self, pages: np.ndarray | int) -> np.ndarray | bool:
        """Presence test for one page or an array of pages."""
        present = (self.flags[pages] & PRESENT_MASK) != 0
        if np.isscalar(pages) or isinstance(pages, (int, np.integer)):
            return bool(present)
        return present

    def node_of(self, pages: np.ndarray | int) -> np.ndarray | int:
        """Component node holding each page (-1 if unmapped)."""
        nodes = self.node[pages]
        if np.isscalar(pages) or isinstance(pages, (int, np.integer)):
            return int(nodes)
        return nodes

    def move_pages(self, pages: np.ndarray, dst_node: int) -> None:
        """Retarget mapped pages to ``dst_node`` (the remap step of migration)."""
        pages = np.asarray(pages, dtype=np.int64)
        if dst_node < 0:
            raise ConfigError(f"invalid node {dst_node}")
        if not np.all((self.flags[pages] & PRESENT_MASK) != 0):
            raise TranslationError("move_pages on unmapped page(s)")
        self.node[pages] = dst_node
        if pages.size:
            self._mark_nodes_dirty(int(pages.min()), int(pages.max()) + 1)

    # -- huge pages --------------------------------------------------------------

    def is_huge(self, pages: np.ndarray | int) -> np.ndarray | bool:
        """Whether each page is part of a huge mapping."""
        huge = (self.flags[pages] & HUGE_MASK) != 0
        if np.isscalar(pages) or isinstance(pages, (int, np.integer)):
            return bool(huge)
        return huge

    def collapse_huge(self, head: int) -> None:
        """Collapse the aligned 2 MB span at ``head`` into a huge mapping.

        All base pages must be mapped on the same node (khugepaged's
        precondition).
        """
        if head % PAGES_PER_HUGE_PAGE:
            raise ConfigError(f"head {head} not huge-aligned")
        self._check_range(head, PAGES_PER_HUGE_PAGE)
        sl = slice(head, head + PAGES_PER_HUGE_PAGE)
        if not np.all(self.flags[sl] & PRESENT_MASK):
            raise TranslationError(f"span at {head} not fully mapped")
        if np.unique(self.node[sl]).size != 1:
            raise TranslationError(f"span at {head} straddles nodes; cannot collapse")
        self.flags[sl] |= HUGE_MASK
        # Bits of the constituent pages fold into the single PMD entry.
        folded = np.uint16(0)
        if np.any(self.flags[sl] & ACCESSED_MASK):
            folded |= ACCESSED_MASK
        if np.any(self.flags[sl] & DIRTY_MASK):
            folded |= DIRTY_MASK
        self.flags[sl] &= ~(ACCESSED_MASK | DIRTY_MASK)
        self.flags[head] |= folded
        self._entry_mark_huge(head, head + PAGES_PER_HUGE_PAGE)

    def split_huge(self, head: int) -> None:
        """Split the huge mapping at ``head`` back into base PTEs.

        The PMD's access/dirty bits are inherited by every base page, which
        is what the kernel's split does (it cannot know which 4 KB piece was
        touched).
        """
        if head % PAGES_PER_HUGE_PAGE:
            raise ConfigError(f"head {head} not huge-aligned")
        if not self.is_huge(head):
            raise TranslationError(f"page {head} is not huge")
        sl = slice(head, head + PAGES_PER_HUGE_PAGE)
        inherited = self.flags[head] & (ACCESSED_MASK | DIRTY_MASK)
        self.flags[sl] &= ~HUGE_MASK
        self.flags[sl] |= inherited
        self._entry_mark_identity(head, head + PAGES_PER_HUGE_PAGE)

    @property
    def entry_version(self) -> int:
        """Monotonic counter bumped whenever the page->entry map changes."""
        return self._entry_change_version

    def entry_dirty_since(self, version: int) -> list[tuple[int, int]]:
        """Page spans whose entry resolution changed after ``version``.

        Consumers caching :meth:`entry_index` results record the
        :attr:`entry_version` they computed against and invalidate any
        cached span overlapping one of the returned ``(start, end)``
        ranges.  The log self-compacts: once it grows past a bound it is
        folded into one whole-space span (callers then do one full
        recompute, which is what they would have done pre-cache anyway).
        """
        if version >= self._entry_change_version:
            return []
        return [(s, e) for v, s, e in self._entry_dirty if v > version]

    def _mark_entries_dirty(self, start: int, end: int) -> None:
        self._entry_change_version += 1
        self._entry_dirty.append((self._entry_change_version, start, end))
        if len(self._entry_dirty) > 4096:
            self._entry_dirty = [(self._entry_change_version, 0, self.n_pages)]

    def _entry_mark_identity(self, start: int, end: int) -> None:
        """Point ``[start, end)`` back at base-page entries (delta 0)."""
        self._entry_delta[start:end] = 0
        self._mark_entries_dirty(start, end)

    def _entry_mark_huge(self, start: int, end: int) -> None:
        """Point the huge-aligned ``[start, end)`` at its span heads."""
        step = _HUGE_ENTRY_DELTAS.size
        for lo in range(start, end, step):
            hi = min(lo + step, end)
            self._entry_delta[lo:hi] = _HUGE_ENTRY_DELTAS[: hi - lo]
        self._mark_entries_dirty(start, end)

    def entry_index(self, pages: np.ndarray) -> np.ndarray:
        """The leaf entry holding each page's access/dirty bits.

        For a 4 KB page that is the page itself; for a page inside a huge
        mapping it is the huge head (the single PMD entry).
        """
        pages = np.asarray(pages, dtype=np.int64)
        return pages + self._entry_delta[pages]

    def span_entries(self, starts: np.ndarray, npages: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Unique leaf entries of many ``[start, start+npages)`` spans at once.

        Returns ``(entries, offsets)`` where span ``i``'s unique entries are
        ``entries[offsets[i]:offsets[i+1]]``, ascending — element-wise equal
        to ``np.unique(entry_index(arange(start, end)))`` per span.  Dense
        tables compute it with one gather over the concatenated spans,
        chunked tables in bounded windows.  (Within an ascending
        page range ``entry_index`` is non-decreasing because huge mappings
        are aligned spans, so first occurrences *are* the sorted uniques.)
        """
        starts = np.asarray(starts, dtype=np.int64)
        npages = np.asarray(npages, dtype=np.int64)
        if starts.size == 0:
            return np.empty(0, dtype=np.int64), np.zeros(1, dtype=np.int64)
        if self.chunked:
            return self._span_entries_chunked(starts, npages)
        return kernels.span_entries(starts, npages, self._entry_delta)

    def _span_entries_chunked(
        self, starts: np.ndarray, npages: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`span_entries` over the chunked entry-delta map.

        The spans' pages, concatenated, form one stream that is resolved
        in windows of :data:`_SPAN_WINDOW_PAGES`: each window's entries
        are ``page + delta[page]`` (a slice read when the window lies in
        one span), and an entry is kept when it starts a span or differs
        from its predecessor in the stream.  Peak allocation is one
        window plus the output, not a multiple of the total page count.
        """
        bounds = np.concatenate(([0], np.cumsum(npages)))  # span offsets in the stream
        total = int(bounds[-1])
        parts = [np.empty(0, dtype=np.int64)]
        offsets = np.empty(bounds.size, dtype=np.int64)
        kept = 0
        prev = np.int64(-1)  # entry at the stream position before the window
        for w0 in range(0, total, _SPAN_WINDOW_PAGES):
            w1 = min(w0 + _SPAN_WINDOW_PAGES, total)
            i0 = int(np.searchsorted(bounds, w0, side="right")) - 1
            i1 = int(np.searchsorted(bounds, w1, side="left"))  # spans [i0, i1) overlap
            if i1 - i0 == 1:
                p0 = int(starts[i0] + w0 - bounds[i0])
                ents = np.arange(p0, p0 + (w1 - w0), dtype=np.int64)
                ents += self._entry_delta[p0 : p0 + (w1 - w0)]
            else:
                lens = np.minimum(bounds[i0 + 1 : i1 + 1], w1) - np.maximum(bounds[i0:i1], w0)
                ents = np.arange(w0, w1, dtype=np.int64)
                ents += np.repeat(starts[i0:i1] - bounds[i0:i1], lens)
                ents += self._entry_delta[ents]
            first = np.empty(w1 - w0, dtype=bool)
            first[0] = ents[0] != prev
            np.not_equal(ents[1:], ents[:-1], out=first[1:])
            k0 = int(np.searchsorted(bounds, w0, side="left"))
            first[bounds[k0:i1] - w0] = True  # span starts in this window
            keep = np.flatnonzero(first)
            # Every span start is kept, so span k's entries begin at the
            # number of kept positions before bounds[k].
            offsets[k0:i1] = kept + np.searchsorted(keep, bounds[k0:i1] - w0)
            parts.append(ents[keep])
            kept += keep.size
            prev = ents[-1]
        offsets[np.searchsorted(bounds, total, side="left"):] = kept
        return np.concatenate(parts), offsets

    def node_runs(self) -> tuple[np.ndarray, np.ndarray]:
        """Run-length encoding of ``node``: ``(bounds, values)``.

        Run ``i`` covers pages ``[bounds[i], bounds[i+1])`` and sits on
        ``values[i]``, and adjacent runs differ in value.  Placement is
        piecewise constant (migration moves whole regions), so the
        encoding is tiny.  After mappings or migrations only the page
        ranges they touched are encoded again: the runs between those
        ranges are kept, cut at the range edges, and runs of equal value
        merge at every seam, so the result equals a full rebuild.
        """
        if self._node_rle is None:
            starts, values = self._encode_nodes(0, self.n_pages)
        elif self._node_dirty:
            bounds, old = self._node_rle
            start_parts: list = []
            value_parts: list = []
            pos = 0  # first page not yet encoded
            for lo, hi in _merge_ranges(self._node_dirty) + [(self.n_pages, self.n_pages)]:
                if pos < lo:  # the kept runs of [pos, lo)
                    a = int(np.searchsorted(bounds, pos, side="right")) - 1
                    b = int(np.searchsorted(bounds, lo, side="left"))
                    start_parts += [[pos], bounds[a + 1 : b]]
                    value_parts.append(old[a:b])
                if lo < hi:
                    fresh_starts, fresh_values = self._encode_nodes(lo, hi)
                    start_parts.append(fresh_starts)
                    value_parts.append(fresh_values)
                pos = hi
            starts, values = _merge_equal_runs(np.concatenate(start_parts),
                                               np.concatenate(value_parts))
        else:
            return self._node_rle
        self._node_rle = (np.append(starts, self.n_pages), values)
        self._node_dirty = []
        return self._node_rle

    def _encode_nodes(self, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
        """Run starts and values of ``node[lo:hi]``.  Chunked tables
        encode chunk by chunk, a scalar chunk contributing one candidate
        run without ever densifying."""
        if not self.chunked:
            bounds, values = kernels.node_rle(self.node[lo:hi])
            return bounds[:-1] + lo, values
        start_parts: list[np.ndarray] = []
        value_parts: list[np.ndarray] = []
        for start, end, data in self.node.chunks():
            s0, s1 = max(start, lo), min(end, hi)
            if s0 >= s1:
                continue
            if isinstance(data, np.ndarray):
                piece = data[s0 - start : s1 - start]
                first = np.concatenate(([0], np.flatnonzero(piece[1:] != piece[:-1]) + 1))
                start_parts.append(s0 + first)
                value_parts.append(piece[first].astype(np.int64))
            else:
                start_parts.append(np.array([s0], dtype=np.int64))
                value_parts.append(np.array([data], dtype=np.int64))
        return _merge_equal_runs(np.concatenate(start_parts), np.concatenate(value_parts))

    def _mark_nodes_dirty(self, start: int, end: int) -> None:
        """Record that the node of pages ``[start, end)`` may have changed."""
        self._node_dirty.append((start, end))

    def span_majority_nodes(self, starts: np.ndarray, npages: np.ndarray) -> np.ndarray:
        """Majority resident node of many spans at once (-1 when unmapped).

        Per-span equal to ``np.unique(node[start:end][mapped], return_counts
        =True)`` followed by ``argmax`` (ties break toward the lowest node,
        matching ``np.unique``'s ascending order + first-max ``argmax``).
        Computed from the cached node RLE: each span's per-node page counts
        are the lengths of its overlaps with the runs, so the work scales
        with placement fragmentation, not footprint.
        """
        starts = np.asarray(starts, dtype=np.int64)
        npages = np.asarray(npages, dtype=np.int64)
        if starts.size == 0:
            return np.empty(0, dtype=np.int64)
        bounds, values = self.node_runs()
        return kernels.span_majority(starts, npages, bounds, values)

    def huge_heads(self) -> np.ndarray:
        """Heads of all current huge mappings, ascending."""
        candidates = np.arange(0, self.n_pages, PAGES_PER_HUGE_PAGE)
        mask = (self.flags[candidates] & HUGE_MASK) != 0
        return candidates[mask]

    # -- accessed / dirty bits -----------------------------------------------

    def set_accessed(self, entries: np.ndarray, written: np.ndarray | None = None) -> None:
        """MMU path: mark entries accessed, and dirty where ``written``."""
        entries = np.asarray(entries, dtype=np.int64)
        self.flags[entries] |= ACCESSED_MASK
        if written is not None:
            written = np.asarray(written, dtype=bool)
            self.flags[entries[written]] |= DIRTY_MASK

    def scan_accessed(self, entries: np.ndarray, reset: bool = True) -> np.ndarray:
        """Read (and by default clear) the access bit of ``entries``.

        This is the primitive every PTE-scan profiler is built on; the
        *cost* of the scan is charged separately by the cost model.
        """
        entries = np.asarray(entries, dtype=np.int64)
        accessed = (self.flags[entries] & ACCESSED_MASK) != 0
        if reset:
            self.flags[entries] &= ~ACCESSED_MASK
        return accessed

    def test_and_clear_dirty(self, entries: np.ndarray) -> np.ndarray:
        """Read and clear the dirty bit of ``entries``."""
        entries = np.asarray(entries, dtype=np.int64)
        dirty = (self.flags[entries] & DIRTY_MASK) != 0
        self.flags[entries] &= ~DIRTY_MASK
        return dirty

    # -- auxiliary flags (profiler / migration machinery) ----------------------

    def set_flag(self, entries: np.ndarray, flag: PteFlag) -> None:
        """Set ``flag`` on ``entries`` (e.g. RESERVED11 write tracking)."""
        self.flags[np.asarray(entries, dtype=np.int64)] |= np.uint16(flag)

    def clear_flag(self, entries: np.ndarray, flag: PteFlag) -> None:
        """Clear ``flag`` on ``entries``."""
        self.flags[np.asarray(entries, dtype=np.int64)] &= ~np.uint16(flag)

    def has_flag(self, entries: np.ndarray, flag: PteFlag) -> np.ndarray:
        """Test ``flag`` on ``entries``."""
        return (self.flags[np.asarray(entries, dtype=np.int64)] & np.uint16(flag)) != 0

    # -- statistics --------------------------------------------------------------

    def mapped_pages(self) -> int:
        """Number of mapped base pages."""
        if self.chunked:
            return self.flags.count_nonzero_and(PRESENT_MASK)
        return int(np.count_nonzero(self.flags & PRESENT_MASK))

    def huge_mapped_pages(self) -> int:
        """Number of base pages covered by huge mappings."""
        if self.chunked:
            return self.flags.count_nonzero_and(HUGE_MASK)
        return int(np.count_nonzero(self.flags & HUGE_MASK))

    def leaf_entries(self) -> int:
        """Leaf entries a full scan must touch (4 KB PTEs + one per PMD)."""
        mapped = self.mapped_pages()
        huge_span = self.huge_mapped_pages()
        return self.geometry.pte_entries_to_scan(mapped - huge_span, huge_span)

    def pages_on_node(self, node: int) -> int:
        """Mapped base pages resident on component ``node``."""
        if self.chunked:
            return self.node.count_equal(node)
        return int(np.count_nonzero(self.node == node))

    def storage_nbytes(self) -> int:
        """Bytes held by this table's per-page state arrays.

        A dense table holds 6 bytes per page; for chunked storage only
        materialized chunks count, which is the number the large-footprint
        microbench compares against the dense O(n_pages) cost.
        """
        return self.flags.nbytes + self.node.nbytes + self._entry_delta.nbytes

    # -- internals --------------------------------------------------------------

    def _check_range(self, start: int, npages: int) -> None:
        if npages < 1:
            raise ConfigError(f"npages must be >= 1, got {npages}")
        if start < 0 or start + npages > self.n_pages:
            raise ConfigError(
                f"range [{start}, {start + npages}) outside space of {self.n_pages}"
            )

    def _partial_huge_heads(self, start: int, npages: int) -> np.ndarray:
        """Huge heads whose span crosses either boundary of the range."""
        heads = self.huge_heads()
        if heads.size == 0:
            return heads
        end = start + npages
        crosses_start = (heads < start) & (heads + PAGES_PER_HUGE_PAGE > start)
        crosses_end = (heads < end) & (heads + PAGES_PER_HUGE_PAGE > end)
        return heads[crosses_start | crosses_end]


def _merge_ranges(ranges: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """``[start, end)`` ranges sorted, with overlapping or touching ones joined."""
    merged: list[list[int]] = []
    for lo, hi in sorted(ranges):
        if merged and lo <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    return [(lo, hi) for lo, hi in merged]


def _merge_equal_runs(starts: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Drop each run whose value equals its predecessor's, folding it in."""
    keep = np.ones(values.size, dtype=bool)
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    return starts[keep], values[keep]
