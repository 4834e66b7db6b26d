"""Unit tests for THP planning and population."""

import tracemalloc

import numpy as np
import pytest

from repro.errors import TranslationError
from repro.mm.hugepage import ThpManager, ThpPlan
from repro.mm.pagetable import PageTable
from repro.mm.vma import AddressSpace, Vma
from repro.units import PAGES_PER_HUGE_PAGE

P = PAGES_PER_HUGE_PAGE


@pytest.fixture
def space():
    return AddressSpace(8 * PAGES_PER_HUGE_PAGE)


class TestPlan:
    def test_full_thp_covers_aligned_spans(self, space):
        vma = space.allocate_vma(2 * PAGES_PER_HUGE_PAGE + 100, "d")
        plan = ThpManager().plan(vma)
        assert plan.huge_heads.size == 2
        assert plan.base_runs()[1].sum() == 100
        assert plan.huge_heads.size * PAGES_PER_HUGE_PAGE + plan.base_runs()[1].sum() == vma.npages

    def test_disabled_thp_all_base(self, space):
        vma = space.allocate_vma(2 * PAGES_PER_HUGE_PAGE, "d")
        plan = ThpManager(enabled=False).plan(vma)
        assert plan.huge_heads.size == 0
        assert plan.base_runs()[1].sum() == vma.npages

    def test_small_vma_gets_base_pages(self, space):
        vma = space.allocate_vma(10, "tiny")
        plan = ThpManager().plan(vma)
        assert plan.huge_heads.size == 0
        assert plan.base_runs()[1].sum() == 10


class TestPopulate:
    def test_populate_maps_everything(self, space):
        vma = space.allocate_vma(2 * PAGES_PER_HUGE_PAGE + 64, "d")
        ThpManager().populate(space.page_table, vma, node=1)
        assert space.page_table.mapped_pages() == vma.npages
        assert space.page_table.huge_mapped_pages() == 2 * PAGES_PER_HUGE_PAGE
        assert np.all(space.page_table.node[vma.start : vma.end] == 1)


class TestCollapsePass:
    def test_collapse_after_base_mapping(self, space):
        vma = space.allocate_vma(2 * PAGES_PER_HUGE_PAGE, "d")
        ThpManager(enabled=False).populate(space.page_table, vma, node=0)
        collapsed = ThpManager.collapse_pass(space.page_table, vma)
        assert collapsed == 2
        assert space.page_table.is_huge(vma.start)

    def test_collapse_skips_cross_node_spans(self, space):
        vma = space.allocate_vma(PAGES_PER_HUGE_PAGE, "d")
        half = PAGES_PER_HUGE_PAGE // 2
        space.page_table.map_range(vma.start, half, node=0)
        space.page_table.map_range(vma.start + half, half, node=1)
        assert ThpManager.collapse_pass(space.page_table, vma) == 0


# -- bulk population vs one map_range per huge head and per base page ------------

#: Page-table size: 24 huge spans plus a partial one, so the last chunk of
#: a chunked table is short.
N_PAGES = 24 * P + 300

#: VMAs ``(start, npages)``: unaligned start and end, aligned start with an
#: unaligned end, a long aligned run, and one too small for any huge span.
VMAS = [(100, 5 * P + 37), (6 * P, 4 * P + 200), (11 * P, 12 * P), (23 * P + 10, 400)]

TABLES = {"dense": {"chunked": False}, "chunk512": {"chunked": True, "chunk_pages": P},
          "chunk2048": {"chunked": True, "chunk_pages": 4 * P}}


class ChosenSpans(ThpManager):
    """THP that maps only the given spans huge, as fragmentation leaves it."""

    def __init__(self, spans):
        super().__init__()
        self.heads = P * np.asarray(spans, dtype=np.int64)

    def plan(self, vma):
        inside = (self.heads >= vma.start) & (self.heads + P <= vma.end)
        return ThpPlan(start=vma.start, end=vma.end, huge_heads=self.heads[inside])


#: The ``frac`` layouts map 30% and 50% of each VMA's 4, 4 and 12 aligned
#: spans huge; the long VMA gets several huge runs with base gaps between.
THP = {"full": ThpManager(), "frac0.3": ChosenSpans([3, 8, 12, 16, 17, 21]),
       "frac0.5": ChosenSpans([1, 2, 7, 9, 11, 13, 14, 18, 19, 20]),
       "off": ThpManager(enabled=False)}


def reference_populate(mgr, pt, vma, node):
    """Map the plan's huge heads and base pages one ``map_range`` call each."""
    heads = mgr.plan(vma).huge_heads
    for head in heads:
        pt.map_range(int(head), P, node, huge=True)
    pages = np.arange(vma.start, vma.end)
    base = pages[~np.isin(pages - pages % P, heads)]
    for page in base:
        pt.map_range(int(page), 1, node)
    return base


def populated(table, thp, populate):
    pt = PageTable(N_PAGES, **TABLES[table])
    plans = [populate(THP[thp], pt, Vma(start, n, f"v{i}"), i % 3)
             for i, (start, n) in enumerate(VMAS)]
    return pt, plans


def population_memory(pt, vma):
    """``(retained, peak)`` bytes traced while populating ``vma``."""
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        ThpManager().populate(pt, vma, node=0)
        after, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return after - before, peak - before


class TestBulkPopulation:
    @pytest.mark.parametrize("thp", sorted(THP))
    @pytest.mark.parametrize("table", sorted(TABLES))
    def test_matches_per_span_reference(self, table, thp):
        bulk, plans = populated(table, thp, ThpManager.populate)
        ref, bases = populated(table, thp, reference_populate)
        np.testing.assert_array_equal(np.asarray(bulk.flags), np.asarray(ref.flags))
        np.testing.assert_array_equal(np.asarray(bulk.node), np.asarray(ref.node))
        every = np.arange(N_PAGES)
        np.testing.assert_array_equal(bulk.entry_index(every), ref.entry_index(every))
        heads = np.where(bulk.is_huge(every), every - every % P, every)
        np.testing.assert_array_equal(bulk.entry_index(every), heads)
        rng = np.random.default_rng(7)
        starts = rng.integers(0, N_PAGES - 1, 40)
        npages = rng.integers(1, N_PAGES - starts + 1)
        for got, want in zip(bulk.span_entries(starts, npages), ref.span_entries(starts, npages)):
            np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(bulk.huge_heads(), ref.huge_heads())
        assert bulk.mapped_pages() == ref.mapped_pages() == sum(n for _, n in VMAS)
        assert bulk.huge_mapped_pages() == ref.huge_mapped_pages()
        assert bulk.leaf_entries() == ref.leaf_entries()
        if bulk.chunked:
            assert bulk.storage_nbytes() <= ref.storage_nbytes()
        for plan, base, (_, n) in zip(plans, bases, VMAS):
            starts, npages = plan.base_runs()
            runs = [np.arange(s, s + k) for s, k in zip(starts, npages)]
            np.testing.assert_array_equal(np.concatenate([np.arange(0)] + runs), base)
            assert plan.huge_heads.size * P + npages.sum() == n
        if thp.startswith("frac"):
            assert 0 < bulk.huge_mapped_pages() < bulk.mapped_pages()
            assert plans[2].huge_runs()[0].size >= 3  # huge runs split by base gaps
        for start, n in (VMAS[0], (0, 200)):  # the same VMA; one mapped only at its end
            with pytest.raises(TranslationError):
                THP[thp].populate(bulk, Vma(start, n, "again"), node=0)

    def test_aligned_vma_populates_with_one_map_range(self):
        pt = PageTable(64 * P)
        calls = []
        map_range = pt.map_range
        pt.map_range = lambda *args, **kw: calls.append(args) or map_range(*args, **kw)
        ThpManager().populate(pt, Vma(0, 64 * P, "v"), node=0)
        assert calls == [(0, 64 * P, 0)]
        assert pt.huge_mapped_pages() == 64 * P

    def test_chunked_peak_near_what_it_retains(self):
        n = 1 << 23
        retained, peak = population_memory(PageTable(n, chunked=True), Vma(0, n, "v"))
        assert peak - retained < 2 * 2**20

    def test_dense_peak_under_three_bytes_per_page(self):
        n = 1 << 23
        _, peak = population_memory(PageTable(n, chunked=False), Vma(0, n, "v"))
        assert peak < 3 * n
