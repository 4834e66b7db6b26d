"""Unit tests for the leaf page table: mapping, huge pages, bits."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import kernels
from repro.errors import ConfigError, TranslationError
from repro.mm.pagetable import PageTable
from repro.mm.pte import PteFlag
from repro.units import PAGES_PER_HUGE_PAGE


@pytest.fixture
def pt():
    return PageTable(4 * PAGES_PER_HUGE_PAGE)


class TestMapping:
    def test_map_and_query(self, pt):
        pt.map_range(0, 100, node=2)
        assert pt.is_mapped(0)
        assert pt.is_mapped(99)
        assert not pt.is_mapped(100)
        assert pt.node_of(5) == 2

    def test_double_map_rejected(self, pt):
        pt.map_range(0, 10, node=0)
        with pytest.raises(TranslationError):
            pt.map_range(5, 10, node=1)

    def test_unmap(self, pt):
        pt.map_range(0, 10, node=0)
        pt.unmap_range(0, 10)
        assert not pt.is_mapped(0)
        assert pt.node_of(0) == -1

    def test_unmap_unmapped_rejected(self, pt):
        with pytest.raises(TranslationError):
            pt.unmap_range(0, 10)

    def test_out_of_range_rejected(self, pt):
        with pytest.raises(ConfigError):
            pt.map_range(0, pt.n_pages + 1, node=0)

    def test_move_pages_retargets(self, pt):
        pt.map_range(0, 10, node=0)
        pt.move_pages(np.arange(0, 5), dst_node=3)
        assert pt.node_of(0) == 3
        assert pt.node_of(5) == 0

    def test_move_unmapped_rejected(self, pt):
        with pytest.raises(TranslationError):
            pt.move_pages(np.array([0]), dst_node=1)

    def test_pages_on_node(self, pt):
        pt.map_range(0, 100, node=1)
        pt.map_range(100, 50, node=2)
        assert pt.pages_on_node(1) == 100
        assert pt.pages_on_node(2) == 50


class TestHugePages:
    def test_huge_mapping_requires_alignment(self, pt):
        with pytest.raises(ConfigError):
            pt.map_range(1, PAGES_PER_HUGE_PAGE, node=0, huge=True)

    def test_huge_mapping_flags_span(self, pt):
        pt.map_range(0, PAGES_PER_HUGE_PAGE, node=0, huge=True)
        assert pt.is_huge(0)
        assert pt.is_huge(PAGES_PER_HUGE_PAGE - 1)
        assert pt.huge_mapped_pages() == PAGES_PER_HUGE_PAGE

    def test_entry_index_maps_to_head(self, pt):
        pt.map_range(0, PAGES_PER_HUGE_PAGE, node=0, huge=True)
        pt.map_range(PAGES_PER_HUGE_PAGE, 10, node=0)
        entries = pt.entry_index(np.array([5, 300, PAGES_PER_HUGE_PAGE + 3]))
        assert entries.tolist() == [0, 0, PAGES_PER_HUGE_PAGE + 3]

    def test_leaf_entries_counts_huge_once(self, pt):
        pt.map_range(0, PAGES_PER_HUGE_PAGE, node=0, huge=True)
        pt.map_range(PAGES_PER_HUGE_PAGE, 10, node=0)
        assert pt.leaf_entries() == 1 + 10

    def test_split_huge_inherits_bits(self, pt):
        pt.map_range(0, PAGES_PER_HUGE_PAGE, node=0, huge=True)
        pt.set_accessed(np.array([0]), written=np.array([True]))
        pt.split_huge(0)
        assert not pt.is_huge(0)
        assert bool(pt.has_flag(np.array([511]), PteFlag.ACCESSED)[0])
        assert bool(pt.has_flag(np.array([511]), PteFlag.DIRTY)[0])

    def test_collapse_huge_folds_bits(self, pt):
        pt.map_range(0, PAGES_PER_HUGE_PAGE, node=1)
        pt.set_accessed(np.array([7]))
        pt.collapse_huge(0)
        assert pt.is_huge(0)
        assert bool(pt.has_flag(np.array([0]), PteFlag.ACCESSED)[0])
        assert not bool(pt.has_flag(np.array([7]), PteFlag.ACCESSED)[0])

    def test_collapse_rejects_cross_node_span(self, pt):
        pt.map_range(0, 256, node=0)
        pt.map_range(256, 256, node=1)
        with pytest.raises(TranslationError):
            pt.collapse_huge(0)

    def test_unmap_cannot_tear_huge_page(self, pt):
        pt.map_range(0, 2 * PAGES_PER_HUGE_PAGE, node=0, huge=True)
        with pytest.raises(TranslationError):
            pt.unmap_range(100, 100)

    def test_huge_heads(self, pt):
        pt.map_range(0, 2 * PAGES_PER_HUGE_PAGE, node=0, huge=True)
        assert pt.huge_heads().tolist() == [0, PAGES_PER_HUGE_PAGE]

    def test_split_non_huge_rejected(self, pt):
        pt.map_range(0, PAGES_PER_HUGE_PAGE, node=0)
        with pytest.raises(TranslationError):
            pt.split_huge(0)


class TestAccessBits:
    def test_set_and_scan_resets(self, pt):
        pt.map_range(0, 10, node=0)
        pt.set_accessed(np.array([1, 3]))
        first = pt.scan_accessed(np.arange(5))
        assert first.tolist() == [False, True, False, True, False]
        second = pt.scan_accessed(np.arange(5))
        assert not second.any()

    def test_scan_without_reset(self, pt):
        pt.map_range(0, 10, node=0)
        pt.set_accessed(np.array([2]))
        pt.scan_accessed(np.array([2]), reset=False)
        assert pt.scan_accessed(np.array([2]))[0]

    def test_dirty_tracking(self, pt):
        pt.map_range(0, 4, node=0)
        pt.set_accessed(np.array([0, 1]), written=np.array([True, False]))
        dirty = pt.test_and_clear_dirty(np.arange(4))
        assert dirty.tolist() == [True, False, False, False]
        assert not pt.test_and_clear_dirty(np.arange(4)).any()

    def test_reserved_flag_roundtrip(self, pt):
        pt.map_range(0, 4, node=0)
        pt.set_flag(np.array([2]), PteFlag.RESERVED11)
        assert pt.has_flag(np.array([2]), PteFlag.RESERVED11)[0]
        pt.clear_flag(np.array([2]), PteFlag.RESERVED11)
        assert not pt.has_flag(np.array([2]), PteFlag.RESERVED11)[0]


R = PAGES_PER_HUGE_PAGE
N = 8 * R


def _assert_node_runs_rebuilt(pt):
    """The maintained node encoding equals a full rebuild of ``node``."""
    bounds, values = pt.node_runs()
    want_bounds, want_values = kernels.node_rle(np.asarray(pt.node))
    np.testing.assert_array_equal(bounds, want_bounds)
    np.testing.assert_array_equal(values, want_values)


class TestNodeRuns:
    """After mapping changes only the page ranges they touched are
    encoded again; the spliced encoding equals a full rebuild on both
    storage layouts."""

    @pytest.mark.parametrize("chunked", [False, True], ids=["dense", "chunked"])
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_windowed_rebuild_equals_full_rebuild(self, chunked, data):
        pt = PageTable(N, chunked=chunked, chunk_pages=2 * R)
        pt.map_range(0, N // 2, node=0, huge=True)
        pt.map_range(N // 2, N // 2 - 3, node=1)
        _assert_node_runs_rebuilt(pt)
        for _ in range(data.draw(st.integers(min_value=1, max_value=12))):
            op = data.draw(st.sampled_from(
                ["first", "last", "inside", "erase", "scatter", "unmap", "map"]))
            bounds, values = kernels.node_rle(np.asarray(pt.node))
            node = data.draw(st.integers(min_value=0, max_value=3))
            if op in ("unmap", "map"):
                start = data.draw(st.integers(min_value=0, max_value=N - 1))
                npages = data.draw(st.integers(min_value=1, max_value=N - start))
                huge = op == "map" and data.draw(st.booleans())
                try:
                    if op == "unmap":
                        pt.unmap_range(start, npages)
                    else:
                        pt.map_range(start, npages, node, huge=huge)
                except (TranslationError, ConfigError):
                    pass  # refused before any change
            else:
                run = data.draw(st.integers(min_value=0, max_value=values.size - 1))
                lo, hi = int(bounds[run]), int(bounds[run + 1])
                if op == "first":
                    pages = np.array([0])
                elif op == "last":
                    pages = np.array([N - 1])
                elif op == "inside":  # strictly inside one run
                    pages = np.arange(lo + (hi - lo) // 3, lo + 2 * (hi - lo) // 3)
                elif op == "erase" and run > 0 and values[run - 1] >= 0:
                    # The run takes its mapped left neighbour's node.
                    pages, node = np.arange(lo, hi), int(values[run - 1])
                else:
                    pages = np.unique(data.draw(st.lists(
                        st.integers(min_value=0, max_value=N - 1), min_size=1, max_size=20)))
                pages = pages[pt.is_mapped(pages)] if pages.size else pages
                pt.move_pages(pages, node)
            # Sometimes several changes pile up before a rebuild.
            if data.draw(st.booleans()):
                _assert_node_runs_rebuilt(pt)
        _assert_node_runs_rebuilt(pt)

