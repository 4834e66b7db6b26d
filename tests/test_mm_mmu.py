"""Unit tests for the MMU: interval state, detection model, attribution."""

import tracemalloc

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.mm.mmu import Mmu
from repro.mm.pagetable import PageTable
from repro.sim.trace import AccessBatch
from repro.units import PAGES_PER_HUGE_PAGE


def make_batch(pages, counts, writes=None, sockets=None):
    pages = np.asarray(pages, dtype=np.int64)
    counts = np.asarray(counts, dtype=np.int64)
    if writes is None:
        writes = np.zeros_like(counts)
    return AccessBatch(
        pages=pages,
        counts=counts,
        writes=np.asarray(writes, dtype=np.int64),
        sockets=None if sockets is None else np.asarray(sockets, dtype=np.int8),
    )


_SPACE_PAGES = 8 * PAGES_PER_HUGE_PAGE


def _table_and_mmu(chunked: bool, huge: bool) -> tuple[PageTable, Mmu]:
    """A fully mapped space; chunked tables get several small chunks."""
    pt = PageTable(_SPACE_PAGES, chunked=chunked, chunk_pages=1024)
    pt.map_range(0, _SPACE_PAGES, node=0, huge=huge)
    return pt, Mmu(pt, num_sockets=2)


def _random_batch(rng, size: int) -> AccessBatch:
    pages = np.sort(rng.choice(_SPACE_PAGES, size=size, replace=False))
    counts = rng.integers(1, 20, size)
    return make_batch(pages, counts, writes=rng.integers(0, counts + 1),
                      sockets=rng.integers(0, 2, size))


def _dense_reference(pt: PageTable, batch: AccessBatch):
    """Per-entry counts, writes and sockets built with dense scatters."""
    entries = pt.entry_index(batch.pages)
    counts = np.zeros(pt.n_pages, dtype=np.int64)
    writes = np.zeros(pt.n_pages, dtype=np.int64)
    np.add.at(counts, entries, batch.counts)
    np.add.at(writes, entries, batch.writes)
    sockets = np.full(pt.n_pages, -1, dtype=np.int8)
    for entry, socket in zip(entries.tolist(), batch.sockets.tolist()):
        sockets[entry] = socket  # the last page of an entry wins
    return counts, writes, sockets


class TestIntervalState:
    def test_counts_accumulate_on_entries(self, mapped_space, mmu, rng):
        vma = mapped_space.vmas[0]
        # Two pages inside the same huge page aggregate on its head.
        head = vma.start
        mmu.begin_interval(make_batch([head + 1, head + 2], [3, 4]))
        entry = np.array([head])
        assert mmu.entry_count(entry)[0] == 7

    def test_interval_resets(self, mapped_space, mmu):
        vma = mapped_space.vmas[0]
        mmu.begin_interval(make_batch([vma.start], [5]))
        mmu.begin_interval(make_batch([vma.start + PAGES_PER_HUGE_PAGE], [2]))
        assert mmu.entry_count(np.array([vma.start]))[0] == 0

    # One ingest path, kernels.mmu_ingest; the ID keeps the tests' names
    # stable across history.
    @pytest.mark.parametrize("ingest", ["kernel"])
    @pytest.mark.parametrize("huge", [True, False], ids=["thp", "base"])
    @pytest.mark.parametrize("chunked", [False, True], ids=["dense", "chunked"])
    def test_histogram_matches_dense_reference(self, chunked, huge, ingest):
        """Every reader of the ingested histogram equals
        :func:`_dense_reference`'s dense scatters."""
        # Each interval is checked against its own batch only, so entries
        # touched in an earlier interval must read 0 (-1 for the socket),
        # and after the final empty batch every entry reads untouched.
        pt, mmu = _table_and_mmu(chunked, huge)
        rng = np.random.default_rng(17)
        batches = [_random_batch(rng, 1500) for _ in range(3)]
        everything = np.arange(pt.n_pages, dtype=np.int64)
        for batch in batches + [AccessBatch.empty()]:
            mmu.begin_interval(batch)
            counts, writes, sockets = _dense_reference(pt, batch)
            np.testing.assert_array_equal(mmu.entry_count(everything), counts)
            np.testing.assert_array_equal(mmu.entry_write_count(everything), writes)
            np.testing.assert_array_equal(mmu.accessor_socket(everything), sockets)
            np.testing.assert_array_equal(mmu.write_happened(everything), writes >= 1)
            np.testing.assert_array_equal(mmu.fault_detect(everything), counts >= 1)
            got = mmu.scan_detect(everything, 3, np.random.default_rng(5),
                                  exposure=0.1)
            want = np.random.default_rng(5).binomial(
                3, 1.0 - np.exp(-counts.astype(np.float64) * 0.1))
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("bad", [_SPACE_PAGES, _SPACE_PAGES + 7, -1, -_SPACE_PAGES])
    def test_out_of_range_entries_raise(self, bad):
        pt, mmu = _table_and_mmu(chunked=False, huge=False)
        mmu.begin_interval(make_batch([1, 2], [1, 1]))
        entries = np.array([1, bad])
        readers = [
            mmu.entry_count, mmu.entry_write_count, mmu.fault_detect,
            mmu.accessor_socket, mmu.write_happened,
            lambda e: mmu.scan_detect(e, 3, np.random.default_rng(0)),
        ]
        for reader in readers:
            with pytest.raises(IndexError):
                reader(entries)

    def test_state_is_o_touched_entries(self):
        # Two intervals of ~1000 pages on a 2^20-page table allocate
        # nothing proportional to the table (the per-page arrays took
        # 34.6 MB).
        n = 1 << 20
        pt = PageTable(n, chunked=False)
        pt.map_range(0, n, node=0, huge=True)
        rng = np.random.default_rng(3)
        batches = [
            make_batch(np.sort(rng.choice(n, size=1000, replace=False)),
                       rng.integers(1, 9, 1000), sockets=rng.integers(0, 2, 1000))
            for _ in range(2)
        ]
        tracemalloc.start()
        try:
            mmu = Mmu(pt, num_sockets=2)
            for batch in batches:
                mmu.begin_interval(batch)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        every_entry = np.arange(n, dtype=np.int64)
        assert mmu.entry_count(every_entry).sum() == batches[1].counts.sum()

    def test_pte_bits_set(self, mapped_space, mmu):
        vma = mapped_space.vmas[0]
        mmu.begin_interval(make_batch([vma.start + 1], [1], writes=[1]))
        pt = mapped_space.page_table
        entry = pt.entry_index(np.array([vma.start + 1]))
        assert pt.scan_accessed(entry)[0]
        assert pt.test_and_clear_dirty(entry)[0]

    def test_bad_socket_rejected(self, mapped_space, mmu):
        vma = mapped_space.vmas[0]
        with pytest.raises(ConfigError):
            mmu.begin_interval(make_batch([vma.start], [1], sockets=[5]))

    def test_current_batch_requires_interval(self, mapped_space):
        fresh = Mmu(mapped_space.page_table)
        with pytest.raises(ConfigError):
            _ = fresh.current_batch


class TestDetectionModel:
    def test_zero_count_never_detected(self, mapped_space, mmu, rng):
        vma = mapped_space.vmas[0]
        mmu.begin_interval(make_batch([vma.start], [1]))
        untouched = np.array([vma.start + PAGES_PER_HUGE_PAGE])
        detected = mmu.scan_detect(untouched, 3, rng)
        assert detected[0] == 0

    def test_hot_entry_saturates_with_full_exposure(self, mapped_space, mmu, rng):
        vma = mapped_space.vmas[0]
        mmu.begin_interval(make_batch([vma.start], [10_000]))
        detected = mmu.scan_detect(np.array([vma.start]), 3, rng, exposure=1.0)
        assert detected[0] == 3

    def test_small_exposure_discriminates_rates(self, mapped_space, mmu, rng):
        vma = mapped_space.vmas[0]
        hot = vma.start
        cold = vma.start + PAGES_PER_HUGE_PAGE
        mmu.begin_interval(make_batch([hot, cold], [100, 5]))
        exposure = 0.0167
        hot_hits = np.array([
            mmu.scan_detect(np.array([hot]), 3, rng, exposure=exposure)[0]
            for _ in range(200)
        ])
        cold_hits = np.array([
            mmu.scan_detect(np.array([cold]), 3, rng, exposure=exposure)[0]
            for _ in range(200)
        ])
        assert hot_hits.mean() > cold_hits.mean() + 1.0

    def test_even_spread_saturates_on_huge_entries(self, mapped_space, mmu, rng):
        """The DAMON failure mode: evenly spread checks cannot tell a hot
        2 MB entry from a mildly warm one."""
        vma = mapped_space.vmas[0]
        hot, warm = vma.start, vma.start + PAGES_PER_HUGE_PAGE
        mmu.begin_interval(make_batch([hot, warm], [3000, 200]))
        hot_d = np.array([mmu.scan_detect(np.array([hot]), 3, rng)[0] for _ in range(50)])
        warm_d = np.array([mmu.scan_detect(np.array([warm]), 3, rng)[0] for _ in range(50)])
        assert hot_d.mean() == pytest.approx(3.0, abs=0.1)
        assert warm_d.mean() == pytest.approx(3.0, abs=0.2)

    def test_count_scale_thins_signal(self, mapped_space, mmu, rng):
        vma = mapped_space.vmas[0]
        mmu.begin_interval(make_batch([vma.start], [512]))
        full = np.array([
            mmu.scan_detect(np.array([vma.start]), 3, rng, exposure=0.02)[0]
            for _ in range(100)
        ])
        thinned = np.array([
            mmu.scan_detect(np.array([vma.start]), 3, rng, exposure=0.02, count_scale=1 / 512)[0]
            for _ in range(100)
        ])
        assert thinned.mean() < full.mean()

    def test_invalid_args_rejected(self, mapped_space, mmu, rng):
        vma = mapped_space.vmas[0]
        mmu.begin_interval(make_batch([vma.start], [1]))
        with pytest.raises(ConfigError):
            mmu.scan_detect(np.array([vma.start]), 0, rng)
        with pytest.raises(ConfigError):
            mmu.scan_detect(np.array([vma.start]), 3, rng, exposure=1.5)
        with pytest.raises(ConfigError):
            mmu.scan_detect(np.array([vma.start]), 3, rng, count_scale=0)


class TestAttribution:
    def test_fault_detect_is_binary(self, mapped_space, mmu):
        vma = mapped_space.vmas[0]
        mmu.begin_interval(make_batch([vma.start], [7]))
        cold = vma.start + PAGES_PER_HUGE_PAGE
        assert mmu.fault_detect(np.array([vma.start, cold])).tolist() == [1, 0]

    def test_accessor_socket(self, mapped_space, mmu):
        vma = mapped_space.vmas[0]
        mmu.begin_interval(make_batch([vma.start], [1], sockets=[1]))
        assert mmu.accessor_socket(np.array([vma.start]))[0] == 1
        cold = vma.start + PAGES_PER_HUGE_PAGE
        assert mmu.accessor_socket(np.array([cold]))[0] == -1

    def test_write_happened(self, mapped_space, mmu):
        vma = mapped_space.vmas[0]
        other = vma.start + PAGES_PER_HUGE_PAGE
        mmu.begin_interval(make_batch([vma.start, other], [2, 2], writes=[1, 0]))
        flags = mmu.write_happened(np.array([vma.start, other]))
        assert flags.tolist() == [True, False]
