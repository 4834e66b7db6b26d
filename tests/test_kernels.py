"""Differential suite for the hot-path kernels and chunked page-table
storage.

Three invariants are enforced:

* **kernel semantics** — every :mod:`repro.kernels` function equals an
  independent per-element Python loop on adversarial inputs (huge-page
  duplicate entries, single runs, alternating runs, ties, unmapped
  spans);
* **kernel-path bit-identity** — simulations on the kernel path, dense
  and chunked, are fingerprint-identical to the ``legacy_mode()`` loops
  across solutions, under fault injection, through snapshot fork/resume,
  and at any worker count;
* **storage bit-identity** — chunked page tables (including multi-chunk
  layouts far below the auto threshold) are indistinguishable from the
  dense arrays above the :class:`~repro.mm.pagetable.PageTable` API.
"""

import numpy as np
import pytest

from repro import kernels, perfflags
from repro.bench.runner import run_matrix, run_solution
from repro.bench.scaling import BenchProfile
from repro.core.baselines import make_engine
from repro.faults.injector import FaultConfig, FaultInjector
from repro.mm.chunked import ChunkedArray
from repro.mm.pagetable import PageTable
from repro.sim.engine import SimulationEngine
from tests.support import fingerprint, matrix_fingerprint

SCALE = 1 / 512
SOLUTIONS = ["first-touch", "hmc", "tiered-autonuma", "hemem", "thermostat", "mtm"]


@pytest.fixture(scope="module")
def tiny_profile():
    return BenchProfile(
        name="tiny",
        scale=SCALE,
        intervals={name: 4 for name in
                   ("gups", "voltdb", "cassandra", "bfs", "sssp", "spark")},
        seed=3,
    )


def _run(solution, workload, profile, legacy=False, **kwargs):
    if legacy:
        with perfflags.legacy_mode():
            return fingerprint(
                run_solution(solution, workload, profile, **kwargs))
    return fingerprint(run_solution(solution, workload, profile, **kwargs))


# -- per-element Python loops: the reference semantics of each kernel --------


def loop_scatter_reset(touched, entry_counts, entry_writes, entry_socket):
    for e in touched.tolist():
        entry_counts[e] = 0
        entry_writes[e] = 0
        entry_socket[e] = -1


def loop_mmu_ingest(entries, counts, writes, sockets, pages, entry_counts,
                    entry_writes, entry_socket, flags, cumulative_counts,
                    cumulative_writes, accessed_bit, dirty_bit):
    for i in range(entries.size):
        e = int(entries[i])
        c = int(counts[i])
        w = int(writes[i])
        entry_counts[e] += c
        entry_writes[e] += w
        entry_socket[e] = sockets[i]
        f = int(flags[e]) | accessed_bit
        if w > 0:
            f |= dirty_bit
        flags[e] = f
        p = int(pages[i])
        cumulative_counts[p] += c
        cumulative_writes[p] += w


def loop_node_rle(node):
    bounds = [0]
    values = [int(node[0])]
    for i in range(1, node.shape[0]):
        if node[i] != node[i - 1]:
            bounds.append(i)
            values.append(int(node[i]))
    bounds.append(node.shape[0])
    return (np.asarray(bounds, dtype=np.int64),
            np.asarray(values, dtype=np.int64))


def loop_span_majority(starts, npages, bounds, values):
    """Most pages wins; ties go to the lowest node; -1 when unmapped."""
    out = np.full(starts.size, -1, dtype=np.int64)
    blist = bounds.tolist()
    vlist = values.tolist()
    for s in range(starts.size):
        start = int(starts[s])
        end = start + int(npages[s])
        tally: dict[int, int] = {}
        for r in range(len(vlist)):
            lo = max(blist[r], start)
            hi = min(blist[r + 1], end)
            if hi > lo and vlist[r] >= 0:
                tally[vlist[r]] = tally.get(vlist[r], 0) + (hi - lo)
        if tally:
            out[s] = max(tally.items(), key=lambda kv: (kv[1], -kv[0]))[0]
    return out


def loop_span_entries(starts, npages, entry):
    out: list[int] = []
    offsets = [0]
    for s in range(starts.size):
        prev = None
        for p in range(int(starts[s]), int(starts[s]) + int(npages[s])):
            e = int(entry[p])
            if e != prev:
                out.append(e)
                prev = e
        offsets.append(len(out))
    return (np.asarray(out, dtype=np.int64),
            np.asarray(offsets, dtype=np.int64))


def loop_node_accumulate(nodes, counts, writes, n_slots):
    acc = [0] * n_slots
    wr = [0] * n_slots
    for i in range(nodes.size):
        slot = int(nodes[i]) + 1
        acc[slot] += int(counts[i])
        wr[slot] += int(writes[i])
    return (np.asarray(acc, dtype=np.int64), np.asarray(wr, dtype=np.int64))


def loop_score_detected(detected):
    """(total, min, max, first argmax)."""
    total = 0
    mn = mx = int(detected[0])
    arg = 0
    for i in range(detected.size):
        d = int(detected[i])
        total += d
        mn = min(mn, d)
        if d > mx:
            mx = d
            arg = i
    return total, mn, mx, arg


class TestKernelDifferentials:
    """Randomized pin of every kernel against its Python loop."""

    def test_mmu_scatter_reset(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = int(rng.integers(1, 2000))
            touched = np.unique(rng.integers(0, n, size=rng.integers(1, n + 1)))
            got = (rng.integers(0, 99, n), rng.integers(0, 99, n),
                   rng.integers(-1, 2, n).astype(np.int8))
            want = tuple(a.copy() for a in got)
            kernels.mmu_scatter_reset(touched, *got)
            loop_scatter_reset(touched, *want)
            for g, w in zip(got, want):
                np.testing.assert_array_equal(g, w)

    def _ingest_state(self, n):
        return (np.zeros(n, dtype=np.int64), np.zeros(n, dtype=np.int64),
                np.full(n, -1, dtype=np.int8), np.zeros(n, dtype=np.uint16),
                np.zeros(n, dtype=np.int64), np.zeros(n, dtype=np.int64))

    def test_mmu_ingest_with_huge_duplicates(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            n = int(rng.integers(600, 3000))
            batch = int(rng.integers(1, 500))
            pages = np.sort(rng.choice(n, size=batch, replace=False))
            # Huge mappings collapse runs of pages onto one entry.
            entries = (pages - pages % 512
                       if rng.integers(0, 2) else pages.copy())
            counts = rng.integers(1, 50, batch).astype(np.int64)
            writes = rng.integers(0, 5, batch).astype(np.int64)
            sockets = rng.integers(0, 2, batch).astype(np.int8)
            got = self._ingest_state(n)
            want = self._ingest_state(n)
            kernels.mmu_ingest(entries, counts, writes, sockets, pages,
                               *got, 32, 64)
            loop_mmu_ingest(entries, counts, writes, sockets, pages,
                            *want, 32, 64)
            for g, w in zip(got, want):
                np.testing.assert_array_equal(g, w)

    def test_node_rle(self):
        rng = np.random.default_rng(2)
        cases = [np.zeros(1, dtype=np.int16),
                 np.arange(300, dtype=np.int16) % 2 - 1,  # alternating
                 np.full(5000, 3, dtype=np.int16)]        # single run
        for _ in range(20):
            n = int(rng.integers(1, 5000))
            runs = rng.integers(-1, 4, 40).astype(np.int16)
            node = np.repeat(runs, rng.integers(1, 300, size=runs.size))[:n]
            if node.size == 0:
                continue
            cases.append(node)
        for node in cases:
            gb, gv = kernels.node_rle(node)
            wb, wv = loop_node_rle(node)
            np.testing.assert_array_equal(gb, wb)
            np.testing.assert_array_equal(gv, wv)

    def test_node_rle_capacity_retry(self):
        # A run boundary at nearly every page: as many runs as pages.
        node = (np.arange(10_000, dtype=np.int16) % 5) - 1
        gb, gv = kernels.node_rle(node)
        wb, wv = loop_node_rle(node)
        np.testing.assert_array_equal(gb, wb)
        np.testing.assert_array_equal(gv, wv)

    def test_span_majority_including_ties_and_unmapped(self):
        rng = np.random.default_rng(3)
        for trial in range(25):
            n = int(rng.integers(1000, 8000))
            node = np.repeat(rng.integers(-1, 4, 30).astype(np.int16),
                             rng.integers(1, 500, size=30))[:n]
            if node.size < n:
                node = np.concatenate(
                    [node, np.full(n - node.size, -1, np.int16)])
            if trial == 0:
                node[:] = -1  # fully unmapped: every span must be -1
            if trial == 1:
                node[:] = 2
                node[: n // 2] = 1  # two equal halves: the tie goes to 1
            bounds, values = loop_node_rle(node)
            nspans = int(rng.integers(1, 40))
            starts = rng.integers(0, n - 1, nspans).astype(np.int64)
            npages = rng.integers(
                1, np.maximum(2, n - starts), nspans).astype(np.int64)
            if trial == 1:
                starts[0], npages[0] = 0, n - n % 2
            got = kernels.span_majority(starts, npages, bounds, values)
            want = loop_span_majority(starts, npages, bounds, values)
            np.testing.assert_array_equal(got, want)
        empty = np.empty(0, dtype=np.int64)
        assert kernels.span_majority(empty, empty, bounds, values).size == 0

    def test_span_entries(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            n = int(rng.integers(1024, 8192))
            entry = np.arange(n, dtype=np.int64)
            for head in rng.integers(0, n // 512, size=3) * 512:
                entry[head:head + 512] = head  # huge-collapsed runs
            nspans = int(rng.integers(1, 30))
            starts = rng.integers(0, n - 1, nspans).astype(np.int64)
            npages = rng.integers(
                1, np.maximum(2, n - starts), nspans).astype(np.int64)
            ge, go = kernels.span_entries(starts, npages, entry)
            we, wo = loop_span_entries(starts, npages, entry)
            np.testing.assert_array_equal(ge, we)
            np.testing.assert_array_equal(go, wo)

    def test_node_accumulate_small_and_wide_slot_counts(self):
        rng = np.random.default_rng(5)
        for n_slots in (2, 6, 70):
            for _ in range(10):
                n = int(rng.integers(1, 3000))
                nodes = rng.integers(-1, n_slots - 1, n).astype(np.int16)
                counts = rng.integers(0, 100, n).astype(np.int64)
                writes = rng.integers(0, 10, n).astype(np.int64)
                ga, gw = kernels.node_accumulate(nodes, counts, writes, n_slots)
                wa, ww = loop_node_accumulate(nodes, counts, writes, n_slots)
                np.testing.assert_array_equal(ga, wa)
                np.testing.assert_array_equal(gw, ww)

    def test_score_detected_first_max_tiebreak(self):
        rng = np.random.default_rng(6)
        cases = [np.array([7], dtype=np.int64),
                 np.full(100, 3, dtype=np.int64),
                 np.array([1, 9, 9, 9, 2], dtype=np.int64)]
        cases += [rng.integers(0, 20, int(rng.integers(1, 2000))).astype(np.int64)
                  for _ in range(20)]
        for detected in cases:
            assert kernels.score_detected(detected) == \
                loop_score_detected(detected)


class TestCompiledBitIdentity:
    """Whole simulations on the kernel path against the legacy loops.

    The names date from when these kernels were a separately built
    ``compiled`` tier; they are now the default path, chunked page
    tables included, so each check runs both storage layouts.
    """

    @pytest.mark.parametrize("solution", SOLUTIONS)
    def test_compiled_equals_vectorized_and_legacy(self, tiny_profile, solution):
        dense = _run(solution, "gups", tiny_profile)
        with perfflags.chunked_mode(True):
            assert _run(solution, "gups", tiny_profile) == dense
        assert _run(solution, "gups", tiny_profile, legacy=True) == dense

    @pytest.mark.parametrize("workload", ["voltdb", "bfs"])
    def test_compiled_equals_vectorized_other_workloads(self, tiny_profile, workload):
        dense = _run("mtm", workload, tiny_profile)
        with perfflags.chunked_mode(True):
            assert _run("mtm", workload, tiny_profile) == dense

    def test_compiled_under_fault_injection(self, tiny_profile):
        kwargs = dict(fault_rate=0.05, fault_seed=123)
        legacy = _run("mtm", "gups", tiny_profile, legacy=True, **kwargs)
        assert _run("mtm", "gups", tiny_profile, **kwargs) == legacy
        with perfflags.chunked_mode(True):
            assert _run("mtm", "gups", tiny_profile, **kwargs) == legacy

    def test_compiled_snapshot_fork_resume(self):
        intervals, warmup = 6, 3

        def engine():
            return make_engine("mtm", "gups", scale=SCALE, seed=3,
                               injector=FaultInjector(
                                   FaultConfig.uniform(0.05), seed=123))

        with perfflags.legacy_mode():
            reference = fingerprint(engine().run(intervals))
        warm = engine()
        for _ in range(warmup):
            warm.step()
        forked = SimulationEngine.fork(warm.snapshot())
        assert fingerprint(forked.run(intervals - warmup)) == reference

    def test_compiled_matrix_any_worker_count(self, tiny_profile):
        workloads, solutions = ["gups"], ["first-touch", "mtm"]
        serial = matrix_fingerprint(
            run_matrix(workloads, solutions, tiny_profile, workers=1))
        parallel = matrix_fingerprint(
            run_matrix(workloads, solutions, tiny_profile, workers=2))
        with perfflags.legacy_mode():
            legacy = matrix_fingerprint(
                run_matrix(workloads, solutions, tiny_profile, workers=1))
        assert serial == parallel == legacy


class TestChunkedArray:
    """ChunkedArray must behave exactly like the dense array it mirrors
    (checked against a plain ndarray shadow through a random op tape)."""

    CHUNK = 512

    def _pair(self, n, fill=0, dtype=np.int64):
        return (ChunkedArray(n, dtype, fill, self.CHUNK),
                np.full(n, fill, dtype=dtype))

    def _indices(self, rng, n):
        """A fancy index of one of the shapes the grouping special-cases."""
        nchunks = -(-n // self.CHUNK)
        kind = rng.integers(0, 7)
        if kind == 0:  # short, unsorted
            return rng.integers(0, n, rng.integers(1, 64))
        if kind == 1:  # sorted over a few chunks, empty chunks in between
            picked = rng.choice(nchunks, size=3, replace=False) * self.CHUNK
            idx = (picked[:, None] + rng.integers(0, self.CHUNK, (3, 20))).ravel()
            return np.sort(idx[idx < n])
        if kind == 2:  # sorted with many duplicates
            return np.sort(rng.integers(0, n, 300) // 7 * 7)
        if kind == 3:  # empty
            return np.empty(0, dtype=np.int64)
        if kind == 4:  # all in one chunk, unsorted
            c = int(rng.integers(0, nchunks)) * self.CHUNK
            return rng.integers(c, min(c + self.CHUNK, n), rng.integers(1, 64))
        if kind == 5:  # the partial last chunk
            return rng.integers((nchunks - 1) * self.CHUNK, n, rng.integers(1, 64))
        idx = rng.integers(0, n, 3 * self.CHUNK)  # longer than one chunk
        return np.sort(idx) if rng.integers(0, 2) else idx

    def test_random_op_tape_matches_dense(self):
        rng = np.random.default_rng(7)
        n = 4000  # spans 8 chunks of 512, the last one partial
        chunked, dense = self._pair(n, fill=-1, dtype=np.int16)
        for _ in range(600):
            op = rng.integers(0, 7)
            if op == 0:  # slice scalar store
                a, b = sorted(rng.integers(0, n, 2))
                v = int(rng.integers(-1, 4))
                chunked[a:b] = v
                dense[a:b] = v
            elif op == 1:  # fancy scalar store
                idx = self._indices(rng, n)
                v = int(rng.integers(-1, 4))
                chunked[idx] = v
                dense[idx] = v
            elif op == 2:  # fancy array store (duplicate last-write-wins)
                idx = self._indices(rng, n)
                vals = rng.integers(-1, 4, idx.size).astype(np.int16)
                chunked[idx] = vals
                dense[idx] = vals
            elif op == 3:  # slice array store
                a, b = sorted(rng.integers(0, n, 2))
                vals = rng.integers(-1, 4, b - a).astype(np.int16)
                chunked[a:b] = vals
                dense[a:b] = vals
            elif op == 4:  # int store
                i = int(rng.integers(0, n))
                v = int(rng.integers(-1, 4))
                chunked[i] = v
                dense[i] = v
            elif op == 5:  # scatter add
                idx = self._indices(rng, n)
                vals = rng.integers(0, 3, idx.size).astype(np.int16)
                chunked.add_at(idx, vals)
                np.add.at(dense, idx, vals)
            else:  # gather reads
                idx = self._indices(rng, n)
                np.testing.assert_array_equal(chunked[idx], dense[idx])
                a, b = sorted(rng.integers(0, n, 2))
                np.testing.assert_array_equal(chunked[a:b], dense[a:b])
        np.testing.assert_array_equal(np.asarray(chunked), dense)

    def test_add_at_matches_dense(self):
        rng = np.random.default_rng(8)
        chunked, dense = self._pair(3000)
        for i in range(30):
            idx = rng.integers(0, 3000, rng.integers(1, 200))
            if i % 2:
                idx = np.sort(idx)
            vals = rng.integers(1, 9, idx.size).astype(np.int64)
            chunked.add_at(idx, vals)
            np.add.at(dense, idx, vals)
        np.testing.assert_array_equal(np.asarray(chunked), dense)

    @pytest.mark.parametrize("n", [1000, 1024])  # partial / full last chunk
    def test_negative_indices_wrap_like_dense(self, n):
        chunked, dense = self._pair(n, fill=7)
        for idx in (np.array([-1]), np.array([-n, 3, -2]), np.array([-5, -3, 2])):
            vals = np.arange(idx.size, dtype=np.int64)
            chunked[idx] = vals
            dense[idx] = vals
            np.testing.assert_array_equal(chunked[idx], dense[idx])
            chunked.add_at(idx, vals)
            np.add.at(dense, idx, vals)
        assert chunked[-1] == dense[-1]
        np.testing.assert_array_equal(np.asarray(chunked), dense)

    @pytest.mark.parametrize("n", [1000, 1024])
    def test_out_of_range_indices_raise_like_dense(self, n):
        chunked, dense = self._pair(n, fill=7)
        for bad in (np.array([n + 10, 3]), np.array([3, n]), np.array([-n - 1]),
                    np.array([n, 3, 1])):
            with pytest.raises(IndexError):
                dense[bad]
            with pytest.raises(IndexError):
                chunked[bad]
            with pytest.raises(IndexError):
                chunked[bad] = 7  # the fill value: a silent no-op before
            with pytest.raises(IndexError):
                chunked.add_at(bad, np.ones(bad.size, dtype=np.int64))
        for bad in (n, -n - 1):
            with pytest.raises(IndexError):
                chunked[bad]
            with pytest.raises(IndexError):
                chunked[bad] = 1
        np.testing.assert_array_equal(np.asarray(chunked), dense)

    def test_uniform_chunks_stay_scalar(self):
        chunked, _ = self._pair(4 * self.CHUNK, fill=0)
        assert chunked.dense_chunks() == 0
        chunked[10] = 5                      # densifies one chunk
        assert chunked.dense_chunks() == 1
        chunked[0:self.CHUNK] = 0            # whole-chunk store re-collapses
        assert chunked.dense_chunks() == 0
        assert chunked.storage_nbytes() < 4 * self.CHUNK * 8

    def test_eq_and_counts(self):
        chunked, dense = self._pair(2048, fill=-1, dtype=np.int16)
        chunked[100:700] = 2
        dense[100:700] = 2
        np.testing.assert_array_equal(chunked == 2, dense == 2)
        np.testing.assert_array_equal(chunked != -1, dense != -1)
        assert chunked.count_equal(2) == int((dense == 2).sum())
        mask = 0x4
        chunked[900] = mask
        dense[900] = mask
        assert (chunked.count_nonzero_and(mask)
                == int((dense & mask != 0).sum()))

    def test_bool_mask_read(self):
        chunked, dense = self._pair(1500)
        chunked[200:400] = 7
        dense[200:400] = 7
        np.testing.assert_array_equal(chunked[dense == 7], dense[dense == 7])


class TestChunkedPageTable:
    """Multi-chunk tables (chunk_pages=512, far below the auto
    threshold) must be indistinguishable from dense storage."""

    N = 16 * 512  # 16 chunks

    def _tables(self):
        return (PageTable(self.N, chunked=True, chunk_pages=512),
                PageTable(self.N, chunked=False))

    def _assert_same(self, chunked, dense):
        np.testing.assert_array_equal(np.asarray(chunked.flags), dense.flags)
        np.testing.assert_array_equal(np.asarray(chunked.node), dense.node)
        pages = np.arange(self.N, dtype=np.int64)
        np.testing.assert_array_equal(chunked.entry_index(pages),
                                      dense.entry_index(pages))

    def test_mirrored_mutation_sequence(self):
        chunked, dense = self._tables()
        rng = np.random.default_rng(9)
        for pt in (chunked, dense):
            pt.map_range(0, 2048, node=0, huge=True)
            pt.map_range(2048, 1000, node=1)
            pt.map_range(5000, 1536, node=2, huge=False)
            pt.unmap_range(2300, 200)
            pt.split_huge(512)
            pt.collapse_huge(1024)
            pt.move_pages(np.arange(5000, 5100, dtype=np.int64), 0)
        self._assert_same(chunked, dense)
        assert chunked.mapped_pages() == dense.mapped_pages()
        assert chunked.huge_mapped_pages() == dense.huge_mapped_pages()
        for node in (0, 1, 2):
            assert chunked.pages_on_node(node) == dense.pages_on_node(node)
        starts = rng.integers(0, self.N - 600, 20).astype(np.int64)
        npages = rng.integers(1, 600, 20).astype(np.int64)
        np.testing.assert_array_equal(
            chunked.span_majority_nodes(starts, npages),
            dense.span_majority_nodes(starts, npages))
        ce, co = chunked.span_entries(starts, npages)
        de, do = dense.span_entries(starts, npages)
        np.testing.assert_array_equal(ce, de)
        np.testing.assert_array_equal(co, do)

    @pytest.mark.parametrize("window", [97, 512, 1 << 16])
    def test_span_entries_windows_match_dense(self, window, monkeypatch):
        # Small windows split spans across passes and put many spans
        # (unsorted, overlapping, empty) into one pass.
        import repro.mm.pagetable as pagetable_mod
        monkeypatch.setattr(pagetable_mod, "_SPAN_WINDOW_PAGES", window)
        chunked, dense = self._tables()
        for pt in (chunked, dense):
            pt.map_range(0, 2048, node=0, huge=True)
            pt.map_range(2048, 1000, node=1)
            pt.map_range(5120, 1536, node=2, huge=True)
            pt.split_huge(512)
        rng = np.random.default_rng(10)
        for _ in range(20):
            starts = rng.integers(0, self.N - 700, 30).astype(np.int64)
            npages = rng.integers(0, 700, 30).astype(np.int64)
            ce, co = chunked.span_entries(starts, npages)
            de, do = dense.span_entries(starts, npages)
            np.testing.assert_array_equal(ce, de)
            np.testing.assert_array_equal(co, do)
        starts = np.arange(0, self.N, 300, dtype=np.int64)  # a contiguous cover
        npages = np.minimum(300, self.N - starts)
        for got, want in zip(chunked.span_entries(starts, npages),
                             dense.span_entries(starts, npages)):
            np.testing.assert_array_equal(got, want)

    def test_chunked_span_entries_peak_allocation(self):
        # Resolving a whole huge-mapped table must not allocate temporaries
        # proportional to its page count: < 1 byte per page at 2^22 pages.
        import tracemalloc
        n = 1 << 22
        pt = PageTable(n, chunked=True)
        pt.map_range(0, n, node=0, huge=True)
        starts = np.arange(0, n, 4096, dtype=np.int64)
        npages = np.full(starts.size, 4096, dtype=np.int64)
        tracemalloc.start()
        try:
            entries, offsets = pt.span_entries(starts, npages)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(entries, np.arange(0, n, 512))
        np.testing.assert_array_equal(offsets, np.arange(starts.size + 1) * 8)
        assert peak < n, f"peak {peak / n:.1f} bytes/page"

    def test_chunked_storage_is_sparse(self):
        chunked, dense = self._tables()
        chunked.map_range(0, 512, node=0)
        dense.map_range(0, 512, node=0)
        assert chunked.storage_nbytes() < dense.storage_nbytes()

    def test_chunk_pages_must_align_to_huge_pages(self):
        from repro.errors import ConfigError
        with pytest.raises(ConfigError):
            PageTable(2048, chunked=True, chunk_pages=100)

    @pytest.mark.parametrize("mode", ["legacy", "vectorized"])
    def test_chunked_simulation_fingerprints(self, tiny_profile, mode):
        legacy = mode == "legacy"
        dense = _run("mtm", "gups", tiny_profile, legacy)
        with perfflags.chunked_mode(True):
            chunked = _run("mtm", "gups", tiny_profile, legacy)
        assert chunked == dense

    def test_chunked_multi_chunk_simulation(self, tiny_profile, monkeypatch):
        # Force chunks far smaller than the footprint so the run crosses
        # many chunk boundaries.
        import repro.mm.pagetable as pagetable_mod
        dense = _run("first-touch", "gups", tiny_profile)
        monkeypatch.setattr(pagetable_mod, "DEFAULT_CHUNK_PAGES", 512)
        with perfflags.chunked_mode(True):
            chunked = _run("first-touch", "gups", tiny_profile)
        assert chunked == dense
