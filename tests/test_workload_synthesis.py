"""Bit-exactness of batch synthesis.

``poisson_nonzero`` decodes Poisson counts from bulk uniforms by replaying
numpy's multiplication method (``random_poisson_mult``).  Its contract is
exact: the same nonzero offsets and counts as ``rng.poisson`` followed by
``np.nonzero``, and the same generator state afterwards.  These tests are
what fails if a numpy upgrade changes that method.  The batch assembly
built on it must match :func:`loop_next_batch`, one ``rng.poisson`` and
``rng.binomial`` per segment merged by :func:`loop_merge`, batch by
batch and on the final generator state; ``AccessBatch.merge`` must match
:func:`loop_merge`.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import WorkloadError
from repro.hw.placement import Placer
from repro.mm.hugepage import ThpManager
from repro.mm.vma import AddressSpace
from repro.sim import rng as rngmod
from repro.sim.rng import POISSON_DECODE_MAX_LAM, POISSON_DECODE_MIN_PAGES, poisson_nonzero
from repro.sim.trace import AccessBatch
from repro.workloads.base import RateSegment
from repro.workloads.registry import build_workload
from tests.support import assert_batches_equal

CUTOFF = POISSON_DECODE_MAX_LAM
MIN = POISSON_DECODE_MIN_PAGES
BLOCK = rngmod._DECODE_BLOCK

LAMS = [0.0, 1e-6, 0.0125, 0.2, math.nextafter(CUTOFF, 0.0), CUTOFF, 1.2, 9.99, 10.0, 25.0]
SIZES = [1, MIN - 1, MIN, MIN + 1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 5]


def _generator(seed: int) -> np.random.Generator:
    """A generator holding a buffered uint32, which neither path may touch."""
    rng = np.random.default_rng(seed)
    rng.integers(0, 1000, dtype=np.int32)
    assert rng.bit_generator.state["has_uint32"] == 1
    return rng


def assert_matches_poisson(seed: int, lam: float, n: int) -> None:
    expected_rng, rng = _generator(seed), _generator(seed)
    counts = expected_rng.poisson(lam, n)
    expected = np.nonzero(counts)[0]

    offsets, got = poisson_nonzero(rng, lam, n)

    assert offsets.dtype == np.int64 and got.dtype == np.int64
    np.testing.assert_array_equal(offsets, expected)
    np.testing.assert_array_equal(got, counts[expected])
    assert rng.bit_generator.state == expected_rng.bit_generator.state


class TestPoissonNonzero:
    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("lam", LAMS)
    def test_equals_dense_draw(self, lam, n):
        for seed in (0, 1, 2):
            assert_matches_poisson(seed, lam, n)

    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        lam=st.floats(min_value=0.0, max_value=CUTOFF, exclude_max=True),
        n=st.integers(min_value=1, max_value=3 * BLOCK),
    )
    @settings(max_examples=40, deadline=None)
    def test_equals_dense_draw_property(self, seed, lam, n):
        assert_matches_poisson(seed, lam, n)

    @pytest.mark.parametrize("inside, extra", [(1, 0), (1, 1), (2, 0), (2, 1)])
    def test_block_cut_inside_an_entry(self, monkeypatch, inside, extra):
        """An entry cut by the first block's end is finished with scalar
        draws: ``inside`` of its continuing uniforms lie in the block, and
        ``extra`` of the finishing draws continue it."""
        lam = 0.45
        enlam = math.exp(-lam)

        def cut_with(seed):
            u = np.random.default_rng(seed).random(BLOCK + 1)
            if u[BLOCK - inside - 1] > enlam:
                return False  # the entry must start at u[BLOCK - inside]
            prod = 1.0
            for x in u[BLOCK - inside:BLOCK]:
                prod *= x
                if prod <= enlam:
                    return False
            return (prod * u[BLOCK] > enlam) == bool(extra)

        seed = next(s for s in range(10_000) if cut_with(s))
        finished = []
        finish = rngmod._finish_entry

        def spy(*args):
            finished.append(finish(*args))
            return finished[-1]

        monkeypatch.setattr(rngmod, "_finish_entry", spy)
        expected_rng, rng = np.random.default_rng(seed), np.random.default_rng(seed)
        counts = expected_rng.poisson(lam, 2 * BLOCK)
        offsets, got = poisson_nonzero(rng, lam, 2 * BLOCK)

        assert finished and finished[0] >= extra
        np.testing.assert_array_equal(offsets, np.nonzero(counts)[0])
        np.testing.assert_array_equal(got, counts[offsets])
        assert rng.bit_generator.state == expected_rng.bit_generator.state

    def test_decodes_only_below_cutoff_and_above_min_pages(self, monkeypatch):
        decoded = []
        decode = rngmod._decode_block

        def spy(*args):
            decoded.append(args[1].size)
            return decode(*args)

        monkeypatch.setattr(rngmod, "_decode_block", spy)
        rng = np.random.default_rng(0)
        poisson_nonzero(rng, CUTOFF, 4 * BLOCK)
        poisson_nonzero(rng, 0.2, MIN - 1)
        assert decoded == []
        poisson_nonzero(rng, 0.2, MIN)
        assert decoded == [MIN]


def _lam_with_exp(v: float) -> float | None:
    """A rate whose ``math.exp(-rate)`` is exactly ``v``, if one exists."""
    lam = -math.log(v)
    for _ in range(64):
        e = math.exp(-lam)
        if e == v:
            return lam
        lam = math.nextafter(lam, math.inf if e > v else -math.inf)
    return None


class TestThresholdTies:
    """Rates chosen so that a uniform, or a running product, equals
    ``exp(-lam)`` exactly.  numpy ends an entry on ``prod <= exp(-lam)``;
    random data almost never ties, so these pin the comparison and the
    threshold itself in each place the decode applies it."""

    def _check(self, seed: int, lam: float, n: int) -> None:
        expected_rng, rng = np.random.default_rng(seed), np.random.default_rng(seed)
        counts = expected_rng.poisson(lam, n)
        offsets, got = poisson_nonzero(rng, lam, n)
        np.testing.assert_array_equal(offsets, np.nonzero(counts)[0])
        np.testing.assert_array_equal(got, counts[offsets])
        assert rng.bit_generator.state == expected_rng.bit_generator.state

    @staticmethod
    def _tie(values, usable):
        """First ``(index, lam)`` with ``exp(-lam) == values[index]``."""
        for i in np.flatnonzero(usable):
            lam = _lam_with_exp(float(values[i]))
            if lam is not None and lam < CUTOFF:
                return int(i), lam
        return None

    def test_uniform_equal_to_threshold_ends_an_entry(self):
        u = np.random.default_rng(3).random(MIN)
        # u[i + 1] starts an entry (u[i] ends one); the tie makes it zero.
        i, lam = self._tie(u[1:], (u[1:] > 0.61) & (u[:-1] <= u[1:]))
        assert u[i + 1] == math.exp(-lam)
        self._check(3, lam, 2 * MIN)

    def test_run_product_equal_to_threshold_ends_an_entry(self):
        u = np.random.default_rng(4).random(MIN)
        pair = u[1:-1] * u[2:]
        # u[i + 1] starts an entry and u[i + 2] brings the product to the tie.
        i, lam = self._tie(pair, (pair > 0.61) & (u[:-2] <= pair))
        assert u[i + 1] > math.exp(-lam) and u[i + 2] > math.exp(-lam)
        self._check(4, lam, 2 * MIN)

    def test_finishing_product_equal_to_threshold_ends_the_cut_entry(self):
        # The block's last two uniforms start an entry and continue it; the
        # first finishing draw brings the product to the tie.
        for seed in range(5000):
            u = np.random.default_rng(seed).random(BLOCK + 1)
            product = u[-3] * u[-2] * u[-1]
            if product > 0.61 and u[-4] <= product:
                tie = self._tie([product], [True])
                if tie is not None:
                    break
        else:
            pytest.fail("no seed gives a tie across the block end")
        self._check(seed, tie[1], 2 * BLOCK)


class TestRateSegment:
    @pytest.mark.parametrize("rate", [math.nan, math.inf, -math.inf, -0.5])
    def test_rejects_bad_rate(self, rate):
        with pytest.raises(WorkloadError, match="rate"):
            RateSegment(start=0, npages=8, rate=rate)

    def test_accepts_zero_rate(self):
        assert RateSegment(start=0, npages=8, rate=0.0).rate == 0.0


def _built(name: str):
    w = build_workload(name, 1 / 512, seed=5)
    w.build(AddressSpace(2_000_000), ThpManager(), Placer(0))
    return w


def _spy_merge(monkeypatch) -> list[int]:
    calls: list[int] = []
    merge = AccessBatch.merge_parts.__func__

    def spy(cls, *columns):
        calls.append(len(columns[-1]))
        return merge(cls, *columns)

    monkeypatch.setattr(AccessBatch, "merge_parts", classmethod(spy))
    return calls


def _disjoint(segments) -> bool:
    ordered = sorted(segments, key=lambda s: s.start)
    return all(a.end <= b.start for a, b in zip(ordered, ordered[1:]))


def loop_merge(batches: list[AccessBatch]) -> AccessBatch:
    """Scatter-add merge with one pass per socket, the reference
    semantics of ``AccessBatch.merge``: a page's socket is the lowest of
    those contributing the most accesses to it."""
    batches = [b for b in batches if b.pages.size]
    if not batches:
        return AccessBatch.empty()
    all_pages = np.concatenate([b.pages for b in batches])
    all_counts = np.concatenate([b.counts for b in batches])
    all_writes = np.concatenate([b.writes for b in batches])
    all_sockets = np.concatenate([b.sockets for b in batches])

    pages, inverse = np.unique(all_pages, return_inverse=True)
    counts = np.zeros(pages.size, dtype=np.int64)
    writes = np.zeros(pages.size, dtype=np.int64)
    np.add.at(counts, inverse, all_counts)
    np.add.at(writes, inverse, all_writes)

    sockets = np.zeros(pages.size, dtype=np.int8)
    best = np.zeros(pages.size, dtype=np.int64)
    for socket in np.unique(all_sockets):
        contrib = np.zeros(pages.size, dtype=np.int64)
        mask = all_sockets == socket
        np.add.at(contrib, inverse[mask], all_counts[mask])
        take = contrib > best
        sockets[take] = socket
        best[take] = contrib[take]
    return AccessBatch(pages=pages, counts=counts, writes=writes, sockets=sockets)


def loop_next_batch(workload, rng: np.random.Generator) -> AccessBatch:
    """The next interval's batch, one ``rng.poisson`` draw and one
    per-segment ``AccessBatch`` at a time: the reference semantics of
    ``Workload.next_batch``."""
    workload._catch_up_segments()
    workload._interval += 1
    batches = []
    for segment in workload.segments(workload._interval):
        if segment.rate <= 0:
            continue
        counts = rng.poisson(segment.rate, segment.npages)
        touched = np.nonzero(counts)[0]
        if touched.size == 0:
            continue
        page_counts = counts[touched].astype(np.int64)
        batches.append(AccessBatch(
            pages=segment.start + touched.astype(np.int64),
            counts=page_counts,
            writes=rng.binomial(page_counts, segment.write_ratio).astype(np.int64),
            sockets=np.full(touched.shape, segment.socket, dtype=np.int8),
        ))
    return loop_merge(batches)


class TestFastAssembly:
    """``Workload.next_batch`` against :func:`loop_next_batch`, batch by
    batch and on the final generator state."""

    @pytest.mark.parametrize(
        "name, disjoint", [("gups", True), ("voltdb", False)]
    )
    def test_equals_legacy_loop(self, monkeypatch, name, disjoint):
        """``next_batch`` equals :func:`loop_next_batch` on a twin
        workload and generator."""
        legacy, fast = _built(name), _built(name)
        legacy_rng, fast_rng = np.random.default_rng(11), np.random.default_rng(11)
        merges = _spy_merge(monkeypatch)
        for _ in range(6):
            want = loop_next_batch(legacy, legacy_rng)
            del merges[:]
            got = fast.next_batch(fast_rng)
            segments = fast._current_segments
            # The plan shape this case covers: gups plans its cold table
            # before the hot bands, index and hotinfo below it.
            assert _disjoint(segments) is disjoint
            if disjoint:
                starts = [s.start for s in segments]
                assert starts != sorted(starts)
            assert any(s.npages >= MIN and 0 < s.rate < CUTOFF for s in segments)
            # Only overlapping plans pay for the merge.
            assert bool(merges) is not disjoint
            assert_batches_equal(got, want)
        assert fast_rng.bit_generator.state == legacy_rng.bit_generator.state


def _part(pages, counts, writes, socket) -> AccessBatch:
    pages = np.asarray(pages, dtype=np.int64)
    return AccessBatch(pages=pages, counts=np.asarray(counts, dtype=np.int64),
                       writes=np.asarray(writes, dtype=np.int64),
                       sockets=np.full(pages.size, socket, dtype=np.int8))


class TestMerge:
    """``AccessBatch.merge`` (the one-sort merge ``next_batch`` shares)
    against :func:`loop_merge`."""

    def _check(self, parts):
        want = loop_merge(parts)
        assert_batches_equal(AccessBatch.merge(parts), want)
        return want

    def test_two_socket_tied_counts(self):
        # Page 0 ties 3-3 and page 4 ties 2-2: the lowest socket wins in
        # either part order.  Page 6's socket-1 rows outweigh socket 0.
        high = _part([0, 2, 4, 6], [3, 1, 2, 2], [1, 0, 2, 0], socket=1)
        low = _part([0, 1, 4, 6], [3, 5, 2, 3], [0, 5, 1, 3], socket=0)
        more = _part([6], [2], [1], socket=1)
        for parts in ([high, low, more], [low, more, high]):
            merged = self._check(parts)
            np.testing.assert_array_equal(merged.pages, [0, 1, 2, 4, 6])
            np.testing.assert_array_equal(merged.sockets, [0, 0, 1, 0, 1])

    def test_page_drawn_by_three_parts(self):
        parts = [_part([3, 7], [1, 4], [0, 1], socket=0),
                 _part([7, 9], [3, 1], [3, 0], socket=1),
                 _part([5, 7], [2, 2], [2, 0], socket=1)]
        merged = self._check(parts)
        np.testing.assert_array_equal(merged.pages, [3, 5, 7, 9])
        np.testing.assert_array_equal(merged.counts, [1, 2, 9, 1])
        np.testing.assert_array_equal(merged.writes, [0, 2, 4, 0])
        np.testing.assert_array_equal(merged.sockets, [0, 1, 1, 1])

    def test_random_overlapping_parts(self):
        rng = np.random.default_rng(9)
        for _ in range(40):
            parts = []
            for _ in range(int(rng.integers(1, 6))):
                n = int(rng.integers(1, 30))
                pages = np.sort(rng.choice(40, size=n, replace=False))
                counts = rng.integers(1, 4, n)
                parts.append(_part(pages, counts, rng.integers(0, counts + 1),
                                   socket=int(rng.integers(-1, 3))))
            self._check(parts)
        assert AccessBatch.merge([]).pages.size == 0

    def test_checks_each_part(self):
        pages = np.array([4, 9, 2, 4], dtype=np.int64)
        ones = np.ones(4, dtype=np.int64)
        sockets = np.zeros(4, dtype=np.int8)
        zeros = np.zeros(4, dtype=np.int64)
        merged = AccessBatch.merge_parts(pages, ones, zeros, sockets, [2, 2])
        np.testing.assert_array_equal(merged.counts, [1, 2, 1])
        with pytest.raises(WorkloadError, match="ascending"):
            AccessBatch.merge_parts(pages, ones, zeros, sockets, [3, 1])
        with pytest.raises(WorkloadError, match=">= 1 access"):
            AccessBatch.merge_parts(pages, zeros, zeros, sockets, [2, 2])
        with pytest.raises(WorkloadError, match="writes"):
            AccessBatch.merge_parts(pages, ones, ones + 1, sockets, [2, 2])
