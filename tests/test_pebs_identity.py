"""Bit-identity of PEBS sampling against its gather reference.

``PebsSampler.sample`` finds eligible pages through one index: a per-node
lookup table and one ``flatnonzero`` of "eligible and read at least
once", with each column gathered once at that index.
:func:`gather_sample` is the body it replaced, one boolean-mask gather
per column and filter.  Every case compares the returned set, the
sampler's counters, its telemetry and the full state of every generator
the two paths draw from, so a change in which pages reach
``rng.binomial``, or in their order, fails here.
"""

import numpy as np
import pytest

from repro.errors import ConfigError, SampleLossError
from repro.faults.injector import FaultConfig, FaultInjector
from repro.hw.topology import optane_4tier
from repro.mm.vma import AddressSpace
from repro.obs.events import EV_PEBS_BATCH
from repro.perf.events import MEM_LOAD_RETIRED_LOCAL_PMM
from repro.perf.pebs import PebsSampler, PebsSampleSet
from repro.sim.trace import AccessBatch


def gather_sample(sampler, batch, page_table, socket=0, duty_cycle=1.0, trims=None):
    """Mask-and-gather sampling: the reference semantics of
    ``PebsSampler.sample``.  Appends to ``trims`` when the excess-trim
    loop runs."""
    if not 0.0 < duty_cycle <= 1.0:
        raise ConfigError(f"duty_cycle must be in (0, 1], got {duty_cycle}")
    if batch.pages.size == 0:
        return PebsSampleSet.empty()

    nodes = page_table.node_of(batch.pages)
    eligible = sampler.eligible_nodes(socket)
    mask = np.isin(nodes, list(eligible))
    if not np.any(mask):
        return PebsSampleSet.empty()

    pages = batch.pages[mask]
    counts = batch.counts[mask] - batch.writes[mask]
    node_of = nodes[mask]
    nonzero = counts > 0
    pages, counts, node_of = pages[nonzero], counts[nonzero], node_of[nonzero]
    if pages.size == 0:
        return PebsSampleSet.empty()

    p = duty_cycle / sampler.period
    draws = sampler.rng.binomial(counts, p)
    hit = draws > 0
    pages, draws, node_of = pages[hit], draws[hit], node_of[hit]

    total = int(draws.sum())
    dropped = 0
    if total > sampler.buffer_capacity:
        dropped = total - sampler.buffer_capacity
        keep_p = sampler.buffer_capacity / total
        draws = sampler.rng.binomial(draws, keep_p)
        excess = int(draws.sum()) - sampler.buffer_capacity
        if excess > 0:
            if trims is not None:
                trims.append(excess)
            order = np.argsort(draws)[::-1]
            for idx in order:
                take = min(excess, int(draws[idx]))
                draws[idx] -= take
                excess -= take
                if excess == 0:
                    break
        kept = draws > 0
        pages, draws, node_of = pages[kept], draws[kept], node_of[kept]

    if sampler.injector is not None:
        draws, lost = sampler.injector.apply_sample_loss(draws)
        if lost:
            dropped += lost
            kept = draws > 0
            pages, draws, node_of = pages[kept], draws[kept], node_of[kept]

    sampler.total_samples_taken += int(draws.sum())
    sampler.total_dropped += dropped
    if sampler.obs is not None:
        sampler.obs.emit(EV_PEBS_BATCH, samples=int(draws.sum()),
                         pages=int(pages.size), dropped=dropped,
                         duty_cycle=duty_cycle)
        sampler.obs.inc("pebs.samples", int(draws.sum()))
        if dropped:
            sampler.obs.inc("pebs.dropped", dropped)
    if sampler.strict and dropped:
        raise SampleLossError(
            f"PEBS buffer overflow: {dropped} samples dropped this window",
            interval=-1,
        )
    return PebsSampleSet(
        pages=pages,
        samples=draws.astype(np.int64),
        nodes=node_of.astype(np.int16),
        dropped=dropped,
    )


class Recorder:
    """Stands in for an ObsContext; keeps every telemetry call."""

    def __init__(self):
        self.calls = []

    def emit(self, name, **fields):
        self.calls.append(("emit", name, fields))

    def inc(self, name, value=1):
        self.calls.append(("inc", name, value))


#: Pages 0..4095: runs on every node of the four-node machine, with
#: unmapped holes, so eligibility changes many times along a batch.
LAYOUT = [(0, 300, 2), (300, 200, 0), (500, 700, 3), (1200, 100, None),
          (1300, 900, 2), (2200, 400, 1), (2600, 600, 3), (3200, 250, None),
          (3450, 646, 2)]


@pytest.fixture
def page_table():
    space = AddressSpace(8192)
    space.allocate_vma(4096, "d")
    for start, npages, node in LAYOUT:
        if node is not None:
            space.page_table.map_range(start, npages, node=node)
    return space.page_table


def random_batch(seed, pages=4096, density=0.6, write_share=0.3):
    rng = np.random.default_rng(seed)
    touched = np.flatnonzero(rng.random(pages) < density)
    counts = rng.integers(1, 40, touched.size)
    writes = rng.binomial(counts, write_share)
    return AccessBatch(pages=touched, counts=counts, writes=writes)


def twins(buffer_capacity=1 << 16, seed=3, fault_rate=0.0, **kw):
    """Two samplers with identical state; each gets its own generator,
    injector and recorder."""
    topo = optane_4tier(1 / 512)
    out = []
    for _ in range(2):
        injector = (FaultInjector(FaultConfig(sample_loss_rate=fault_rate), seed=5)
                    if fault_rate else None)
        sampler = PebsSampler(topo, period=4, buffer_capacity=buffer_capacity,
                              rng=np.random.default_rng(seed), injector=injector, **kw)
        sampler.obs = Recorder()
        out.append(sampler)
    return out


def assert_same(want_sampler, got_sampler, want, got):
    for field in ("pages", "samples", "nodes"):
        a, b = getattr(want, field), getattr(got, field)
        assert a.dtype == b.dtype
        np.testing.assert_array_equal(a, b)
    assert want.dropped == got.dropped
    assert want_sampler.rng.bit_generator.state == got_sampler.rng.bit_generator.state
    assert want_sampler.total_samples_taken == got_sampler.total_samples_taken
    assert want_sampler.total_dropped == got_sampler.total_dropped
    assert want_sampler.obs.calls == got_sampler.obs.calls
    if want_sampler.injector is not None:
        assert (want_sampler.injector.rng.bit_generator.state
                == got_sampler.injector.rng.bit_generator.state)
        assert want_sampler.injector.log == got_sampler.injector.log


def check(batch, page_table, samplers=None, socket=0, duty_cycle=1.0, trims=None):
    ref, fast = samplers if samplers is not None else twins()
    want = gather_sample(ref, batch, page_table, socket, duty_cycle, trims)
    got = fast.sample(batch, page_table, socket=socket, duty_cycle=duty_cycle)
    assert_same(ref, fast, want, got)
    return got


class TestPebsAgainstGather:
    @pytest.mark.parametrize("seed", range(6))
    def test_mixed_placement(self, page_table, seed):
        for duty_cycle in (1.0, 0.1):
            got = check(random_batch(seed), page_table, duty_cycle=duty_cycle)
            assert got.pages.size and set(got.nodes.tolist()) <= {2, 3}

    def test_empty_batch(self, page_table):
        got = check(AccessBatch.empty(), page_table)
        assert got.pages.size == 0

    def test_no_eligible_page(self, page_table):
        batch = AccessBatch(pages=np.arange(300, 500), counts=np.full(200, 9),
                            writes=np.zeros(200, dtype=np.int64))
        assert check(batch, page_table).pages.size == 0

    def test_all_write_pages(self, page_table):
        batch = random_batch(1)
        batch.writes = batch.counts.copy()
        samplers = twins()
        assert check(batch, page_table, samplers).pages.size == 0
        assert samplers[1].obs.calls == []

    def test_some_write_only_pages(self, page_table):
        batch = random_batch(2)
        batch.writes[::3] = batch.counts[::3]
        check(batch, page_table)

    def test_unmapped_pages(self, page_table):
        # Only the two unmapped holes: nothing is eligible.
        holes = np.concatenate([np.arange(1200, 1300), np.arange(3200, 3450)])
        batch = AccessBatch(pages=holes, counts=np.full(holes.size, 7),
                            writes=np.zeros(holes.size, dtype=np.int64))
        assert check(batch, page_table).pages.size == 0
        # Holes among eligible pages are skipped, not sampled.
        got = check(random_batch(4, density=0.9, write_share=0.0), page_table)
        assert not np.isin(got.pages, holes).any()

    @pytest.mark.parametrize("socket", [0, 1])
    def test_two_socket_local_event(self, page_table, socket):
        """A locality-dependent event on the two-socket machine: socket
        1's local PM is node 3, socket 0's is node 2."""
        samplers = twins(events=(MEM_LOAD_RETIRED_LOCAL_PMM,))
        got = check(random_batch(5), page_table, samplers, socket=socket)
        assert set(got.nodes.tolist()) == {2 + socket}

    def test_overflow_thinning_and_trim(self, page_table):
        trims = []
        for seed in range(12):
            samplers = twins(buffer_capacity=300, seed=seed)
            got = check(random_batch(seed), page_table, samplers, trims=trims)
            assert got.dropped > 0 and got.samples.sum() <= 300
        # The excess-trim loop ran in some of the windows.
        assert trims

    def test_injected_sample_loss(self, page_table):
        samplers = twins(fault_rate=1.0)
        for seed in range(3):
            got = check(random_batch(seed), page_table, samplers)
            assert got.dropped > 0
        assert samplers[1].injector.log.sample_loss_events == 3

    def test_strict_raises_on_loss(self, page_table):
        samplers = twins(buffer_capacity=50, strict=True)
        ref, fast = samplers
        batch = random_batch(6)
        with pytest.raises(SampleLossError):
            gather_sample(ref, batch, page_table)
        with pytest.raises(SampleLossError):
            fast.sample(batch, page_table)
        assert ref.rng.bit_generator.state == fast.rng.bit_generator.state
        assert ref.obs.calls == fast.obs.calls
        assert ref.total_dropped == fast.total_dropped > 0
