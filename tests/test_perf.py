"""Unit tests for the performance-counter substrate (PEBS, PCM)."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.hw.tier import MemoryKind
from repro.hw.topology import optane_4tier
from repro.mm.vma import AddressSpace
from repro.perf.events import (
    MEM_LOAD_RETIRED_DRAM,
    MEM_LOAD_RETIRED_LOCAL_PMM,
    MEM_LOAD_RETIRED_REMOTE_PMM,
    PEBS_ALL_EVENTS,
    PEBS_PMM_EVENTS,
)
from repro.perf.pcm import NodeSums, PcmCounters
from repro.perf.pebs import PebsSampler
from repro.sim.trace import AccessBatch

SCALE = 1.0 / 512.0


@pytest.fixture
def topo():
    return optane_4tier(SCALE)


@pytest.fixture
def placed(topo):
    """Pages 0..1023 on DRAM0, 1024..2047 on PM0."""
    space = AddressSpace(4096)
    vma = space.allocate_vma(2048, "d")
    space.page_table.map_range(vma.start, 1024, node=0)
    space.page_table.map_range(vma.start + 1024, 1024, node=2)
    return space.page_table, vma


def reads(pages, count):
    pages = np.asarray(pages, dtype=np.int64)
    return AccessBatch(
        pages=pages,
        counts=np.full(pages.size, count, dtype=np.int64),
        writes=np.zeros(pages.size, dtype=np.int64),
    )


class TestEvents:
    def test_pmm_events_match_pm_only(self):
        assert MEM_LOAD_RETIRED_LOCAL_PMM.matches(MemoryKind.PM, True)
        assert not MEM_LOAD_RETIRED_LOCAL_PMM.matches(MemoryKind.PM, False)
        assert not MEM_LOAD_RETIRED_LOCAL_PMM.matches(MemoryKind.DRAM, True)
        assert MEM_LOAD_RETIRED_REMOTE_PMM.matches(MemoryKind.PM, False)

    def test_dram_event_ignores_locality(self):
        assert MEM_LOAD_RETIRED_DRAM.matches(MemoryKind.DRAM, True)
        assert MEM_LOAD_RETIRED_DRAM.matches(MemoryKind.DRAM, False)


class TestPebs:
    def test_eligible_nodes_pmm_only(self, topo):
        sampler = PebsSampler(topo, events=PEBS_PMM_EVENTS)
        assert sampler.eligible_nodes(0) == frozenset({2, 3})

    def test_eligible_nodes_all_events(self, topo):
        sampler = PebsSampler(topo, events=PEBS_ALL_EVENTS)
        assert sampler.eligible_nodes(0) == frozenset({0, 1, 2, 3})

    def test_only_pm_accesses_sampled(self, topo, placed):
        pt, vma = placed
        sampler = PebsSampler(topo, period=1, rng=np.random.default_rng(0))
        batch = reads(np.arange(0, 2048), 4)
        samples = sampler.sample(batch, pt)
        assert samples.pages.min() >= 1024  # DRAM pages invisible to PMM events
        assert np.all(samples.nodes == 2)

    def test_sampling_rate_statistics(self, topo, placed):
        pt, vma = placed
        sampler = PebsSampler(topo, period=10, rng=np.random.default_rng(0))
        batch = reads(np.arange(1024, 2048), 100)
        samples = sampler.sample(batch, pt)
        expected = 1024 * 100 / 10
        assert samples.total_samples == pytest.approx(expected, rel=0.15)

    def test_duty_cycle_thins_samples(self, topo, placed):
        pt, vma = placed
        batch = reads(np.arange(1024, 2048), 100)
        full = PebsSampler(topo, period=10, rng=np.random.default_rng(0)).sample(batch, pt)
        tenth = PebsSampler(topo, period=10, rng=np.random.default_rng(0)).sample(
            batch, pt, duty_cycle=0.1
        )
        assert tenth.total_samples < full.total_samples / 5

    def test_writes_not_sampled(self, topo, placed):
        pt, vma = placed
        pages = np.arange(1024, 2048)
        batch = AccessBatch(
            pages=pages,
            counts=np.full(pages.size, 10, dtype=np.int64),
            writes=np.full(pages.size, 10, dtype=np.int64),
        )
        sampler = PebsSampler(topo, period=1, rng=np.random.default_rng(0))
        assert sampler.sample(batch, pt).total_samples == 0

    def test_buffer_overflow_drops(self, topo, placed):
        pt, vma = placed
        sampler = PebsSampler(
            topo, period=1, buffer_capacity=100, rng=np.random.default_rng(0)
        )
        batch = reads(np.arange(1024, 2048), 50)
        samples = sampler.sample(batch, pt)
        assert samples.dropped > 0
        assert samples.total_samples <= 100

    def test_empty_batch(self, topo, placed):
        pt, vma = placed
        sampler = PebsSampler(topo)
        assert sampler.sample(AccessBatch.empty(), pt).total_samples == 0

    def test_config_validation(self, topo):
        with pytest.raises(ConfigError):
            PebsSampler(topo, period=0)
        with pytest.raises(ConfigError):
            PebsSampler(topo, buffer_capacity=0)
        with pytest.raises(ConfigError):
            PebsSampler(topo, events=())

    def test_bad_duty_cycle(self, topo, placed):
        pt, vma = placed
        sampler = PebsSampler(topo)
        with pytest.raises(ConfigError):
            sampler.sample(reads([1500], 1), pt, duty_cycle=0.0)


class TestPcm:
    def test_counts_by_current_placement(self, topo, placed):
        pt, vma = placed
        pcm = PcmCounters(topo)
        pcm.count(NodeSums.of(reads(np.arange(0, 2048), 2), pt, topo))
        assert pcm.node_accesses[0] == 2048
        assert pcm.node_accesses[2] == 2048
        assert pcm.total_accesses() == 4096

    def test_tier_presentation(self, topo, placed):
        pt, vma = placed
        pcm = PcmCounters(topo)
        pcm.count(NodeSums.of(reads(np.arange(0, 1024), 1), pt, topo))
        tiers = pcm.tier_accesses(socket=0)
        assert tiers[1] == 1024
        assert tiers[3] == 0

    def test_fastest_tier_share(self, topo, placed):
        pt, vma = placed
        pcm = PcmCounters(topo)
        assert pcm.fastest_tier_share() == 0.0
        pcm.count(NodeSums.of(reads(np.arange(0, 2048), 1), pt, topo))
        assert pcm.fastest_tier_share() == pytest.approx(0.5)

    def test_reset(self, topo, placed):
        pt, vma = placed
        pcm = PcmCounters(topo)
        pcm.count(NodeSums.of(reads([0], 5), pt, topo))
        pcm.reset()
        assert pcm.total_accesses() == 0
