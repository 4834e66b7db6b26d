"""Unit tests for the cost model."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.mm.hugepage import ThpManager
from repro.mm.vma import AddressSpace
from repro.perf.pcm import NodeSums
from repro.sim.costmodel import (
    CostModel,
    CostParams,
    PAPER_INTERVAL,
    effective_interval,
)
from repro.sim.trace import AccessBatch
from repro.hw.topology import optane_4tier


@pytest.fixture
def model():
    return CostModel(optane_4tier(1 / 512), CostParams().with_scale(1 / 512))


def app_time(model, batch, page_table):
    """``model``'s time for ``batch`` under ``page_table``'s placement."""
    return model.app_time(NodeSums.of(batch, page_table, model.topology))


def place_and_batch(node: int, n_accesses: int = 1000):
    space = AddressSpace(4096)
    vma = space.allocate_vma(1024, "d")
    ThpManager().populate(space.page_table, vma, node=node)
    pages = np.arange(vma.start, vma.start + 100)
    batch = AccessBatch(
        pages=pages,
        counts=np.full(100, n_accesses // 100, dtype=np.int64),
        writes=np.zeros(100, dtype=np.int64),
    )
    return space.page_table, batch


class TestEffectiveInterval:
    def test_scales_paper_interval(self):
        assert effective_interval(1.0) == PAPER_INTERVAL
        assert effective_interval(1 / 128) == pytest.approx(10.0 / 128)

    def test_rejects_bad_scale(self):
        with pytest.raises(ConfigError):
            effective_interval(0)


class TestAppTime:
    def test_faster_tier_is_faster(self, model):
        pt_fast, batch = place_and_batch(0)
        pt_slow, _ = place_and_batch(2)
        assert app_time(model, batch, pt_fast) < app_time(model, batch, pt_slow)

    def test_empty_batch_costs_nothing(self, model):
        pt, _ = place_and_batch(0)
        assert app_time(model, AccessBatch.empty(), pt) == 0.0

    def test_compute_term_is_placement_independent(self, model):
        pt_fast, batch = place_and_batch(0)
        pt_slow, _ = place_and_batch(3)
        fast = app_time(model, batch, pt_fast)
        slow = app_time(model, batch, pt_slow)
        compute = model.compute_time(batch.total_accesses)
        # compute term bounds the achievable speedup
        assert fast >= compute
        assert slow / fast < slow / compute

    def test_tier4_bandwidth_penalty_bites(self, model):
        """Remote PM's 1 GB/s must dominate its cost, not just latency."""
        pt4, batch = place_and_batch(3)
        pt3, _ = place_and_batch(2)
        # tier4/tier3 latency ratio is only 340/275; the time ratio must
        # exceed it because of the bandwidth term.
        ratio = app_time(model, batch, pt4) / app_time(model, batch, pt3)
        assert ratio > 340.0 / 275.0


class TestProfilingBudget:
    def test_eq1_shape(self, model):
        # num_ps = t * c / (scan * n)
        budget = model.profiling_budget_pages(10.0, 0.05, 3, with_hint_amortization=False)
        expected = int(10.0 * 0.05 / (model.params.scan_overhead * 3))
        assert budget == expected

    def test_hint_amortization_shrinks_budget(self, model):
        with_hint = model.profiling_budget_pages(10.0, 0.05, 3, with_hint_amortization=True)
        without = model.profiling_budget_pages(10.0, 0.05, 3, with_hint_amortization=False)
        assert with_hint < without

    def test_hint_fault_is_12x_scan(self, model):
        assert model.params.hint_fault_cost == pytest.approx(
            12.0 * model.params.scan_overhead
        )

    def test_budget_validation(self, model):
        with pytest.raises(ConfigError):
            model.profiling_budget_pages(0, 0.05, 3)
        with pytest.raises(ConfigError):
            model.profiling_budget_pages(10, 1.5, 3)

    def test_scan_time_linear(self, model):
        assert model.scan_time(100) == pytest.approx(100 * model.params.scan_overhead)


class TestMigrationCosts:
    def test_copy_parallelism_helps_until_link_limit(self, model):
        serial = model.copy_time(512, 2, 0, parallelism=1)
        par4 = model.copy_time(512, 2, 0, parallelism=4)
        par64 = model.copy_time(512, 2, 0, parallelism=64)
        assert par4 < serial
        assert par64 <= par4
        # Beyond the link limit extra threads stop helping.
        assert model.copy_time(512, 2, 0, parallelism=128) == pytest.approx(par64)

    def test_copy_zero_pages_free(self, model):
        assert model.copy_time(0, 2, 0) == 0.0

    def test_per_page_costs(self, model):
        assert model.alloc_time(100) == pytest.approx(100 * model.params.alloc_per_page)
        assert model.unmap_time(10) == pytest.approx(10 * model.params.unmap_per_page)
        assert model.map_time(10) == pytest.approx(10 * model.params.map_per_page)
        assert model.pte_migrate_time(4) == pytest.approx(
            4 * model.params.pte_migrate_per_page
        )

    def test_negative_rejected(self, model):
        with pytest.raises(ConfigError):
            model.copy_time(-1, 0, 1)
        with pytest.raises(ConfigError):
            model.alloc_time(-1)


class TestParamsValidation:
    def test_rejects_bad_values(self):
        with pytest.raises(ConfigError):
            CostParams(threads=0)
        with pytest.raises(ConfigError):
            CostParams(mlp=0)
        with pytest.raises(ConfigError):
            CostParams(serial_fraction=1.5)
        with pytest.raises(ConfigError):
            CostParams(pebs_period=0)
        with pytest.raises(ConfigError):
            CostParams(scale=0)

    def test_with_scale_round_trip(self):
        params = CostParams().with_scale(1 / 64)
        assert params.scale == pytest.approx(1 / 64)
