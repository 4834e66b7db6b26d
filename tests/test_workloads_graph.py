"""Unit tests for the CSR graph substrate and traversal workloads."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.hw.placement import Placer
from repro.mm.hugepage import ThpManager
from repro.mm.vma import AddressSpace
from repro.workloads.bfs import BfsConfig, BfsWorkload
from repro.workloads.graph import (
    CsrGraph,
    _generate_power_law_graph,
    generate_power_law_graph,
)
from repro.workloads.sssp import SsspConfig, SsspWorkload

SCALE = 1.0 / 512.0


class TestCsrGraph:
    def test_validation(self):
        with pytest.raises(ConfigError):
            CsrGraph(offsets=np.array([0]), targets=np.array([], dtype=np.int64))
        with pytest.raises(ConfigError):
            CsrGraph(offsets=np.array([0, 2]), targets=np.array([5]))  # mismatch
        with pytest.raises(ConfigError):
            CsrGraph(offsets=np.array([0, 1]), targets=np.array([7]))  # target oob

    def test_neighbors_and_degree(self):
        g = CsrGraph(offsets=np.array([0, 2, 3]), targets=np.array([1, 1, 0]))
        assert g.degree(0) == 2
        assert g.neighbors(1).tolist() == [0]
        assert g.num_vertices == 2 and g.num_edges == 3

    def test_bfs_levels_on_chain(self):
        # 0 -> 1 -> 2
        g = CsrGraph(offsets=np.array([0, 1, 2, 2]), targets=np.array([1, 2]))
        levels = g.bfs_levels(0)
        assert [lv.tolist() for lv in levels] == [[0], [1], [2]]

    def test_bfs_never_revisits(self):
        g = generate_power_law_graph(2000, seed=1)
        levels = g.bfs_levels(0)
        seen = np.concatenate(levels)
        assert np.unique(seen).size == seen.size

    def test_sssp_requires_weights(self):
        g = CsrGraph(offsets=np.array([0, 1, 1]), targets=np.array([1]))
        with pytest.raises(ConfigError):
            g.sssp_rounds(0)

    def test_sssp_relaxation_reaches_bfs_set(self):
        g = generate_power_law_graph(1000, weighted=True, seed=2)
        bfs_reach = set(np.concatenate(g.bfs_levels(0)).tolist())
        sssp_touch = set(np.concatenate(g.sssp_rounds(0)).tolist())
        assert bfs_reach <= sssp_touch | bfs_reach  # sanity: no crash, sets overlap
        assert len(sssp_touch & bfs_reach) > 0

    def test_sssp_revisits_vertices(self):
        g = generate_power_law_graph(1000, weighted=True, seed=2)
        rounds = g.sssp_rounds(0)
        total = sum(r.size for r in rounds)
        unique = np.unique(np.concatenate(rounds)).size
        assert total >= unique  # revisits allowed (usually strictly more)


class TestGenerator:
    def test_degree_and_size(self):
        g = generate_power_law_graph(5000, avg_degree=10.0, seed=0)
        assert g.num_vertices == 5000
        assert g.num_edges == pytest.approx(50000, rel=0.25)

    def test_power_law_has_hubs(self):
        g = generate_power_law_graph(5000, seed=0)
        degrees = np.diff(g.offsets)
        assert degrees.max() > 10 * degrees.mean()

    def test_no_self_loops(self):
        g = generate_power_law_graph(500, seed=3)
        sources = np.repeat(np.arange(500), np.diff(g.offsets))
        assert not np.any(sources == g.targets)

    def test_weighted(self):
        g = generate_power_law_graph(100, weighted=True, seed=1)
        assert g.weights is not None and g.weights.min() > 0

    def test_validation(self):
        with pytest.raises(ConfigError):
            generate_power_law_graph(1)
        with pytest.raises(ConfigError):
            generate_power_law_graph(100, zipf_a=1.0)
        with pytest.raises(ConfigError):
            generate_power_law_graph(100, locality=2.0)


class TestMemos:
    """Traversals and generated graphs are memoized; each memo equals the
    uncached body it wraps."""

    @staticmethod
    def _lists(arrays):
        return [a.tolist() for a in arrays]

    def test_traversals_equal_uncached(self):
        g = generate_power_law_graph(3000, weighted=True, seed=2)
        for root in (0, 17, 0):
            levels = g.bfs_levels(root)
            assert self._lists(levels) == self._lists(g._bfs_levels_uncached(root))
            levels.clear()  # callers get their own list
            assert g.bfs_levels(root)
            for max_rounds in (3, 64):
                assert self._lists(g.sssp_rounds(root, max_rounds)) == \
                    self._lists(g._sssp_rounds_uncached(root, max_rounds))

    def test_graph_equals_uncached(self):
        args = (2500, 12.0, 2.0, 0.6, True, 5)
        graph = generate_power_law_graph(*args)
        assert generate_power_law_graph(*args) is graph
        fresh = _generate_power_law_graph(*args)
        for field in ("offsets", "targets", "weights"):
            np.testing.assert_array_equal(getattr(graph, field), getattr(fresh, field))


class TestTraversalWorkloads:
    def _build(self, cls, cfg):
        w = cls(cfg)
        space = AddressSpace(2_000_000)
        w.build(space, ThpManager(), Placer(0))
        return w

    def test_bfs_replays_real_levels(self):
        w = self._build(BfsWorkload, BfsConfig(scale=SCALE, num_vertices=2000, seed=1))
        rng = np.random.default_rng(0)
        sizes = []
        for _ in range(6):
            batch = w.next_batch(rng)
            sizes.append(batch.total_accesses)
        # Power-law BFS: traffic varies strongly across levels.
        assert max(sizes) > 2 * min(sizes)

    def test_bfs_restarts_after_traversal(self):
        w = self._build(
            BfsWorkload,
            BfsConfig(scale=SCALE, num_vertices=500, levels_per_interval=4, seed=1),
        )
        rng = np.random.default_rng(0)
        for _ in range(20):  # far beyond one traversal's depth
            batch = w.next_batch(rng)
            assert batch.total_accesses > 0

    def test_bfs_read_only_edges(self):
        w = self._build(BfsWorkload, BfsConfig(scale=SCALE, num_vertices=2000, seed=1))
        batch = w.next_batch(np.random.default_rng(0))
        # Read-mostly overall (metadata updates are the only writes).
        assert batch.write_ratio() < 0.5

    def test_sssp_runs_longer_than_bfs(self):
        g_cfg = dict(scale=SCALE, num_vertices=2000, seed=1)
        bfs = self._build(BfsWorkload, BfsConfig(**g_cfg))
        sssp = self._build(SsspWorkload, SsspConfig(**g_cfg))
        assert len(sssp._levels) >= len(bfs._levels)

    def test_sssp_config_validation(self):
        with pytest.raises(ConfigError):
            SsspConfig(max_rounds=0)
