"""Synthetic power-law graphs in CSR form, for the BFS/SSSP workloads.

The paper traverses a 0.9 B-vertex / 14 B-edge graph (Table 2).  We build
a structurally similar graph at simulation scale: power-law out-degrees
(a few hubs, a long tail) and partially localized targets (graph loaders
renumber vertices so neighbours tend to be nearby, which is what gives
graph workloads their exploitable spatial locality).  The traversals run
for real over this CSR — level sets and relaxation rounds are computed,
not faked — and the workloads map edge ranges onto the large VA footprint.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import nputil
from repro.errors import ConfigError


@dataclass
class CsrGraph:
    """Compressed-sparse-row directed graph.

    Attributes:
        offsets: length ``n + 1``; vertex v's edges live in
            ``targets[offsets[v]:offsets[v + 1]]``.
        targets: edge target vertices.
        weights: positive edge weights (for SSSP); None for BFS-only use.
    """

    offsets: np.ndarray
    targets: np.ndarray
    weights: np.ndarray | None = None

    def __post_init__(self) -> None:
        self.offsets = np.asarray(self.offsets, dtype=np.int64)
        self.targets = np.asarray(self.targets, dtype=np.int64)
        if self.offsets.ndim != 1 or self.offsets.size < 2:
            raise ConfigError("offsets must be a 1-D array of length >= 2")
        if self.offsets[0] != 0 or self.offsets[-1] != self.targets.size:
            raise ConfigError("offsets do not index targets")
        if np.any(np.diff(self.offsets) < 0):
            raise ConfigError("offsets must be non-decreasing")
        if self.targets.size and (
            self.targets.min() < 0 or self.targets.max() >= self.num_vertices
        ):
            raise ConfigError("edge target out of range")
        if self.weights is not None:
            self.weights = np.asarray(self.weights, dtype=np.float64)
            if self.weights.shape != self.targets.shape:
                raise ConfigError("weights shape must match targets")
            if self.weights.size and self.weights.min() <= 0:
                raise ConfigError("weights must be positive")

    @property
    def num_vertices(self) -> int:
        return int(self.offsets.size - 1)

    @property
    def num_edges(self) -> int:
        return int(self.targets.size)

    def degree(self, v: int) -> int:
        return int(self.offsets[v + 1] - self.offsets[v])

    def neighbors(self, v: int) -> np.ndarray:
        return self.targets[self.offsets[v] : self.offsets[v + 1]]

    # -- traversals --------------------------------------------------------------

    def bfs_levels(self, root: int = 0) -> list[np.ndarray]:
        """Level-synchronous BFS; returns the frontier of each level.

        Unreachable vertices never appear.  This is the real traversal the
        BFS workload replays interval by interval.  Traversals are pure
        functions of ``(graph, root)``, so repeated roots (every engine on
        the same seeded workload cycles the same root sequence) replay
        from a per-graph memo instead of re-traversing.
        """
        cache = self.__dict__.setdefault("_bfs_cache", {})
        if root not in cache:
            cache[root] = self._bfs_levels_uncached(root)
        return list(cache[root])

    def _bfs_levels_uncached(self, root: int) -> list[np.ndarray]:
        if not 0 <= root < self.num_vertices:
            raise ConfigError(f"root {root} out of range")
        visited = np.zeros(self.num_vertices, dtype=bool)
        visited[root] = True
        frontier = np.array([root], dtype=np.int64)
        levels = [frontier]
        while frontier.size:
            # Gather all neighbours of the frontier in one vectorized pass.
            starts = self.offsets[frontier]
            ends = self.offsets[frontier + 1]
            counts = ends - starts
            if counts.sum() == 0:
                break
            gather = np.concatenate(
                [self.targets[s:e] for s, e in zip(starts, ends) if e > s]
            )
            gather = nputil.unique(gather)
            fresh = gather[~visited[gather]]
            if fresh.size == 0:
                break
            visited[fresh] = True
            frontier = fresh
            levels.append(frontier)
        return levels

    def sssp_rounds(self, root: int = 0, max_rounds: int = 64) -> list[np.ndarray]:
        """Bellman-Ford-style relaxation; returns active vertices per round.

        Vertices reappear across rounds when shorter paths keep arriving —
        the revisiting that makes SSSP's hot set stickier than BFS's.
        Memoized per ``(root, max_rounds)`` like :meth:`bfs_levels`.
        """
        cache = self.__dict__.setdefault("_sssp_cache", {})
        key = (root, max_rounds)
        if key not in cache:
            cache[key] = self._sssp_rounds_uncached(root, max_rounds)
        return list(cache[key])

    def _sssp_rounds_uncached(self, root: int, max_rounds: int) -> list[np.ndarray]:
        if self.weights is None:
            raise ConfigError("graph has no weights; cannot run SSSP")
        if not 0 <= root < self.num_vertices:
            raise ConfigError(f"root {root} out of range")
        dist = np.full(self.num_vertices, np.inf)
        dist[root] = 0.0
        active = np.array([root], dtype=np.int64)
        rounds = [active]
        for _ in range(max_rounds):
            next_active: set[int] = set()
            for v in active:
                s, e = int(self.offsets[v]), int(self.offsets[v + 1])
                if e <= s:
                    continue
                nbrs = self.targets[s:e]
                cand = dist[v] + self.weights[s:e]
                improved = cand < dist[nbrs]
                if np.any(improved):
                    winners = nbrs[improved]
                    dist[winners] = np.minimum(dist[winners], cand[improved])
                    next_active.update(int(w) for w in winners)
            if not next_active:
                break
            active = np.fromiter(sorted(next_active), dtype=np.int64)
            rounds.append(active)
        return rounds


#: Memo for generated graphs: generation is deterministic in its
#: arguments and the CSR is treated as immutable, so every engine built
#: for the same seeded workload can share one instance (and with it the
#: per-graph traversal memos above).
_GRAPH_CACHE: dict[tuple, CsrGraph] = {}
_GRAPH_CACHE_MAX = 8


def generate_power_law_graph(
    num_vertices: int,
    avg_degree: float = 14.0,
    zipf_a: float = 2.0,
    locality: float = 0.7,
    weighted: bool = False,
    seed: int = 0,
) -> CsrGraph:
    """Generate a power-law CSR graph with localized targets.

    Args:
        num_vertices: vertex count.
        avg_degree: mean out-degree (the paper's graph has ~15.5).
        zipf_a: zipf exponent for the degree distribution (smaller = more
            skew; must be > 1).
        locality: fraction of edges whose target is near the source in
            vertex order (the rest are uniform).
        weighted: attach positive edge weights (for SSSP).
        seed: RNG seed.
    """
    key = (num_vertices, avg_degree, zipf_a, locality, weighted, seed)
    hit = _GRAPH_CACHE.get(key)
    if hit is None:
        if len(_GRAPH_CACHE) >= _GRAPH_CACHE_MAX:
            _GRAPH_CACHE.pop(next(iter(_GRAPH_CACHE)))
        hit = _generate_power_law_graph(
            num_vertices, avg_degree, zipf_a, locality, weighted, seed
        )
        _GRAPH_CACHE[key] = hit
    return hit


def _generate_power_law_graph(
    num_vertices: int,
    avg_degree: float,
    zipf_a: float,
    locality: float,
    weighted: bool,
    seed: int,
) -> CsrGraph:
    if num_vertices < 2:
        raise ConfigError("need at least 2 vertices")
    if avg_degree <= 0:
        raise ConfigError("avg_degree must be positive")
    if zipf_a <= 1.0:
        raise ConfigError("zipf_a must be > 1")
    if not 0.0 <= locality <= 1.0:
        raise ConfigError("locality must be in [0, 1]")
    rng = np.random.default_rng(seed)

    raw = rng.zipf(zipf_a, num_vertices).astype(np.float64)
    raw = np.minimum(raw, num_vertices // 2)
    degrees = np.maximum(1, np.round(raw * avg_degree / raw.mean())).astype(np.int64)

    offsets = np.zeros(num_vertices + 1, dtype=np.int64)
    np.cumsum(degrees, out=offsets[1:])
    m = int(offsets[-1])

    sources = np.repeat(np.arange(num_vertices, dtype=np.int64), degrees)
    local = rng.random(m) < locality
    # Local edges: short signed hops (two-sided geometric-ish).
    hops = rng.geometric(0.05, size=m) * rng.choice(np.array([-1, 1]), size=m)
    targets = np.where(
        local,
        (sources + hops) % num_vertices,
        rng.integers(0, num_vertices, m),
    ).astype(np.int64)
    # No self-loops.
    loops = targets == sources
    targets[loops] = (targets[loops] + 1) % num_vertices

    weights = None
    if weighted:
        weights = rng.uniform(1.0, 8.0, m)
    return CsrGraph(offsets=offsets, targets=targets, weights=weights)
