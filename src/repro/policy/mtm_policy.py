"""MTM's migration policy: global ranking, fast promotion, slow demotion.

Sec. 6 of the paper:

* decisions use a **global view** — all regions on all tiers are ranked in
  one WHI histogram, so a region on the slowest tier can jump straight to
  the fastest (no tier-by-tier staging);
* per interval, a constant budget ``N`` (200 MB at paper scale) of regions
  is promoted, hottest-histogram-buckets first; when the hottest buckets
  are already resident in the fastest tier, the next bucket down is
  promoted to the *second*-fastest tier, and so on ("fast promotion");
* demotion happens only to make room, coldest-buckets first, one tier down
  to the next tier with capacity ("slow demotion");
* the destination tier is interpreted through the view of the socket that
  accesses the region most (multi-view, Sec. 6.2).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import takewhile

import numpy as np

from repro.errors import ConfigError
from repro.policy.base import (
    MigrationOrder, PlacementLedger, PlacementState, Policy, PolicyConfig,
)
from repro.policy.histogram import WhiHistogram
from repro.profile.base import ProfileSnapshot
from repro.units import PAGE_SIZE

@dataclass
class MtmPolicyConfig(PolicyConfig):
    """MTM policy tunables (the budget ``N`` comes from :class:`PolicyConfig`).

    Attributes:
        num_buckets: WHI histogram resolution.
        min_score: regions scoring at or below this are never promoted.
        headroom: fraction of each tier's capacity left unassigned so
            promotion always has room to land without cascading demotions.
        displacement_margin: a promotion that must *demote* residents to
            make room only proceeds when the promoted region outscores
            every victim by this margin.  Filling free space needs no
            margin.  This keeps equal-hotness regions from endlessly
            swapping places (the histogram's bucket quantization plays the
            same role in the paper).
    """

    num_buckets: int = 16
    min_score: float = 0.0
    headroom: float = 0.02
    displacement_margin: float = 0.2

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.num_buckets < 2:
            raise ConfigError("num_buckets must be >= 2")


class MtmPolicy(Policy):
    """Fast promotion / slow demotion over the global WHI histogram."""

    name = "mtm"

    def __init__(self, config: MtmPolicyConfig | None = None) -> None:
        self.config = config if config is not None else MtmPolicyConfig()

    def decide(self, snapshot: ProfileSnapshot, state: PlacementState) -> list[MigrationOrder]:
        cfg = self.config
        hist = WhiHistogram(snapshot.score, num_buckets=cfg.num_buckets)
        budget_pages = cfg.budget_bytes // PAGE_SIZE
        ledger = PlacementLedger(state, snapshot)
        # Each region's tiers follow the view of the socket that accesses
        # it most (multi-view, Sec. 6.2).
        ds = snapshot.dominant_socket
        sockets = np.where(ds >= 0, ds, cfg.default_socket)

        # Global view (Sec. 6): rank every region on every tier by WHI and
        # assign tiers by capacity — the hottest fill the fastest tier,
        # the next hottest the second tier, and so on.  "Fast promotion"
        # is then: move the hottest mis-placed regions straight to their
        # assigned tier (no tier-by-tier staging), up to the budget N.
        # "Slow demotion" happens only inside _make_space.
        targets = self._assign_targets(snapshot, hist, state, sockets)

        socket_of = sockets.tolist()
        scores = snapshot.score.tolist()
        coldest = hist.coldest_first().tolist()
        promoted_pages = 0
        for i, target_node in targets:
            if promoted_pages >= budget_pages:
                break
            view = state.topology.view(socket_of[i])
            target_tier = view.tier_of(target_node)
            # A region may straddle components (partial promotions, stale
            # placement); promote its pages from every slower component.
            for src_node in ledger.nodes_of(i):
                if promoted_pages >= budget_pages:
                    break
                if view.tier_of(src_node) <= target_tier:
                    continue  # equal or faster: demotion is pressure-driven only
                # A chunk larger than the remaining budget is promoted
                # partially.
                pages = ledger.fit(ledger.pages_on(i, src_node),
                                   budget_pages - promoted_pages)
                if pages.size == 0:
                    break
                if not self._make_space(ledger, target_node, int(pages.size), coldest,
                                        scores, state, promoting_score=scores[i]):
                    continue
                ledger.move(i, pages, src_node, target_node, "promotion")
                promoted_pages += pages.size
        return ledger.orders

    def _assign_targets(
        self,
        snapshot: ProfileSnapshot,
        hist: WhiHistogram,
        state: PlacementState,
        sockets: np.ndarray,
    ) -> list[tuple[int, int]]:
        """Match regions to tiers: hottest first into the fastest tiers.

        Ranking is *bucket-quantized*: regions in the same histogram
        bucket are equally hot, and within a bucket the ones already on
        faster tiers come first — so the assignment is stable and equal
        regions never trade places.  Each region's tier ladder follows the
        view of its socket in ``sockets``; per-component capacity is
        shared across views.  Regions scoring at or below ``min_score``
        are left wherever they are.  Returns ``(row, node)`` pairs in
        rank order.
        """
        topo = state.topology
        remaining = {
            n: int(state.frames.capacity_pages(n) * (1.0 - self.config.headroom))
            for n in topo.node_ids
        }
        ladders = [topo.view(s).ranked_nodes for s in range(topo.num_sockets)]
        # tier_of[socket, node]: the node's tier in that socket's view.
        tier_of = np.zeros((topo.num_sockets, max(topo.node_ids) + 1), dtype=np.int64)
        for s, ladder in enumerate(ladders):
            tier_of[s, list(ladder)] = np.arange(1, len(ladder) + 1)

        rows = np.flatnonzero(snapshot.score > self.config.min_score)
        node, socket = snapshot.node[rows], sockets[rows]
        current = np.full(rows.size, topo.num_tiers + 1, dtype=np.int64)  # unmapped last
        mapped = node >= 0
        current[mapped] = tier_of[socket[mapped], node[mapped]]
        ranked = rows[np.lexsort((-snapshot.score[rows], current, -hist.bucket_of[rows]))]

        npages = snapshot.npages.tolist()
        socket_of = sockets.tolist()
        assignment: list[tuple[int, int]] = []
        for i in ranked.tolist():
            need = npages[i]
            for node in ladders[socket_of[i]]:
                if remaining[node] >= need:
                    remaining[node] -= need
                    assignment.append((i, node))
                    break
        return assignment

    # -- internals --------------------------------------------------------------

    def _make_space(
        self,
        ledger: PlacementLedger,
        dst: int,
        need: int,
        coldest: list[int],
        scores: list[float],
        state: PlacementState,
        promoting_score: float = float("inf"),
    ) -> bool:
        """Demote coldest regions out of ``dst`` until ``need`` pages fit.

        ``coldest`` is every row, coldest first.  Demotion is slow: one
        tier down at a time, to the next lower tier with capacity
        (Sec. 6.2).  Victims must be colder than the promoting region by
        the displacement margin.  When space cannot be made, the
        demotions staged for it are taken back out of the ledger and
        False is returned.
        """
        if ledger.free[dst] >= need:
            return True
        view = state.topology.view(self.config.default_socket)
        margin = self.config.displacement_margin
        # Coldest first: once one region is within the margin of the
        # promoting one, every later region is too.
        victims = takewhile(lambda i: scores[i] + margin < promoting_score, coldest)
        staged = ledger.make_room(
            dst, need, victims, lambda npages: ledger.lower_with_space(view, dst, npages)
        )
        if ledger.free[dst] >= need:
            return True
        # Room cannot be made: take the staged demotions back.
        for _ in staged:
            order = ledger.orders.pop()
            ledger.free[order.src_node] -= order.npages
            ledger.free[order.dst_node] += order.npages
        ledger.moved.difference_update(staged)
        return False
